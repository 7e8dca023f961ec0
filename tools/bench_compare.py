#!/usr/bin/env python3
"""Compare the two most recent entries of a bench trajectory file.

BENCH_wallclock.json accumulates one labelled entry per bench invocation
(see JsonEmitter::append_entry).  This tool diffs the latest entry against
the one before it, matching rows on (op, mode), and fails (exit 1) when any
matched row regresses in wall-clock time by more than --threshold while
performing the *same* number of I/Os.  Rows whose I/O counts differ are a
geometry change, not a perf regression — they are reported and skipped, as
are rows present in only one entry.

With --workers the tool gates the worker-lane legs of the latest entry:
for every op with workersN rows, all of them must report identical logical
I/O counts AND identical output checksums (W is geometry, never output —
both are hard failures at any threshold), and each workersN row's
wall-clock must stay within --threshold of the same op's workers1 row (on
a single-core host the distributed path cannot win wall-clock; the gate
only forbids it costing more than coordination overhead should).

Usage:
    tools/bench_compare.py [FILE] [--threshold=0.10] [--workers]

Exit status: 0 = no regression (including "fewer than two entries"),
1 = at least one regression, 2 = bad input.
"""

import json
import sys


def load_entries(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):  # legacy single-entry file
        doc = [doc]
    if not isinstance(doc, list):
        raise ValueError("expected a JSON array of bench entries")
    return doc


def row_key(row):
    return (row.get("op", "?"), row.get("mode", "?"))


def workers_gate(entries, threshold):
    """Gate the latest entry's workersN legs (see module docstring)."""
    new = entries[-1]
    rows = [r for r in new.get("rows", [])
            if str(r.get("mode", "")).startswith("workers")]
    print(f"bench_compare: workers gate on '{new.get('label', '?')}' "
          f"(threshold {threshold:.0%})")

    failures = 0

    def fail(msg):
        nonlocal failures
        failures += 1
        print(f"  FAIL {msg}", file=sys.stderr)

    by_op = {}
    for r in rows:
        by_op.setdefault(r.get("op", "?"), []).append(r)

    checked = 0
    for op, wrows in sorted(by_op.items()):
        base = next((r for r in wrows if r.get("mode") == "workers1"), None)
        if base is None:
            fail(f"{op}: workersN rows but no workers1 baseline")
            continue
        bs = float(base.get("seconds", 0))
        for r in sorted(wrows, key=lambda r: r.get("mode", "")):
            mode = r.get("mode", "?")
            checked += 1
            # Hard gates: W is geometry, never output.
            if r.get("ios") != base.get("ios"):
                fail(f"{op}/{mode}: ios {r.get('ios')} != workers1 "
                     f"ios {base.get('ios')}")
            if r.get("checksum") != base.get("checksum"):
                fail(f"{op}/{mode}: checksum diverged from workers1")
            if mode == "workers1":
                print(f"    ok {op}/{mode}: baseline {bs:.3f}s at "
                      f"{base.get('ios')} ios")
                continue
            ns = float(r.get("seconds", 0))
            if bs > 0 and ns > bs * (1.0 + threshold):
                fail(f"{op}/{mode}: {ns:.3f}s exceeds workers1 "
                     f"{bs:.3f}s by more than {threshold:.0%}")
            else:
                print(f"    ok {op}/{mode}: {ns:.3f}s vs workers1 "
                      f"{bs:.3f}s at equal ios")

    if checked == 0:
        print("bench_compare: no workersN rows in the latest entry",
              file=sys.stderr)
        return 1
    if failures:
        print(f"bench_compare: workers gate failed ({failures} check(s))",
              file=sys.stderr)
        return 1
    print(f"bench_compare: workers gate passed ({checked} row(s))")
    return 0


def main(argv):
    path = "BENCH_wallclock.json"
    threshold = 0.10
    workers = False
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--workers":
            workers = True
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        elif arg.startswith("-"):
            print(f"bench_compare: unknown flag {arg!r}", file=sys.stderr)
            return 2
        else:
            path = arg

    try:
        entries = load_entries(path)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        return 2

    if workers:
        if not entries:
            print(f"bench_compare: no entries in {path}", file=sys.stderr)
            return 2
        return workers_gate(entries, threshold)

    if len(entries) < 2:
        print(f"bench_compare: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {path}; nothing to compare")
        return 0

    old, new = entries[-2], entries[-1]
    old_rows = {row_key(r): r for r in old.get("rows", [])}
    new_rows = {row_key(r): r for r in new.get("rows", [])}
    print(f"bench_compare: '{old.get('label', '?')}' -> '{new.get('label', '?')}' "
          f"(threshold {threshold:.0%})")
    print(f"  {'op':<16} {'mode':<10} {'old s':>9} {'new s':>9} {'delta':>8}  note")

    regressions = 0
    skipped = 0
    for key in sorted(set(old_rows) | set(new_rows)):
        op, mode = key
        o, n = old_rows.get(key), new_rows.get(key)
        if o is None or n is None:
            which = "old" if n is None else "new"
            print(f"  {op:<16} {mode:<10} {'-':>9} {'-':>9} {'-':>8}  "
                  f"skipped: only in {which} entry")
            skipped += 1
            continue
        os_, ns_ = float(o.get("seconds", 0)), float(n.get("seconds", 0))
        delta = (ns_ - os_) / os_ if os_ > 0 else 0.0
        if o.get("ios") != n.get("ios"):
            print(f"  {op:<16} {mode:<10} {os_:>9.3f} {ns_:>9.3f} {delta:>+7.1%}  "
                  f"skipped: ios changed {o.get('ios')} -> {n.get('ios')}")
            skipped += 1
            continue
        note = ""
        if delta > threshold:
            note = "REGRESSION"
            regressions += 1
        print(f"  {op:<16} {mode:<10} {os_:>9.3f} {ns_:>9.3f} {delta:>+7.1%}  {note}")

    if skipped:
        print(f"bench_compare: {skipped} row(s) skipped (geometry change or unmatched)")
    if regressions:
        print(f"bench_compare: {regressions} regression(s) beyond {threshold:.0%} "
              f"at equal I/Os", file=sys.stderr)
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
