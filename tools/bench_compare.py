#!/usr/bin/env python3
"""Compare the two most recent entries of a bench trajectory file.

BENCH_wallclock.json accumulates one labelled entry per bench invocation
(see JsonEmitter::append_entry).  This tool diffs the latest entry against
the one before it, matching rows on (op, mode), and fails (exit 1) when any
matched row regresses in wall-clock time by more than --threshold while
performing the *same* number of I/Os.  Rows whose I/O counts differ are a
geometry change, not a perf regression — they are reported and skipped, as
are rows present in only one entry.

With --workers the tool gates the multi-process legs of the latest entry:
for every op with workersN rows, all of them must report identical logical
I/O counts AND identical output checksums (W is geometry, never output —
both are hard failures at any threshold), and each workersN row's
wall-clock must stay within --threshold of the same op's workers1 row (on
a single-core host the distributed path cannot win wall-clock; the gate
only forbids it costing more than coordination overhead should).

With --supervision the tool gates the supervised legs of the latest entry:
every "<mode>+sup" row (the round supervisor armed — poll-driven drain,
frame checksums, retry budget — with zero faults injected) must match its
unsupervised "<mode>" sibling's logical I/O count and output checksum
exactly, report worker_retries = 0 (nothing was re-executed), and stay
within --threshold of the sibling's wall-clock: supervision at zero faults
is pure bookkeeping, never a tax.

With --service the tool gates the resident-server legs of the latest entry
(op == "service"): every leg answers the same fixed query mix, so all legs
must report identical per-query I/O sums and identical answer checksums
(clients and pipelining are load, never output — hard failures at any
threshold), no leg may shed a query or fail a check (shed == 0, ok true),
and every leg's wall-clock must stay within --threshold of the
single-client baseline (clients == 1, no pipelined batch; on a single-core
host concurrency cannot win, the gate only forbids contention costing more
than scheduling overhead should).

Usage:
    tools/bench_compare.py [FILE] [--threshold=0.10] [--workers]
                           [--supervision] [--service]

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


def supervision_gate(entries, threshold):
    """Gate the latest entry's supervised legs (see module docstring)."""
    new = entries[-1]
    rows = new.get("rows", [])
    print(f"bench_compare: supervision gate on '{new.get('label', '?')}' "
          f"(threshold {threshold:.0%})")

    failures = 0

    def fail(msg):
        nonlocal failures
        failures += 1
        print(f"  FAIL {msg}", file=sys.stderr)

    checked = 0
    for r in rows:
        mode = str(r.get("mode", ""))
        if not mode.endswith("+sup"):
            continue
        op = r.get("op", "?")
        base_mode = mode[:-len("+sup")]
        base = next((b for b in rows
                     if b.get("op") == op and b.get("mode") == base_mode),
                    None)
        if base is None:
            fail(f"{op}/{mode}: no unsupervised '{base_mode}' sibling")
            continue
        checked += 1
        # Hard gates: supervision is bookkeeping, never geometry or output.
        if r.get("ios") != base.get("ios"):
            fail(f"{op}/{mode}: ios {r.get('ios')} != {base_mode} "
                 f"ios {base.get('ios')}")
        if r.get("checksum") != base.get("checksum"):
            fail(f"{op}/{mode}: checksum diverged from {base_mode}")
        if r.get("worker_retries", 0) != 0:
            fail(f"{op}/{mode}: worker_retries="
                 f"{r.get('worker_retries')} with no faults injected")
        bs, ns = float(base.get("seconds", 0)), float(r.get("seconds", 0))
        if bs > 0 and ns > bs * (1.0 + threshold):
            fail(f"{op}/{mode}: {ns:.3f}s exceeds {base_mode} "
                 f"{bs:.3f}s by more than {threshold:.0%}")
        else:
            print(f"    ok {op}/{mode}: {ns:.3f}s vs {base_mode} "
                  f"{bs:.3f}s at equal ios, worker_retries=0")

    if checked == 0:
        print("bench_compare: no +sup rows in the latest entry",
              file=sys.stderr)
        return 1
    if failures:
        print(f"bench_compare: supervision gate failed "
              f"({failures} check(s))", file=sys.stderr)
        return 1
    print(f"bench_compare: supervision gate passed ({checked} row(s))")
    return 0


def service_gate(entries, threshold):
    """Gate the latest entry's service legs (see module docstring)."""
    new = entries[-1]
    rows = [r for r in new.get("rows", []) if r.get("op") == "service"]
    print(f"bench_compare: service gate on '{new.get('label', '?')}' "
          f"(threshold {threshold:.0%})")

    failures = 0

    def fail(msg):
        nonlocal failures
        failures += 1
        print(f"  FAIL {msg}", file=sys.stderr)

    if not rows:
        print("bench_compare: no service rows in the latest entry",
              file=sys.stderr)
        return 1

    base = next((r for r in rows
                 if r.get("clients") == 1 and r.get("batch", 0) == 0), None)
    if base is None:
        fail("no single-client baseline leg")
        base = rows[0]
    bs = float(base.get("seconds", 0))

    checked = 0
    for r in rows:
        mode = r.get("mode", "?")
        checked += 1
        # Hard gates: every leg answers the same mix with the same reads
        # and the same bytes, and serves all of it.
        if r.get("ios") != base.get("ios"):
            fail(f"service/{mode}: ios {r.get('ios')} != baseline "
                 f"ios {base.get('ios')}")
        if r.get("checksum") != base.get("checksum"):
            fail(f"service/{mode}: answer checksum diverged from baseline")
        if r.get("shed", 0) != 0:
            fail(f"service/{mode}: shed {r.get('shed')} query(ies)")
        if not r.get("ok", False):
            fail(f"service/{mode}: in-binary check failed (ok false)")
        if r is base:
            print(f"    ok service/{mode}: baseline {bs:.3f}s "
                  f"({float(r.get('qps', 0)):.0f} qps, "
                  f"p99 {1e3 * float(r.get('p99_seconds', 0)):.3f}ms)")
            continue
        ns = float(r.get("seconds", 0))
        if bs > 0 and ns > bs * (1.0 + threshold):
            fail(f"service/{mode}: {ns:.3f}s exceeds baseline "
                 f"{bs:.3f}s by more than {threshold:.0%}")
        else:
            print(f"    ok service/{mode}: {ns:.3f}s vs baseline {bs:.3f}s "
                  f"({float(r.get('qps', 0)):.0f} qps, "
                  f"p99 {1e3 * float(r.get('p99_seconds', 0)):.3f}ms)")

    if failures:
        print(f"bench_compare: service gate failed ({failures} check(s))",
              file=sys.stderr)
        return 1
    print(f"bench_compare: service gate passed ({checked} row(s))")
    return 0


def main(argv):
    path = "BENCH_wallclock.json"
    threshold = 0.10
    workers = False
    supervision = False
    service = False
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--workers":
            workers = True
        elif arg == "--supervision":
            supervision = True
        elif arg == "--service":
            service = True
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

    if workers or supervision or service:
        if not entries:
            print(f"bench_compare: no entries in {path}", file=sys.stderr)
            return 2
        rc = 0
        if workers:
            rc = workers_gate(entries, threshold) or rc
        if supervision:
            rc = supervision_gate(entries, threshold) or rc
        if service:
            rc = service_gate(entries, threshold) or rc
        return rc

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
