#!/usr/bin/env python3
"""Render a trace file (`--trace=FILE` JSON lines) as a span table.

Every engine-run pass emits one JSON object per line (see pass_trace_json in
em/pass_engine.cpp).  This tool lays the passes out as a timeline — one row
per pass with a proportional span bar — plus the columns that explain where
the cost went: logical I/Os, the pass's in-memory high-water mark, and the shard balance factor (max member share x D; 1.0 = perfectly
even striping).  Distributed passes (run under --workers=W) additionally
list one indented sub-row per worker: its share of the pass's I/O, its busy
seconds, and how long it waited at the closing barrier for the slowest
peer.  Traces written before the worker layer existed simply lack the
"workers" key and render exactly as before.

The splitter service appends QueryTrace rows to the same file (see
query_trace_json in service/splitter_index.cpp); they lead with a "query"
key where pass rows lead with "job".  Query rows are aggregated into a
per-kind summary below the pass timeline: request count, admission
breakdown, logical reads, and p50/p99 service latency.
Below that, a per-epoch summary shows each served epoch's query count,
p50/p99 latency, bucket-cache hit rate (bucket_hits / reads) and summed
admission queueing — traces written before the bucket cache existed simply
lack the "bucket_hits" key and render a "-" hit rate.  A file with only
pass rows renders exactly as before; a file with only query rows skips the
timeline.

Usage:
    tools/trace_view.py [FILE] [--width=40]

FILE defaults to stdin, so both work:
    emsplit sort -n 1M --trace=trace.jsonl && tools/trace_view.py trace.jsonl
    emsplit sort -n 1M --trace=/dev/stdout | tools/trace_view.py

Exit status: 0 = rendered, 2 = bad input.
"""

import json
import sys


def human_bytes(n):
    if n <= 0:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024 or unit == "TiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}TiB"


def load_rows(stream):
    rows = []
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise ValueError(f"line {lineno}: {e}") from e
    return rows


def span_bar(start, dur, total, width):
    """A proportional [start, start+dur) bar on a `width`-char timeline."""
    if total <= 0:
        return "." * width
    lo = round(width * start / total)
    hi = max(lo + 1, round(width * (start + dur) / total))
    hi = min(hi, width)
    return "." * lo + "#" * (hi - lo) + "." * (width - hi)


def percentile(sorted_vals, frac):
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_vals:
        return 0.0
    i = max(0, min(len(sorted_vals) - 1,
                   int(round(frac * (len(sorted_vals) - 1)))))
    return sorted_vals[i]


def render_queries(rows, out=sys.stdout):
    """Aggregate QueryTrace rows into a per-kind summary table."""
    by_kind = {}
    for r in rows:
        by_kind.setdefault(str(r.get("query", "?")), []).append(r)

    print(f"  {'query':<10} {'n':>6} {'admit':>6} {'shed':>5} {'err':>5} "
          f"{'reads':>9} {'p50 ms':>8} {'p99 ms':>8}  epochs",
          file=out)
    for kind, qrows in sorted(by_kind.items()):
        admit = sum(1 for r in qrows
                    if r.get("admission") in ("admit", "queued"))
        shed = sum(1 for r in qrows if r.get("admission") == "shed")
        err = sum(1 for r in qrows if r.get("admission") == "error")
        reads = sum(int(r.get("reads", 0)) for r in qrows)
        lat = sorted(float(r.get("seconds", 0)) for r in qrows
                     if r.get("admission") in ("admit", "queued"))
        p50 = 1e3 * percentile(lat, 0.50)
        p99 = 1e3 * percentile(lat, 0.99)
        epochs = sorted({int(r.get("epoch", 0)) for r in qrows})
        span = (f"{epochs[0]}" if len(epochs) == 1
                else f"{epochs[0]}-{epochs[-1]}") if epochs else "-"
        print(f"  {kind:<10} {len(qrows):>6} {admit:>6} {shed:>5} {err:>5} "
              f"{reads:>9} {p50:>8.3f} {p99:>8.3f}  {span}",
              file=out)

    total = len(rows)
    served = sum(1 for r in rows
                 if r.get("admission") in ("admit", "queued"))
    print(f"  {total} query row(s), {served} served, "
          f"{total - served} rejected", file=out)


def render_epochs(rows, out=sys.stdout):
    """Per-epoch query summary.  The bucket_hits key is newer than the
    query-row format; older traces render a '-' hit rate via the default."""
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(int(r.get("epoch", 0)), []).append(r)
    print(f"  {'epoch':<6} {'n':>6} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'bhit%':>6} {'queue s':>8}", file=out)
    for epoch, qrows in sorted(by_epoch.items()):
        lat = sorted(float(r.get("seconds", 0)) for r in qrows
                     if r.get("admission") in ("admit", "queued"))
        p50 = 1e3 * percentile(lat, 0.50)
        p99 = 1e3 * percentile(lat, 0.99)
        reads = sum(int(r.get("reads", 0)) for r in qrows)
        bhits = sum(int(r.get("bucket_hits", 0)) for r in qrows)
        bhit = f"{100.0 * bhits / reads:.0f}%" if reads else "-"
        queue = sum(float(r.get("queue_seconds", 0)) for r in qrows)
        print(f"  {epoch:<6} {len(qrows):>6} {p50:>8.3f} {p99:>8.3f} "
              f"{bhit:>6} {queue:>8.3f}", file=out)


def render(rows, width, out=sys.stdout):
    timed = [r for r in rows if not r.get("resumed", False)]
    total = sum(float(r.get("seconds", 0)) for r in timed)
    total_io = sum(int(r.get("reads", 0)) + int(r.get("writes", 0))
                   for r in timed)

    header = (f"  {'#':>2} {'job/pass':<28} {'reads':>9} {'writes':>9} "
              f"{'hwm':>9} {'bal':>5} {'secs':>8}  "
              f"timeline ({total:.3f}s total)")
    print(header, file=out)
    start = 0.0
    for r in rows:
        # Pass labels usually embed the job prefix already ("dsort/partition"
        # under job "dsort"); only prepend when they don't.
        job, label = r.get("job", "?"), r.get("pass", "?")
        name = label if label.startswith(job) else f"{job}/{label}"
        if len(name) > 28:
            name = name[:27] + "…"
        if r.get("resumed", False):
            print(f"  {r.get('index', 0):>2} {name:<28} "
                  f"{'-':>9} {'-':>9} {'-':>9} {'-':>5} {'-':>8}  "
                  f"[resumed from checkpoint]", file=out)
            continue
        secs = float(r.get("seconds", 0))
        balance = r.get("balance", 1.0)
        bal = f"{balance:.2f}" if r.get("shards") else "-"
        bar = span_bar(start, secs, total, width)
        print(f"  {r.get('index', 0):>2} {name:<28} "
              f"{int(r.get('reads', 0)):>9} {int(r.get('writes', 0)):>9} "
              f"{human_bytes(int(r.get('hwm_bytes', 0))):>9} "
              f"{bal:>5} {secs:>8.3f}  {bar}", file=out)
        for w in r.get("workers", []):
            wname = f"└ worker {int(w.get('id', 0))}"
            wait = float(w.get("barrier_seconds", 0.0))
            print(f"     {wname:<28} "
                  f"{int(w.get('reads', 0)):>9} {int(w.get('writes', 0)):>9} "
                  f"{'-':>9} {'-':>5} "
                  f"{float(w.get('seconds', 0.0)):>8.3f}  "
                  f"barrier wait {wait:.3f}s", file=out)
        start += secs

    shards = max((len(r.get("shards", [])) for r in rows), default=0)
    workers = max((len(r.get("workers", [])) for r in rows), default=0)
    tail = f"  {len(rows)} pass(es), {total_io} logical I/Os, {total:.3f}s"
    if shards:
        tail += f", {shards} shard(s)"
    if workers:
        tail += f", {workers} worker(s)"
    resumed = sum(1 for r in rows if r.get("resumed", False))
    if resumed:
        tail += f", {resumed} resumed"
    print(tail, file=out)


def main(argv):
    path = None
    width = 40
    for arg in argv[1:]:
        if arg.startswith("--width="):
            width = max(10, int(arg.split("=", 1)[1]))
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        elif arg.startswith("-") and arg != "-":
            print(f"trace_view: unknown flag {arg!r}", file=sys.stderr)
            return 2
        else:
            path = arg

    try:
        if path is None or path == "-":
            rows = load_rows(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as f:
                rows = load_rows(f)
    except (OSError, ValueError) as e:
        print(f"trace_view: cannot read {path or 'stdin'}: {e}",
              file=sys.stderr)
        return 2

    if not rows:
        print("trace_view: no trace rows")
        return 0
    passes = [r for r in rows if "query" not in r]
    queries = [r for r in rows if "query" in r]
    if passes:
        render(passes, width)
    if queries:
        if passes:
            print()
        render_queries(queries)
        print()
        render_epochs(queries)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
