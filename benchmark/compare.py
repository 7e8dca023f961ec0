#!/usr/bin/env python3
"""Compare two sets of emsplit benchmark results.

    python3 benchmark/compare.py BASE... --new NEW... [--same]

BASE and NEW are each a directory of result files or a list of them (the
JSON-lines files run.py keeps in .bench_build/results/, or
benchmark/baseline/).  One file is one run; run i of BASE pairs with run i
of NEW, in sorted file-name order, so alternate the sides when running.

For every workload x metric the table shows each side's median and
quartiles, the change of the medians, and the share of pairs NEW wins.
End-to-end metrics get a verdict with the bounds of BENCHMARK.json:

  improved    NEW wins >= 90% of the pairs and its median beats BASE's by
              more than BASE's own quartile spread;
  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  either side's quartile spread exceeds the bound, unless every
              NEW run is better (improved) or worse (worse) than every BASE
              run;
  unchanged   otherwise.

--same checks two sets of the same code instead (the repeat check): it
fails when any end-to-end median moved by more than its bound or any exact
count (block I/Os, reads, writes) differs.  Exit status 1 on a failed
repeat check, or on any "worse" verdict without --same.
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Counts the program makes that must repeat exactly for the same seed.
EXACT = {"block_ios", "reads", "writes", "em.reads", "em.writes"}


def load(paths):
    """[(file, [rows])] for the files named or found under directories."""
    files = []
    for p in map(pathlib.Path, paths):
        files.extend(sorted(p.rglob("*.jsonl")) if p.is_dir() else [p])
    runs = []
    for f in files:
        rows = [json.loads(line) for line in f.read_text().splitlines()
                if line.startswith("{")]
        runs.append((f, rows))
    return runs


def collect(runs, kinds):
    """{(workload, metric): [value per run]} and the metrics' units."""
    values, units = {}, {}
    for _, rows in runs:
        for r in rows:
            if r["kind"] in kinds:
                key = (r["workload"], r["metric"])
                values.setdefault(key, []).append(r["value"])
                units[key] = r["unit"]
    return values, units


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    gain = sign * (mn - mb) / abs(mb) if mb else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    all_worse = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        if all_better:
            return "improved", wins, len(pairs)
        return ("worse" if all_worse else "unresolved"), wins, len(pairs)
    if gain > spread(base) and wins >= 0.9 * len(pairs):
        return "improved", wins, len(pairs)
    if -gain > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+", help="BASE result files or directories")
    ap.add_argument("--new", nargs="+", required=True, help="NEW files/dirs")
    ap.add_argument("--same", action="store_true",
                    help="repeat check: both sets come from the same code")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(pathlib.Path(args.bench).read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base_runs, new_runs = load(args.base), load(args.new)
    kinds = ("e2e", "layer", "detail")
    base, units = collect(base_runs, kinds)
    new, _ = collect(new_runs, kinds)
    print(f"BASE: {len(base_runs)} run files   NEW: {len(new_runs)} run files")
    print(f"{'workload':<14}{'metric':<36}{'unit':<9}{'base median [q1, q3]':<40}"
          f"{'new median [q1, q3]':<40}{'change':>8} {'wins':>6}  verdict")
    failed = False
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        b, n = base[key], new[key]
        if metric not in e2e and metric not in layer and metric not in EXACT:
            continue
        qb, qn = quartiles(b), quartiles(n)
        change = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
        if metric in e2e:
            m = e2e[metric]
            word, wins, pairs = verdict(b, n, m["better"], m["bound"])
            if args.same:
                word = "agree" if abs(change) <= m["bound"] else "DISAGREE"
                failed |= word == "DISAGREE"
            else:
                failed |= word == "worse"
            word += f" (bound {m['bound']:g})"
        elif metric in EXACT:
            wins, pairs = 0, 0
            word = "exact" if sorted(b) == sorted(n) else "DIFFERS"
            failed |= args.same and word == "DIFFERS"
        else:
            _, wins, pairs = verdict(b, n, layer[metric]["better"], 1.0)
            word = "layer"
        print(f"{workload:<14}{metric:<36}{units[key]:<9}"
              f"{fmt(qb[1]) + ' [' + fmt(qb[0]) + ', ' + fmt(qb[2]) + ']':<40}"
              f"{fmt(qn[1]) + ' [' + fmt(qn[0]) + ', ' + fmt(qn[2]) + ']':<40}"
              f"{change:>+8.1%} {f'{wins}/{pairs}':>6}  {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
