#!/usr/bin/env python3
"""Build the emsplit benchmark and run one workload of it.

    python3 benchmark/run.py --workload splitters --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds
`.bench_build/` (CMake, Release); later calls rebuild incrementally.  The
harness binary writes one JSON line per metric; this script keeps them in
`.bench_build/results/` (the input of benchmark/compare.py) and prints, as
its last line, one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with every `end_to_end` metric of BENCHMARK.json (--trace 0) or every
`per_layer` metric (--trace 1).  It exits non-zero, without that line, when
the build fails or a metric is missing, and non-zero after it when any
answer was wrong.
"""
import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the harness and the CLI it drives."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target", "emsplit_bench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def kill_group(pgid):
    """SIGKILL the harness's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    # SIGTERM unwinds like an exception, so the harness's process group is
    # still killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    kind = "layer" if args.trace else "e2e"
    if not build():
        return 1

    cmd = [str(BUILD / "emsplit_bench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds:g}",
           f"--workdir={BUILD / 'work'}", f"--trace-dir={BUILD / 'trace'}"]
    if args.trace:
        cmd.append("--traced")
    # Its own session: the harness and the server it spawns form one process
    # group, so nothing outlives this script.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        log(f"harness did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        kill_group(proc.pid)

    rows = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            rows.append(json.loads(line))
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.jsonl"
     ).write_text("".join(json.dumps(r) + "\n" for r in rows))

    got = {r["metric"]: r for r in rows
           if r["workload"] == args.workload and r["kind"] == kind}
    checks = {r["metric"]: r["value"] for r in rows
              if r["workload"] == args.workload and r["kind"] == "check"}
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing or "correct" not in checks:
        log(f"harness exited {proc.returncode}; missing: {missing or 'checks'}")
        return 1
    mismatched = [m["name"] for m in wanted if got[m["name"]]["unit"] != m["unit"]]
    if mismatched:
        log(f"units differ from BENCHMARK.json: {mismatched}")
        return 1
    correct = proc.returncode == 0 and checks["correct"] == 1
    print(json.dumps({
        "correct": correct,
        "attempted": int(checks["attempted"]),
        "failed": int(checks["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
