"""Reference figures: medians and spreads over several seeds.

    python3 acesbench/reference.py --seeds 10 [--workload NAME ...] [--trace]

Runs ``run.py`` once per seed (1..N) and workload, one process at a
time, and prints for every end-to-end metric the median of the N values
and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--trace`` it adds one traced run per workload (seed 1) and prints its
per-layer metrics.  Nothing here is a gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int, seconds: float) -> _t.Dict[str, _t.Any]:
    start = time.perf_counter()
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {child.returncode}:\n{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def main(argv: _t.Sequence[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    for name in names:
        results = [run_once(name, seed, 0, seconds) for seed in range(1, args.seeds + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        elapsed = [r["elapsed_s"] for r in results]
        print(
            f"{name}: {args.seeds} runs, {attempted} operations, {failed} failed, "
            f"run time median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s"
        )
        print(f"  {'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}  unit  runs")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            unit = results[0]["metrics"][metric]["unit"]
            print(
                f"  {metric:28s} {median:12.6g} {spread:8.3f} "
                f"{bounds.get(metric, float('nan')):6.2f}  {unit}  "
                + " ".join(f"{value:.4g}" for value in values)
            )
        if args.trace:
            traced = run_once(name, 1, 1, seconds)
            print(f"  traced run (seed 1), {traced['elapsed_s']:.1f} s:")
            for metric, entry in traced["metrics"].items():
                print(f"    {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
