"""Benchmark of the ACES reproduction: one workload per invocation.

    python3 acesbench/run.py --workload steady-calibration --seed 1 \\
        --seconds 10 --trace 0

runs whole rounds of the workload's operation until ``--seconds`` have
passed (at least one round), checks every operation's outputs, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of untraced runs; ``--trace 1`` runs the workload once untraced
and once traced and reports the per-layer metrics.  ``--workload all``
runs every workload, each in its own process.

Run it from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
import typing as _t

# One BLAS thread: the solvers' numpy calls are small, and a thread
# pool sized to the host makes both their timing and their rounding
# depend on how many cores the host has.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "model_s_per_wall_s": "model-s/s",
    "host_cpu_s_per_model_s": "cpu-s/model-s",
    "delivered_sdos_per_wall_s": "SDO/s",
    "weighted_utility": "utility",
    "latency_p50_s": "model-s",
    "latency_p99_s": "model-s",
    "peak_rss_mib": "MiB",
}


def reference_score() -> float:
    """Iterations per second of a fixed pure-Python loop (host speed)."""
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += (k * k) % 7
        best = max(best, 200_000 / (time.perf_counter() - start))
    return best


def provenance() -> _t.Dict[str, object]:
    """Where a result came from: code, host and interpreter."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "reference_loop_iter_per_s": round(reference_score(), 1),
    }


def parse(argv: _t.Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args: argparse.Namespace, names: _t.Sequence[str]) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    metrics: _t.Dict[str, _t.Dict[str, object]] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        child = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: _t.Sequence[str]) -> int:
    args = parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SOURCE}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import traced
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)} or 'all'",
            file=sys.stderr,
        )
        return 2

    print(json.dumps({"provenance": provenance(), "workload": workload.name, "seed": args.seed}))
    if args.trace:
        result = traced.run_traced(workload, args.seed)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def sample_setups(
    workload: _t.Any, api: _t.Any, subseed: int, seconds: _t.List[float]
) -> _t.Any:
    """Set up at least once, and until half the set-up budget has passed.

    Appends each set-up's duration to ``seconds`` and returns the last
    set-up; the others are dropped at once, so they add nothing to the
    run's peak memory.
    """
    start = time.perf_counter()
    while True:
        setup = workload.setup(api, subseed)
        seconds.append(setup.seconds)
        if time.perf_counter() - start >= workload.setup_seconds / 2:
            return setup


def run_untraced(
    workload: _t.Any, seed: int, seconds: float, api: _t.Any = None
) -> _t.Dict[str, object]:
    """Whole rounds until ``seconds`` pass; end-to-end metrics."""
    import workloads

    if api is None:
        api = workloads.public_api()
    subseeds = workload.subseeds(seed)
    # Set-up is timed in two bursts, before and after the operations, so
    # that its median samples the host at both ends of the run.
    setup_seconds: _t.List[float] = []
    setup = sample_setups(workload, api, subseeds[0], setup_seconds)
    setup_problems = workload.run_checks(setup)
    problems: _t.List[str] = []

    ops = []
    failed = 0
    start = time.perf_counter()
    while True:
        for subseed in subseeds:
            system = (
                setup.system
                if not ops
                else workload.build(setup.topology, setup.targets, subseed, None)
            )
            op = workload.operate(api, setup, system)
            if not ops:
                op.problems = setup_problems + op.problems
            if op.problems:
                failed += 1
                problems += op.problems
            # Keep only what the metrics need, so peak memory does not
            # grow with the number of rounds a run fits in.
            op.system = op.report = None
            if len(ops) >= len(subseeds):
                op.latencies = []
            ops.append(op)
        if time.perf_counter() - start >= seconds:
            break
    setup = None
    sample_setups(workload, api, subseeds[0], setup_seconds)
    metrics = workloads.summarize(setup_seconds, ops[: len(subseeds)], ops)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
