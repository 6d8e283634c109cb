"""Self-test of the benchmark's checks: each one can fail.

    python3 acesbench/selftest.py

For every check, a short run of the benchmark's own pipeline is made
twice: once as is, where no operation may fail, and once with a
deliberately corrupted input, where the operation must come out failed
with the expected problem.  The corruptions are made on the benchmark's
side of the API; no program file is touched.  Exits 0 when every case
behaves.
"""

from __future__ import annotations

import sys
import typing as _t

import run

sys.path.insert(0, str(run.SOURCE))

import repro  # noqa: E402
import workloads  # noqa: E402


class ShortCalibration(workloads.SteadyCalibration):
    """The calibration workload cut to a few model-seconds, two set-ups."""

    setup_seconds = 0.0
    round_size = 1
    warmup = 1.0
    duration = 3.0


class OvercommittedTargets(ShortCalibration):
    """Tier-1 targets with one node's CPU shares summing above 1."""

    def allocate(self, api: _t.Any, topology: _t.Any) -> _t.Any:
        targets, rates = super().allocate(api, topology)
        pe_id = topology.graph.pe_ids[0]
        cpu = dict(targets.cpu)
        cpu[pe_id] += 1.0
        profile = topology.graph.profile(pe_id)
        rate_in = dict(targets.rate_in)
        rate_out = dict(targets.rate_out)
        rate_in[pe_id] = max(0.0, profile.rate_slope * cpu[pe_id] - profile.overhead)
        rate_out[pe_id] = profile.lambda_m * rate_in[pe_id]
        return repro.AllocationTargets(cpu=cpu, rate_in=rate_in, rate_out=rate_out), rates


def ledger_missing_one() -> _t.Any:
    """An API whose conservation check sees one accepted SDO vanish."""
    api = workloads.public_api()
    check = api.check_conservation

    def corrupted(system: _t.Any) -> _t.Any:
        runtime = next(iter(system.runtimes.values()))
        runtime.buffer.telemetry.accepted -= 1
        return check(system)

    api.check_conservation = corrupted
    return api


class ArmedCalibration(ShortCalibration):
    """Short calibration run with the strict oracles and spans armed."""

    armed = True


class InflatedSpan(ArmedCalibration):
    """One measured egress SDO reaches the span tracker with a second too
    much queueing (warm-up spans are discarded at the window start)."""

    def build(self, topology: _t.Any, targets: _t.Any, subseed: int, profiler: _t.Any) -> _t.Any:
        system = super().build(topology, targets, subseed, profiler)
        spans = system.spans
        observe = spans.observe_egress
        inflated: _t.List[bool] = []

        def observe_egress(pe_id: str, sdo: _t.Any, now: float) -> None:
            if not inflated and sdo.span is not None and now > self.warmup:
                sdo.span[0] += 1.0
                inflated.append(True)
            observe(pe_id, sdo, now)

        spans.observe_egress = observe_egress
        return system


class ShortThreaded(workloads.ThreadedCalibration):
    setup_seconds = 0.0
    warmup = 0.5
    duration = 1.5


class DeadWorker(ShortThreaded):
    """One worker killed mid-run and not allowed a restart."""

    def build(self, topology: _t.Any, targets: _t.Any, subseed: int, profiler: _t.Any) -> _t.Any:
        return repro.SPCRuntime(
            topology,
            repro.policy_by_name("aces"),
            targets=targets,
            config=repro.RuntimeConfig(
                seed=subseed, warmup=self.warmup, dilation=1.0,
                max_worker_restarts=0,
            ),
        )

    def operate(self, api: _t.Any, setup: _t.Any, runtime: _t.Any, observer: _t.Any = None) -> _t.Any:
        killed: _t.List[str] = []

        def kill_one(live: _t.Any) -> None:
            if not killed:
                pe_id = sorted(live.pes)[0]
                live.pes[pe_id].kill()
                killed.append(pe_id)

        return super().operate(api, setup, runtime, observer=kill_one)


#: (name, clean workload, corrupted workload, corrupted api, expected problem)
CASES = (
    ("Tier-1 target over node capacity", ShortCalibration(), OvercommittedTargets(), None, "(Eq. 4)"),
    ("SDO missing from the ledger", ShortCalibration(), ShortCalibration(), ledger_missing_one, "ledger:"),
    ("inflated span segment", ArmedCalibration(), InflatedSpan(), None, "span closure"),
    ("dead worker", ShortThreaded(), DeadWorker(), None, "abandoned"),
)


def main() -> int:
    ok = True
    for name, clean, corrupt, make_api, expected in CASES:
        baseline = run.run_untraced(clean, seed=1, seconds=0.0)
        result = run.run_untraced(
            corrupt, seed=1, seconds=0.0, api=make_api() if make_api else None
        )
        caught = result["failed"] == result["attempted"] == 1 and any(
            expected in problem for problem in result["problems"]
        )
        passed = baseline["failed"] == 0 and caught
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: clean run failed "
              f"{baseline['failed']}/{baseline['attempted']}, corrupted run "
              f"failed {result['failed']}/{result['attempted']}")
        for problem in result["problems"][:3]:
            print(f"       {problem}")
        if baseline["failed"]:
            print(f"       clean run: {baseline['problems'][:3]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
