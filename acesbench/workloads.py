"""The benchmark's four workloads and the operation each one repeats.

A workload fixes a topology (generated from :data:`TOPOLOGY_SEED`, so
every seed runs the same processing graph) and a system configuration.
The ``--seed`` of a run picks the system's random streams: the arrival
process of every source and every PE's service-state process.  One
operation is one system run together with its checks; a round is
:attr:`Workload.round_size` operations with the sub-seeds derived from
the run's seed, and a run repeats whole rounds.

Every source is open loop: simulated sources draw their arrivals from
their own random streams, threaded sources sleep on their own schedule,
and neither waits on the system.
"""

from __future__ import annotations

import statistics
import threading
import time
import types
import typing as _t
from dataclasses import dataclass, replace

import numpy as np

import repro
from repro.check import OracleRecorder, check_conservation
from repro.control.elastic import ElasticityConfig
from repro.experiments.admission import bench_admission_config
from repro.experiments.forecast import bench_forecast_config
from repro.graph.topology import paper_calibration_spec, paper_main_spec
from repro.obs.spans import SpanTracker

import checks

#: Seed of every workload's topology: the graph is the system under
#: test, the seed of a run varies only the traffic it carries.
TOPOLOGY_SEED = 0


def public_api() -> types.SimpleNamespace:
    """The program entry points a workload calls (the tracer wraps these)."""
    return types.SimpleNamespace(
        generate_topology=repro.generate_topology,
        solve_global_allocation=repro.solve_global_allocation,
        fair_share_targets=repro.fair_share_targets,
        check_conservation=check_conservation,
    )


@dataclass
class Setup:
    """One set-up: topology, Tier-1 targets and the first system."""

    topology: _t.Any
    targets: _t.Any
    #: Source rates the targets were solved for (None: fair share).
    rates: _t.Optional[_t.Mapping[str, float]]
    system: _t.Any
    seconds: float


@dataclass
class Operation:
    """The measured outcome of one operation."""

    model_s: float
    #: Wall seconds of the ``run`` call, teardown included.
    wall_s: float
    #: Process CPU seconds over the ``run`` call (all threads).
    cpu_s: float
    delivered: int
    utility: float
    latencies: _t.List[float]
    problems: _t.List[str]
    system: _t.Any
    report: _t.Any


def capture_egress(collector: _t.Any) -> _t.List[_t.Tuple[float, float]]:
    """Record ``(latency, model time)`` of every SDO the collector sees.

    The list restarts whenever the collector resets, so after a run it
    holds exactly the measured window.
    """
    samples: _t.List[_t.Tuple[float, float]] = []
    record = collector.record
    reset = collector.reset

    def recording(pe_id: str, sdo: _t.Any, now: float) -> None:
        samples.append((now - sdo.origin_time, now))
        record(pe_id, sdo, now)

    def resetting(now: float) -> None:
        samples.clear()
        reset(now)

    collector.record = recording
    collector.reset = resetting
    return samples


def capture_solves(tier1: _t.Any) -> _t.List[_t.Tuple[_t.Any, ...]]:
    """Keep the inputs and result of every Tier-1 solve a system makes."""
    solves: _t.List[_t.Tuple[_t.Any, ...]] = []
    solver = tier1.solver

    def solving(graph: _t.Any, placement: _t.Any, rates: _t.Any, **kw: _t.Any) -> _t.Any:
        result = solver(graph, placement, rates, **kw)
        solves.append((dict(placement), dict(rates), result.targets))
        return result

    tier1.solver = solving
    return solves


class Workload:
    """Base: generate, allocate, build, run, check."""

    name = ""
    why = ""
    #: Wall seconds a run spends setting up, half before and half after
    #: its operations, at least one set-up each; ``setup_s`` is their
    #: median.
    setup_seconds = 3.0
    #: Operations per round (each with its own sub-seed).
    round_size = 1
    #: Modelled seconds per operation: warm-up plus measured window.
    warmup: float
    duration: float

    def subseeds(self, seed: int) -> _t.List[int]:
        return [seed * 100 + k + 1 for k in range(self.round_size)]

    def generate(self, api: _t.Any) -> _t.Any:
        return api.generate_topology(
            paper_calibration_spec(), np.random.default_rng(TOPOLOGY_SEED)
        )

    def allocate(
        self, api: _t.Any, topology: _t.Any
    ) -> _t.Tuple[_t.Any, _t.Optional[_t.Mapping[str, float]]]:
        rates = dict(topology.source_rates)
        result = api.solve_global_allocation(
            topology.graph, topology.placement, rates
        )
        return result.targets, rates

    def setup(self, api: _t.Any, subseed: int, profiler: _t.Any = None) -> Setup:
        start = time.perf_counter()
        topology = self.generate(api)
        targets, rates = self.allocate(api, topology)
        system = self.build(topology, targets, subseed, profiler)
        seconds = time.perf_counter() - start
        return Setup(topology, targets, rates, system, seconds)

    def build(
        self, topology: _t.Any, targets: _t.Any, subseed: int, profiler: _t.Any
    ) -> _t.Any:
        raise NotImplementedError

    def operate(self, api: _t.Any, setup: Setup, system: _t.Any) -> Operation:
        raise NotImplementedError

    def run_checks(self, setup: Setup) -> _t.List[str]:
        """Checks made once per run on the set-up's output."""
        problems = checks.tier1_feasibility(
            setup.topology.graph,
            setup.topology.placement,
            setup.rates,
            setup.targets,
        )
        if setup.rates is not None:
            problems += checks.tier1_optimality(
                setup.topology.graph,
                setup.topology.placement,
                setup.rates,
                setup.targets,
            )
        return problems


class SimWorkload(Workload):
    """A workload on the discrete-event simulator."""

    #: Arm the strict invariant oracles and the latency spans.
    armed = False

    def config(self, subseed: int) -> repro.SystemConfig:
        return repro.SystemConfig(seed=subseed, warmup=self.warmup)

    def build(
        self, topology: _t.Any, targets: _t.Any, subseed: int, profiler: _t.Any
    ) -> _t.Any:
        recorder = OracleRecorder(strict=True) if self.armed else None
        spans = SpanTracker(recorder=recorder) if self.armed else None
        system = repro.SimulatedSystem(
            topology,
            repro.policy_by_name("aces"),
            targets=targets,
            config=self.config(subseed),
            recorder=recorder,
            profiler=profiler,
            spans=spans,
        )
        if recorder is not None:
            recorder.attach_plane(system.plane)
        return system

    def operate(self, api: _t.Any, setup: Setup, system: _t.Any) -> Operation:
        egress = capture_egress(system.collector)
        solves = capture_solves(system.tier1)
        cpu = time.process_time()
        start = time.perf_counter()
        report = system.run(self.duration)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu

        graph = setup.topology.graph
        problems: _t.List[str] = []
        for placement, rates, targets in solves:
            problems += checks.tier1_feasibility(graph, placement, rates, targets)
        oracle = system.recorder.finalize() if self.armed else None
        problems += checks.simulator_problems(
            report, api.check_conservation(system), oracle, system.spans
        )
        latencies = [latency for latency, _now in egress]
        problems += checks.latency_problems(
            latencies, report.total_output_sdos, report.latency_percentiles
        )
        return Operation(
            model_s=self.warmup + self.duration,
            wall_s=wall,
            cpu_s=cpu,
            delivered=report.total_output_sdos,
            utility=report.weighted_utility,
            latencies=latencies,
            problems=problems,
            system=system,
            report=report,
        )


class SteadyCalibration(SimWorkload):
    name = "steady-calibration"
    why = (
        "paper's 60-PE/10-node calibration topology, bursty on/off sources, "
        "scalar per-node Tier-2 loops: the kernel and Tier-2 step do the work"
    )
    round_size = 2
    warmup = 5.0
    duration = 55.0


class ScaleX10Vector(SimWorkload):
    name = "scale-x10-vector"
    why = (
        "main topology x10 (2,000 PEs, 800 nodes), vector Tier-2 engine in 8 "
        "phase buckets: topology generation and the array engine dominate"
    )
    #: Topology generation takes about 6 s here, so a run sets up twice;
    #: with two operations of 2.4 model-s (about 11 s each) it takes
    #: about 40 s.
    round_size = 2
    warmup = 0.2
    duration = 2.2

    def generate(self, api: _t.Any) -> _t.Any:
        spec = paper_main_spec(
            num_nodes=800,
            num_ingress=400,
            num_egress=400,
            num_intermediate=1200,
            calibrate_rates=False,
        )
        return api.generate_topology(spec, np.random.default_rng(TOPOLOGY_SEED))

    def allocate(self, api: _t.Any, topology: _t.Any) -> _t.Tuple[_t.Any, None]:
        return api.fair_share_targets(topology.graph, topology.placement), None

    def config(self, subseed: int) -> repro.SystemConfig:
        return repro.SystemConfig(
            seed=subseed,
            warmup=self.warmup,
            dt=0.02,
            control_impl="vector",
            control_phase_buckets=8,
        )


#: Autoscaler of ``surge-elastic``: the elasticity bench's tuning with a
#: migration cap of 8, so a node holding at most 8 PEs can be evacuated,
#: and a ceiling of 5 nodes.  The cluster starts at 10, so the policy
#: only scales in (10 -> 5 by t = 7.5 s); the ceiling keeps the surge
#: from growing it again.
SURGE_ELASTICITY = ElasticityConfig(
    scale_out_pressure=0.65,
    scale_in_pressure=0.3,
    min_nodes=2,
    max_nodes=5,
    check_interval=0.5,
    dwell_intervals=2,
    cooldown=1.5,
    max_migrations_per_epoch=8,
    placement_evaluations=3,
)

#: Admission of ``surge-elastic``: the admission bench's ladder with a
#: REJECT threshold no pressure reaches.  The ladder sheds but never
#: rejects, so the sources keep offering the surge and the forecaster,
#: which counts offers, sees it.
SURGE_ADMISSION = replace(
    bench_admission_config(), enter=(0.25, 0.4, 1e9), exit=(0.15, 0.3, 1e8)
)

#: Forecaster of ``surge-elastic``: the forecast bench's Holt-Winters
#: tuning, firing once, six samples (1.5 s) into the surge.
SURGE_FORECAST = replace(
    bench_forecast_config(), headroom=2.0, dwell_ticks=6, cooldown=30.0
)


class SurgeElastic(SimWorkload):
    """The calibration topology under a x100 flash crowd, every tier armed.

    The surge starts once the autoscaler has finished scaling in, so the
    Tier-1 re-solves that follow each scale-in see the same placements
    and rates whatever the seed.  The proactive re-solve the forecaster
    fires sees predicted rates near 100x the provisioned ones; from
    about that scale up, SLSQP gives up on every draw of the arrivals,
    so each run makes the same two projected-gradient fallbacks (the
    fifth scale-in's and the proactive one).  At x5 or x20 whether the
    proactive solve falls back depends on the draw, and a run then
    takes either about 20 s or about 40 s.
    """

    name = "surge-elastic"
    why = (
        "calibration topology, x100 flash crowd, admission, autoscaler, "
        "forecaster, strict oracles and spans armed: Tier-1 re-solves, "
        "migrations and the tiers do the work"
    )
    armed = True
    warmup = 1.0
    #: The surge ends at 13 s; the 12 s after it let the latency
    #: distribution settle (p50 across seeds spread 16% with 4 s of tail,
    #: 10% with 12 s).
    duration = 24.0
    surge_start = 9.0
    surge_length = 4.0

    def config(self, subseed: int) -> repro.SystemConfig:
        return repro.SystemConfig(
            dt=0.02,
            seed=subseed,
            warmup=self.warmup,
            source_kind="flashcrowd",
            source_surge_start=self.surge_start,
            source_surge_duration=self.surge_length,
            source_surge_factor=100.0,
            admission=SURGE_ADMISSION,
            elasticity=SURGE_ELASTICITY,
            forecast=SURGE_FORECAST,
        )


class ThreadedCalibration(Workload):
    name = "threaded-calibration"
    why = (
        "calibration topology on the threaded runtime (dilation 1): the only "
        "workload that runs repro.runtime's worker, control and source threads"
    )
    round_size = 1
    warmup = 1.0
    duration = 5.0
    #: Seconds to wait for the runtime's threads after ``run`` returns.
    join_timeout = 30.0

    def build(
        self, topology: _t.Any, targets: _t.Any, subseed: int, profiler: _t.Any
    ) -> _t.Any:
        return repro.SPCRuntime(
            topology,
            repro.policy_by_name("aces"),
            targets=targets,
            config=repro.RuntimeConfig(
                seed=subseed, warmup=self.warmup, dilation=1.0
            ),
        )

    def operate(
        self,
        api: _t.Any,
        setup: Setup,
        runtime: _t.Any,
        observer: _t.Optional[_t.Callable[[_t.Any], None]] = None,
    ) -> Operation:
        egress = capture_egress(runtime.collector)
        before = set(threading.enumerate())
        cpu = time.process_time()
        start = time.perf_counter()
        if observer is None:
            report = runtime.run(self.duration)
        else:
            report = runtime.run(self.duration, observer=observer, observe_interval=0.25)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        lingering = join_new_threads(before, self.join_timeout)

        graph = setup.topology.graph
        window = report.duration
        utility = sum(
            graph.profile(pe_id).weight * np.log1p(count / window)
            for pe_id, count in report.per_egress_counts.items()
        )
        problems = checks.threaded_problems(runtime, report, egress, lingering)
        latencies = [latency for latency, _now in egress]
        problems += checks.latency_problems(
            latencies, report.total_output_sdos, report.latency_percentiles
        )
        return Operation(
            model_s=self.warmup + self.duration,
            wall_s=wall,
            cpu_s=cpu,
            delivered=report.total_output_sdos,
            utility=float(utility),
            latencies=latencies,
            problems=problems,
            system=runtime,
            report=report,
        )


def join_new_threads(before: _t.Set[threading.Thread], timeout: float) -> _t.List[str]:
    """Wait for every thread started since ``before``; name the stragglers."""
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread in before or thread is threading.current_thread():
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread not in before and thread.is_alive()
    )


WORKLOADS: _t.Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SteadyCalibration(),
        ScaleX10Vector(),
        SurgeElastic(),
        ThreadedCalibration(),
    )
}


def summarize(
    setup_seconds: _t.Sequence[float],
    round_ops: _t.Sequence[Operation],
    ops: _t.Sequence[Operation],
) -> _t.Dict[str, float]:
    """The end-to-end metrics of one run.

    Model outputs (utility, latency) pool the first round, which every
    run of a seed repeats exactly on the simulator; host figures are
    medians over every operation of the run.
    """
    latencies = np.concatenate([np.asarray(op.latencies) for op in round_ops])
    p50, p99 = np.percentile(latencies, [50.0, 99.0])
    return {
        "setup_s": statistics.median(setup_seconds),
        "model_s_per_wall_s": statistics.median(op.model_s / op.wall_s for op in ops),
        "host_cpu_s_per_model_s": statistics.median(op.cpu_s / op.model_s for op in ops),
        "delivered_sdos_per_wall_s": statistics.median(op.delivered / op.wall_s for op in ops),
        "weighted_utility": statistics.fmean(op.utility for op in round_ops),
        "latency_p50_s": float(p50),
        "latency_p99_s": float(p99),
    }
