"""The traced run: per-layer metrics of one operation of a workload.

The workload's operation runs twice with the same seed: untraced, then
with :class:`layers.LayerTracer` timing the public functions of every
layer.  The difference of the two ``run`` walls is the tracing
overhead; on the simulator the model outputs of the two runs must be
identical, since tracing only observes.
"""

from __future__ import annotations

import pathlib
import time
import typing as _t

import numpy as np

from repro.check.oracles import OracleRecorder
from repro.control.admission import AdmissionController
from repro.control.elastic import ScalingPolicy
from repro.control.forecast import ForecastController
from repro.control.node import NodeController
from repro.control.plane import ControlPlane
from repro.core import global_opt
from repro.core.cpu_control import AcesCpuScheduler, StrictProportionalScheduler
from repro.core.feedback import FeedbackBus
from repro.core.flow_control import FlowController
from repro.obs.spans import SpanTracker
from repro.runtime.worker import RuntimePE
from repro.systems import simulated
from repro.systems.dataplane import SimAdapter

import layers
import workloads

OUT = pathlib.Path(__file__).resolve().parent / "out"

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: _t.Dict[str, str] = {
    "sim.events": "count",
    "sim.event_dispatch_s": "s",
    "model.pe_execute_calls": "count",
    "model.pe_execute_s": "s",
    "systems.transport_calls": "count",
    "systems.transport_s": "s",
    "control.tier2.ticks": "count",
    "control.tier2.pe_steps": "count",
    "control.tier2.feedback_aggregate_s": "s",
    "control.tier2.cpu_allocate_s": "s",
    "control.tier2.flow_update_s": "s",
    "control.tier2.feedback_publish_s": "s",
    "control.tier2.grant_apply_s": "s",
    "control.tier2.pe_steps_per_s": "1/s",
    "control.vector.tick_s": "s",
    "control.admission.ticks": "count",
    "control.admission.tick_s": "s",
    "control.admission.shed_sdos": "count",
    "control.forecast.ticks": "count",
    "control.forecast.tick_s": "s",
    "control.forecast.triggers": "count",
    "control.elastic.decisions": "count",
    "control.elastic.membership_changes": "count",
    "control.elastic.useful_ratio": "ratio",
    "control.elastic.migrations": "count",
    "control.elastic.migrate_s": "s",
    "control.plane.reoptimizations": "count",
    "core.tier1.solves": "count",
    "core.tier1.solve_s": "s",
    "core.tier1.fallbacks": "count",
    "core.tier1.fallback_s": "s",
    "graph.generate_topology_s": "s",
    "graph.placement_opt_calls": "count",
    "graph.placement_opt_s": "s",
    "check.oracle_s": "s",
    "obs.spans_s": "s",
    "check.conservation_s": "s",
    "bench.trace_overhead_s": "s",
}

#: Reported only by the threaded workload's traced run.
RUNTIME_LAYER_UNITS: _t.Dict[str, str] = {
    "runtime.control_ticks": "count",
    "runtime.tick_lateness_p50_s": "s",
    "runtime.tick_lateness_p99_s": "s",
    "runtime.ticks_missed": "count",
    "runtime.source_offered_ratio": "ratio",
    "runtime.teardown_s": "s",
    "runtime.worker_cpu_s": "s",
    "runtime.control_cpu_s": "s",
    "runtime.source_cpu_s": "s",
    "runtime.worker_restarts": "count",
}

#: Stages of the scalar Tier-2 decision (Eq. 8, Section V-D, Eq. 7,
#: publication); with ``controller_tick``'s own time they make up
#: ``NodeController.control``.
TIER2_DECIDE = (
    "controller_tick",
    "control.tier2.feedback_aggregate",
    "control.tier2.cpu_allocate",
    "control.tier2.flow_update",
    "control.tier2.feedback_publish",
)


def install_api(tracer: layers.LayerTracer, api: _t.Any) -> None:
    """Set-up and check entry points, common to both substrates."""
    tracer.wrap(api, "generate_topology", "graph.generate_topology")
    tracer.wrap(api, "solve_global_allocation", "core.tier1.solve")
    tracer.wrap(api, "fair_share_targets", "core.tier1.fair_share")
    tracer.wrap(api, "check_conservation", "check.conservation")
    tracer.wrap(global_opt, "solve_global_allocation", "core.tier1.solve")
    tracer.wrap(global_opt, "_solve_projected_gradient", "core.tier1.fallback")


def install_simulator(tracer: layers.LayerTracer) -> None:
    """Wrappers for the layers a simulated run calls."""

    def decide(args: _t.Tuple[_t.Any, ...]) -> None:
        tracer.count("tier2.ticks")
        tracer.count("tier2.pe_steps", len(args[0].records))

    def membership(args: _t.Tuple[_t.Any, ...]) -> None:
        tracer.count("elastic.membership_changes")

    tracer.hook(NodeController, "control", decide)
    tracer.wrap(FeedbackBus, "max_downstream_rate", "control.tier2.feedback_aggregate")
    tracer.wrap(FeedbackBus, "min_downstream_rate", "control.tier2.feedback_aggregate")
    tracer.wrap(AcesCpuScheduler, "allocate", "control.tier2.cpu_allocate")
    tracer.wrap(StrictProportionalScheduler, "allocate", "control.tier2.cpu_allocate")
    tracer.wrap(FlowController, "update", "control.tier2.flow_update")
    tracer.wrap(FeedbackBus, "publish", "control.tier2.feedback_publish")
    tracer.wrap(SimAdapter, "apply_grants", "control.tier2.grant_apply")
    tracer.wrap(ControlPlane, "tick_nodes", layers.VECTOR_TICK)
    tracer.wrap(ControlPlane, "reoptimize", "control.plane.reoptimize")
    tracer.wrap(AdmissionController, "tick", "control.admission.tick")
    tracer.wrap(ForecastController, "tick", "control.forecast.tick")
    tracer.wrap(ScalingPolicy, "observe", "control.elastic.observe")
    tracer.wrap(simulated.SimulatedSystem, "migrate_pes", "control.elastic.migrate")
    tracer.hook(simulated.SimulatedSystem, "add_node", membership)
    tracer.hook(simulated.SimulatedSystem, "remove_node", membership)
    tracer.wrap(simulated, "optimize_placement", "graph.placement_opt")
    tracer.wrap(OracleRecorder, "emit", "check.oracle")
    for hook in (
        "observe_arrival",
        "observe_queue",
        "observe_service",
        "observe_link",
        "observe_egress",
    ):
        tracer.wrap(SpanTracker, hook, "obs.spans")


def simulator_metrics(
    profiler: layers.LayerProfiler, tracer: layers.LayerTracer, system: _t.Any
) -> _t.Dict[str, float]:
    totals = profiler.totals
    calls = profiler.counts
    counted = tracer.counts
    pe_steps = counted.get("tier2.pe_steps", 0)
    decide_s = sum(totals.get(name, 0.0) for name in TIER2_DECIDE)
    admission = system.admission
    forecast = system.forecast
    decisions = (
        len(system.scaling_policy.decisions)
        if system.scaling_policy is not None
        else 0
    )
    changes = counted.get("elastic.membership_changes", 0)
    return {
        "sim.events": calls.get("event_dispatch", 0),
        "sim.event_dispatch_s": totals.get("event_dispatch", 0.0),
        "model.pe_execute_calls": calls.get("pe_execute", 0),
        "model.pe_execute_s": totals.get("pe_execute", 0.0),
        "systems.transport_calls": calls.get("transport", 0),
        "systems.transport_s": totals.get("transport", 0.0),
        "control.tier2.ticks": counted.get("tier2.ticks", 0),
        "control.tier2.pe_steps": pe_steps,
        "control.tier2.feedback_aggregate_s": totals.get("control.tier2.feedback_aggregate", 0.0),
        "control.tier2.cpu_allocate_s": totals.get("control.tier2.cpu_allocate", 0.0),
        "control.tier2.flow_update_s": totals.get("control.tier2.flow_update", 0.0),
        "control.tier2.feedback_publish_s": totals.get("control.tier2.feedback_publish", 0.0),
        "control.tier2.grant_apply_s": profiler.inclusive.get("control.tier2.grant_apply", 0.0),
        "control.tier2.pe_steps_per_s": pe_steps / decide_s if decide_s > 0 else 0.0,
        "control.vector.tick_s": totals.get(layers.VECTOR_TICK, 0.0),
        "control.admission.ticks": calls.get("control.admission.tick", 0),
        "control.admission.tick_s": totals.get("control.admission.tick", 0.0),
        "control.admission.shed_sdos": admission.total_shed if admission is not None else 0,
        "control.forecast.ticks": calls.get("control.forecast.tick", 0),
        "control.forecast.tick_s": totals.get("control.forecast.tick", 0.0),
        "control.forecast.triggers": len(forecast.triggers) if forecast is not None else 0,
        "control.elastic.decisions": decisions,
        "control.elastic.membership_changes": changes,
        "control.elastic.useful_ratio": changes / decisions if decisions else 0.0,
        "control.elastic.migrations": len(system.migration_log),
        "control.elastic.migrate_s": totals.get("control.elastic.migrate", 0.0),
        "control.plane.reoptimizations": system.plane.reoptimizations,
    }


def threaded_metrics(
    ticks: layers.TickLog,
    runtime: _t.Any,
    report: _t.Any,
    started: float,
    stopped: float,
    ended: float,
    cpu: _t.Mapping[str, float],
) -> _t.Dict[str, float]:
    config = runtime.config
    spacing = np.concatenate(
        [np.diff(stamps) for stamps in ticks.stamps.values()] or [np.zeros(0)]
    ) / config.dilation
    lateness = spacing - config.dt
    p50, p99 = (
        np.percentile(lateness, [50.0, 99.0]) if lateness.size else (0.0, 0.0)
    )
    window = (stopped - started) / config.dilation
    offered = sum(runtime.source_generated.values())
    expected = sum(runtime.topology.source_rates.values()) * window

    def thread_cpu(prefix: str) -> float:
        return sum(s for name, s in cpu.items() if name.startswith(prefix))

    return {
        "runtime.control_ticks": sum(len(s) for s in ticks.stamps.values()),
        "runtime.tick_lateness_p50_s": float(p50),
        "runtime.tick_lateness_p99_s": float(p99),
        "runtime.ticks_missed": int(np.sum(spacing >= 2.0 * config.dt)),
        "runtime.source_offered_ratio": offered / expected if expected else 0.0,
        "runtime.teardown_s": ended - stopped,
        "runtime.worker_cpu_s": thread_cpu("pe-"),
        "runtime.control_cpu_s": thread_cpu("ctl-"),
        "runtime.source_cpu_s": thread_cpu("src-"),
        "runtime.worker_restarts": report.worker_restarts,
    }


def run_traced(workload: _t.Any, seed: int) -> _t.Dict[str, object]:
    subseed = workload.subseeds(seed)[0]
    api = workloads.public_api()
    plain_setup = workload.setup(api, subseed)
    plain = workload.operate(api, plain_setup, plain_setup.system)
    plain_problems = workload.run_checks(plain_setup) + plain.problems

    threaded = isinstance(workload, workloads.ThreadedCalibration)
    units = dict(PER_LAYER_UNITS, **(RUNTIME_LAYER_UNITS if threaded else {}))
    profiler = layers.LayerProfiler()
    tracer = layers.LayerTracer(profiler)
    metrics = {name: 0.0 for name in units}
    try:
        install_api(tracer, api)
        if threaded:
            op = run_threaded(workload, api, tracer, subseed, metrics)
            problems = op.problems
        else:
            install_simulator(tracer)
            setup = workload.setup(api, subseed, profiler)
            tracer.wrap(setup.system.tier1, "solver", "core.tier1.solve")
            op = workload.operate(api, setup, setup.system)
            problems = op.problems
            if (op.utility, op.latencies) != (plain.utility, plain.latencies):
                problems.append(
                    "traced run's model outputs differ from the untraced run's"
                )
            metrics.update(simulator_metrics(profiler, tracer, op.system))
    finally:
        tracer.restore()
    metrics["bench.trace_overhead_s"] = op.wall_s - plain.wall_s
    totals = profiler.totals
    calls = profiler.counts
    metrics.update(
        {
            "core.tier1.solves": calls.get("core.tier1.solve", 0),
            "core.tier1.solve_s": totals.get("core.tier1.solve", 0.0),
            "core.tier1.fallbacks": calls.get("core.tier1.fallback", 0),
            "core.tier1.fallback_s": totals.get("core.tier1.fallback", 0.0),
            "graph.generate_topology_s": totals.get("graph.generate_topology", 0.0),
            "graph.placement_opt_calls": calls.get("graph.placement_opt", 0),
            "graph.placement_opt_s": totals.get("graph.placement_opt", 0.0),
            "check.oracle_s": totals.get("check.oracle", 0.0),
            "obs.spans_s": totals.get("obs.spans", 0.0),
            "check.conservation_s": totals.get("check.conservation", 0.0),
        }
    )
    profiler.write_spans(str(OUT / f"spans-{workload.name}-seed{seed}.jsonl"))
    failed = int(bool(plain_problems)) + int(bool(problems))
    return {
        "correct": failed == 0,
        "attempted": 2,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "problems": plain_problems + problems,
    }


def run_threaded(
    workload: _t.Any,
    api: _t.Any,
    tracer: layers.LayerTracer,
    subseed: int,
    metrics: _t.Dict[str, float],
) -> _t.Any:
    """The traced threaded operation: tick stamps, thread CPU, teardown."""
    ticks = layers.TickLog()
    stops: _t.List[float] = []
    cpu: _t.Dict[str, float] = {}

    def stopping(args: _t.Tuple[_t.Any, ...]) -> None:
        if not stops:
            stops.append(time.monotonic())

    def sample(runtime: _t.Any) -> None:
        cpu.update(layers.thread_cpu_seconds())

    tracer.hook(NodeController, "tick", ticks.record)
    tracer.hook(RuntimePE, "stop", stopping)
    setup = workload.setup(api, subseed)
    started = time.monotonic()
    op = workload.operate(api, setup, setup.system, observer=sample)
    ended = started + op.wall_s
    metrics.update(
        threaded_metrics(
            ticks, op.system, op.report, started,
            stops[0] if stops else ended, ended, cpu,
        )
    )
    return op
