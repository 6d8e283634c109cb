"""Correctness checks the benchmark applies to every operation.

Nothing here reuses the program's own validators: the Tier-1 checks
recompute the paper's constraints (Eqs. 3-6) from the topology's PE
profiles, the optimality check solves its own formulation of the
Tier-1 program with a different scipy method, and the property checks
read only counters the program exposes.  Each function returns a list
of problems; an operation fails when any check returns one.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

#: Relative slack for the Tier-1 equalities and inequalities (solver
#: round-off; the program itself validates node capacity at 1e-6).
TIER1_TOLERANCE = 1e-6

#: The program's setup objective may fall below the benchmark's own
#: optimum by at most this share.  SLSQP and trust-constr stop at
#: different points of the same flat optimum; 0.5% is well outside
#: that noise and well inside any real sub-optimality.
OPTIMALITY_TOLERANCE = 5e-3

#: The program's log-bucketed histogram (20 buckets per decade) puts a
#: quantile within one bucket of the exact value; allow two.
HISTOGRAM_RATIO = 10.0 ** (2.0 / 20.0)


def rate_slope(profile: _t.Any) -> float:
    """``a_j`` of Eq. 6, recomputed from the profile's own parameters."""
    if profile.calibrated_rate_slope is not None:
        return float(profile.calibrated_rate_slope)
    return (1.0 - profile.rho) / profile.t0 + profile.rho / profile.t1


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TIER1_TOLERANCE * max(1.0, abs(expected))


def tier1_feasibility(
    graph: _t.Any,
    placement: _t.Mapping[str, int],
    source_rates: _t.Optional[_t.Mapping[str, float]],
    targets: _t.Any,
) -> _t.List[str]:
    """Eqs. 4-6 for one set of Tier-1 targets.

    ``source_rates`` of None skips the flow (Eq. 5) and ingress
    constraints: the fair-share split is not a Tier-1 solve and only
    promises node capacity and the rate model.
    """
    problems: _t.List[str] = []
    node_total: _t.Dict[int, float] = {}
    for pe_id in graph.pe_ids:
        profile = graph.profile(pe_id)
        cpu = targets.cpu.get(pe_id)
        if cpu is None or not math.isfinite(cpu):
            problems.append(f"{pe_id}: no finite CPU target")
            continue
        if cpu < -TIER1_TOLERANCE or cpu > 1.0 + TIER1_TOLERANCE:
            problems.append(f"{pe_id}: CPU share {cpu} outside [0, 1]")
        rate_in = targets.rate_in.get(pe_id, float("nan"))
        rate_out = targets.rate_out.get(pe_id, float("nan"))
        expected_in = max(0.0, rate_slope(profile) * cpu - profile.overhead)
        if not _close(rate_in, expected_in):
            problems.append(
                f"{pe_id}: r_in {rate_in} != a*c - b = {expected_in} (Eq. 6)"
            )
        if not _close(rate_out, profile.lambda_m * rate_in):
            problems.append(
                f"{pe_id}: r_out {rate_out} != m*r_in "
                f"{profile.lambda_m * rate_in} (Eq. 6)"
            )
        node = placement[pe_id]
        node_total[node] = node_total.get(node, 0.0) + cpu
    for node, total in sorted(node_total.items()):
        if total > 1.0 + TIER1_TOLERANCE:
            problems.append(f"node {node}: sum of CPU shares {total} > 1 (Eq. 4)")
    if source_rates is None:
        return problems
    for pe_id in graph.pe_ids:
        upstream = graph.upstream(pe_id)
        rate_in = targets.rate_in.get(pe_id, 0.0)
        if upstream:
            supply = sum(targets.rate_out.get(u, 0.0) for u in upstream)
            if rate_in > supply + TIER1_TOLERANCE * max(1.0, supply):
                problems.append(
                    f"{pe_id}: r_in {rate_in} exceeds upstream supply "
                    f"{supply} (Eq. 5)"
                )
        if pe_id in graph.ingress_ids and pe_id in source_rates:
            offered = float(source_rates[pe_id])
            if rate_in > offered + TIER1_TOLERANCE * max(1.0, offered):
                problems.append(
                    f"{pe_id}: r_in {rate_in} exceeds source rate {offered}"
                )
    return problems


def tier1_objective(graph: _t.Any, targets: _t.Any) -> float:
    """Eq. 3 with U = log(1 + x), evaluated from the targets' rates."""
    return sum(
        graph.profile(pe_id).weight
        * math.log1p(max(0.0, targets.rate_out.get(pe_id, 0.0)))
        for pe_id in graph.pe_ids
        if graph.profile(pe_id).weight > 0
    )


def reference_optimum(
    graph: _t.Any,
    placement: _t.Mapping[str, int],
    source_rates: _t.Mapping[str, float],
) -> float:
    """Solve the Tier-1 program in rate space with trust-constr.

    The program solves for CPU shares with SLSQP; this formulation takes
    the input rates ``x_j`` as variables (``c_j = (x_j + b_j) / a_j``),
    states every constraint as one linear system, and hands the
    exact gradient and Hessian of the concave objective to scipy's
    interior-point ``trust-constr``.
    """
    from scipy.optimize import Bounds, LinearConstraint, minimize

    pe_ids = list(graph.pe_ids)
    index = {pe_id: k for k, pe_id in enumerate(pe_ids)}
    n = len(pe_ids)
    profiles = [graph.profile(pe_id) for pe_id in pe_ids]
    slope = np.array([rate_slope(p) for p in profiles])
    overhead = np.array([p.overhead for p in profiles])
    mult = np.array([p.lambda_m for p in profiles])
    weight = np.array([p.weight for p in profiles])

    rows: _t.List[np.ndarray] = []
    upper: _t.List[float] = []
    for node in sorted(set(placement[p] for p in pe_ids)):
        row = np.zeros(n)
        members = [index[p] for p in pe_ids if placement[p] == node]
        row[members] = 1.0 / slope[members]
        rows.append(row)
        upper.append(1.0 - float(np.sum(overhead[members] / slope[members])))
    for pe_id in pe_ids:
        upstream = graph.upstream(pe_id)
        if not upstream:
            continue
        row = np.zeros(n)
        row[index[pe_id]] = 1.0
        for producer in upstream:
            row[index[producer]] -= mult[index[producer]]
        rows.append(row)
        upper.append(0.0)
    constraint = LinearConstraint(np.array(rows), -np.inf, np.array(upper))

    high = slope - overhead
    for pe_id in graph.ingress_ids:
        if pe_id in source_rates:
            k = index[pe_id]
            high[k] = min(high[k], float(source_rates[pe_id]))
    bounds = Bounds(np.zeros(n), np.maximum(high, 0.0))

    def negative(x: np.ndarray) -> float:
        return -float(np.sum(weight * np.log1p(mult * x)))

    def gradient(x: np.ndarray) -> np.ndarray:
        return -weight * mult / (1.0 + mult * x)

    def hessian(x: np.ndarray) -> np.ndarray:
        return np.diag(weight * mult**2 / (1.0 + mult * x) ** 2)

    result = minimize(
        negative,
        np.zeros(n),
        jac=gradient,
        hess=hessian,
        bounds=bounds,
        constraints=[constraint],
        method="trust-constr",
        options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 3000},
    )
    x = np.clip(result.x, bounds.lb, bounds.ub)
    return -negative(x)


def tier1_optimality(
    graph: _t.Any,
    placement: _t.Mapping[str, int],
    source_rates: _t.Mapping[str, float],
    targets: _t.Any,
) -> _t.List[str]:
    """The program's setup objective against the benchmark's optimum."""
    ours = reference_optimum(graph, placement, source_rates)
    theirs = tier1_objective(graph, targets)
    if theirs < ours - OPTIMALITY_TOLERANCE * max(1.0, abs(ours)):
        return [
            f"Tier-1 objective {theirs:.6f} below the reference optimum "
            f"{ours:.6f} by more than {OPTIMALITY_TOLERANCE:.1%}"
        ]
    return []


def latency_problems(
    latencies: _t.Sequence[float],
    delivered: int,
    histogram: _t.Mapping[str, float],
) -> _t.List[str]:
    """Raw egress latencies against the program's own counters."""
    problems: _t.List[str] = []
    if len(latencies) != delivered:
        problems.append(
            f"{len(latencies)} egress latencies captured but the report "
            f"counts {delivered} delivered SDOs"
        )
    if not latencies:
        return problems + ["no SDO was delivered in the measured window"]
    p50, p99 = np.percentile(np.asarray(latencies), [50.0, 99.0])
    if not 0.0 <= p50 <= p99:
        problems.append(f"latency p50 {p50} > p99 {p99}")
    for key, exact in (("p50", p50), ("p99", p99)):
        reported = histogram.get(key)
        if reported is None or exact <= 0:
            continue
        if not exact / HISTOGRAM_RATIO <= reported <= exact * HISTOGRAM_RATIO:
            problems.append(
                f"program's {key} {reported} is more than two histogram "
                f"buckets from the exact {exact}"
            )
    return problems


def simulator_problems(
    report: _t.Any,
    conservation: _t.Sequence[_t.Any],
    oracle_findings: _t.Optional[_t.Sequence[_t.Any]],
    spans: _t.Optional[_t.Any],
) -> _t.List[str]:
    """Ledger, oracles, span closure and the CPU budget of one sim run."""
    problems = [f"ledger: {v.invariant}: {v.detail}" for v in conservation]
    if oracle_findings:
        problems.extend(
            f"oracle: {v.invariant}: {v.detail}" for v in oracle_findings
        )
    if spans is not None:
        problems.extend(
            f"span closure: {v['detail']}" for v in spans.violations
        )
        if spans.egress_spans != report.total_output_sdos:
            problems.append(
                f"{spans.egress_spans} closed spans for "
                f"{report.total_output_sdos} delivered SDOs"
            )
    # cpu_utilization is CPU used over capacity x node-seconds (every
    # node has capacity 1).
    if not 0.0 <= report.cpu_utilization <= 1.0 + TIER1_TOLERANCE:
        problems.append(
            f"CPU used is {report.cpu_utilization:.6f} of capacity x "
            "node-seconds"
        )
    return problems


def threaded_problems(
    runtime: _t.Any,
    report: _t.Any,
    egress: _t.Sequence[_t.Tuple[float, float]],
    lingering: _t.Sequence[str],
) -> _t.List[str]:
    """Properties of a stopped threaded run that hold under any interleaving.

    ``egress`` holds ``(latency, model time at delivery)`` pairs;
    ``lingering`` names runtime threads still alive after the wait.
    """
    problems = [f"thread {name} still running" for name in lingering]
    if report.workers_abandoned:
        problems.append(f"{report.workers_abandoned} worker(s) abandoned")
    for pe_id, pe in sorted(runtime.pes.items()):
        stats = pe.channel.stats
        if stats.offered != stats.accepted + stats.dropped:
            problems.append(
                f"{pe_id}: offered {stats.offered} != accepted "
                f"{stats.accepted} + dropped {stats.dropped}"
            )
        if stats.accepted < pe.consumed + pe.channel.occupancy:
            problems.append(
                f"{pe_id}: accepted {stats.accepted} < consumed "
                f"{pe.consumed} + occupancy {pe.channel.occupancy}"
            )
    for latency, now in egress:
        if not 0.0 <= latency <= now:
            problems.append(
                f"egress latency {latency} outside [0, {now}] model-s"
            )
            break
    return problems
