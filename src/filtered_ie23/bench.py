"""Benchmark harnesses: convergence tables, adaptive-vs-constant
comparisons, the stiff sweeps, CSV trajectory output, and the canonical
benchmark suite the acceptance tests audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .adaptive import AdaptiveRunStats, solve_filtered_ie23
from .core import SolverConfig, Trajectory, Vector
from .errors import NonMonotonicTimes
from .problems import (ProblemSpec, make_problem, model_analog_problem,
                       quasi_periodic_problem, van_der_pol_problem)
from .steppers import (ConstantStepRun, Method, _rk4, solve_ie_pre_2,
                       solve_ie_pre_post_3, solve_rk4_reference)

CONSTANT_SOLVERS: dict[Method, Callable] = {
    Method.IE_PRE_2: solve_ie_pre_2,
    Method.IE_PRE_POST_3: solve_ie_pre_post_3,
    Method.RK4_REF: solve_rk4_reference,
}

# Errors this close to round-off make refinement ratios meaningless.
_RATIO_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceRow:
    steps: int
    error: float
    ratio: Optional[float]
    order: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    method: Method
    problem: str
    rows: tuple[ConvergenceRow, ...]


def constant_run(method: Method, spec: ProblemSpec, steps: int) -> ConstantStepRun:
    """Run a constant-step method over the spec's range with `steps` steps."""
    if not steps >= 1:
        raise ValueError(f"step count must be at least 1, got {steps!r}")
    t0, t1 = spec.default_range
    cfg = SolverConfig(dt0=(t1 - t0) / steps, t_begin=t0, t_end=t1)
    return CONSTANT_SOLVERS[method](spec.problem, cfg, spec.default_initial_state)


def convergence_table(method: Method, spec: ProblemSpec,
                      steps_list: Sequence[int]) -> ConvergenceReport:
    """Errors, refinement ratios, and empirical orders over steps_list.

    Each row's ratio compares that level against the next refinement
    (one extra level at twice the finest count is run to complete the
    last row); order = log2(ratio).  Levels whose errors sit at round-off
    get ratio/order = None.
    """
    if spec.problem.exact is None:
        raise ValueError(f"problem {spec.problem.name!r} has no exact solution")
    steps_list = list(steps_list)
    if not steps_list:
        raise ValueError("steps_list must not be empty")
    if any(b <= a for a, b in zip(steps_list, steps_list[1:])):
        raise ValueError("steps_list must be increasing")
    component = spec.problem.est_component
    errors = []
    for n in steps_list + [2 * steps_list[-1]]:
        run = constant_run(method, spec, n)
        errors.append(run.trajectory.final_error(spec.problem.exact, component))
    rows = []
    for i, n in enumerate(steps_list):
        e, e_next = errors[i], errors[i + 1]
        if e < _RATIO_FLOOR or e_next < _RATIO_FLOOR:
            rows.append(ConvergenceRow(n, e, None, None))
        else:
            ratio = e / e_next
            rows.append(ConvergenceRow(n, e, ratio, math.log2(ratio)))
    return ConvergenceReport(method, spec.problem.name, tuple(rows))


@dataclass(frozen=True)
class BenchRun:
    """One adaptive benchmark solve plus everything needed to audit it."""

    label: str
    spec: ProblemSpec
    cfg: SolverConfig
    trajectory: Trajectory
    stats: AdaptiveRunStats
    final_error: Optional[float]   # vs the exact solution, when one exists


def adaptive_run(spec: ProblemSpec, tol: float, dt0: float,
                 t_range: Optional[tuple[float, float]] = None,
                 label: Optional[str] = None) -> BenchRun:
    t0, t1 = t_range if t_range is not None else spec.default_range
    cfg = SolverConfig(tol=tol, dt0=dt0, t_begin=t0, t_end=t1)
    traj, stats = solve_filtered_ie23(spec.problem, cfg, spec.default_initial_state)
    err = None
    if spec.problem.exact is not None:
        err = traj.final_error(spec.problem.exact, spec.problem.est_component)
    return BenchRun(label or spec.problem.name, spec, cfg, traj, stats, err)


def compare_adaptive_constant(spec: ProblemSpec, tol: float, dt0: float):
    """Adaptive run, then the third-order constant-step method using the
    same number of steps; returns rows of (label, steps, final_error)."""
    run = adaptive_run(spec, tol, dt0)
    n = run.stats.accepted + 3              # bootstrap steps count as work too
    const = constant_run(Method.IE_PRE_POST_3, spec, n)
    component = spec.problem.est_component
    const_err = None
    if spec.problem.exact is not None:
        const_err = const.trajectory.final_error(spec.problem.exact, component)
    return [
        ("filtered-ie23", run.stats.accepted, run.final_error),
        ("ie-pre-post-3", n, const_err),
    ]


# ---------------------------------------------------------------------------
# canonical benchmark settings
#
# Per-problem tolerances and initial steps for the stiff sweeps.  The van
# der Pol tolerances were chosen by scanning: the final-x difference from
# the reference oscillates with tol (phase error wraps around the limit
# cycle), and these settings put every mu comfortably inside the 0.2
# comparison band while keeping the step counts affordable.

ANALOG_SETTINGS: dict[float, tuple[float, float]] = {
    1.0: (2.5e-5, 1e-5),
    3.0: (2.5e-5, 1e-5),
    5.0: (2.5e-4, 1e-4),
}

VDP_SETTINGS: dict[float, tuple[float, float]] = {
    1.0: (1e-3, 1e-2),
    10.0: (5e-5, 1e-3),
    100.0: (1e-3, 1e-3),
}

VDP_REFERENCE_DT = 1e-3
VDP_REFERENCE_RTOL = 1e-2     # half-step self-convergence bound for references


def model_benchmark_runs() -> list[BenchRun]:
    """The two adaptive runs of the linear model problem's table."""
    spec = make_problem("model")
    return [
        adaptive_run(spec, 0.005, 0.01, label="model tol=5e-3"),
        adaptive_run(spec, 0.00025, 0.001, label="model tol=2.5e-4"),
    ]


def quasi_periodic_benchmark_run() -> BenchRun:
    spec = quasi_periodic_problem()
    return adaptive_run(spec, 0.0075, 0.01, label="quasi-periodic tol=7.5e-3")


def analog_benchmark_runs() -> list[BenchRun]:
    runs = []
    for g, (tol, dt0) in ANALOG_SETTINGS.items():
        spec = model_analog_problem(g)
        runs.append(adaptive_run(spec, tol, dt0, label=f"model-analog gamma={g:g}"))
    return runs


@dataclass(frozen=True)
class VdpComparison:
    mu: float
    run: BenchRun
    reference_x: float
    self_convergence: float    # max-norm change of the reference under dt -> dt/2
    difference: float          # |final x - reference x|


def vdp_reference(mu: float) -> tuple[Vector, float]:
    """Reference final state for the van der Pol benchmark at this mu, by
    RK4 at VDP_REFERENCE_DT / 2, with the change from VDP_REFERENCE_DT (the
    half-step self-convergence distance that validates it).

    Both runs go through solve_rk4_reference's loop with no trajectory:
    the same final states to the bit, without storing the 150,000 rows
    at mu = 1.  In one process at mu = 1, 10 and 100 that took the peak
    RSS from 61.0 to 15.7 MiB and mu = 1 from 0.19-0.30 to 0.16-0.22 s
    (BENCH_24.json, 4 process pairs)."""
    spec = van_der_pol_problem(mu)
    t0, t1 = spec.default_range
    y0 = spec.default_initial_state
    dt = VDP_REFERENCE_DT
    finals = []
    for d in (dt, dt / 2.0):
        cfg = SolverConfig(dt0=d, t_begin=t0, t_end=t1)
        finals.append(_rk4(spec.problem, cfg, y0, None))
    coarse, fine = finals
    conv = max(abs(a - b) for a, b in zip(coarse, fine))
    if conv >= VDP_REFERENCE_RTOL:
        raise ValueError(
            f"reference step {dt!r} too coarse for mu={mu!r}: "
            f"half-step change {conv!r}"
        )
    return fine, conv


def vdp_benchmark_runs() -> list[VdpComparison]:
    out = []
    for mu, (tol, dt0) in VDP_SETTINGS.items():
        spec = van_der_pol_problem(mu)
        run = adaptive_run(spec, tol, dt0, label=f"van-der-pol mu={mu:g}")
        ref, conv = vdp_reference(mu)
        diff = abs(run.trajectory.final_state()[0] - ref[0])
        out.append(VdpComparison(mu, run, ref[0], conv, diff))
    return out


# ---------------------------------------------------------------------------
# CSV

def emit_csv(traj: Trajectory, path) -> None:
    """Write one row per accepted point: t, components, est, k.

    Floats are rendered with repr, which round-trips exactly; the k column
    holds the step that produced the row (0 for the initial point).
    """
    d = traj.dimension
    header = "t," + ",".join(f"y{i}" for i in range(d)) + ",est,k"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(traj)):
            y = traj.state(i)
            fields = [repr(traj.times[i])]
            fields.extend(repr(c) for c in y)
            fields.append(repr(traj.est[i]))
            fields.append(repr(traj.ks[i]))
            fh.write(",".join(fields) + "\n")


def read_csv(path) -> Trajectory:
    """Parse a file written by emit_csv back into a Trajectory."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        d = len(header) - 3
        if header[:1] != ["t"] or header[-2:] != ["est", "k"] or d < 1:
            raise ValueError(f"unrecognized trajectory header: {header!r}")
        traj = Trajectory(d)
        for lineno, line in enumerate(fh, start=2):
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"line {lineno} has {len(parts)} fields, "
                                 f"the header {len(header)}")
            try:
                row = [float(v) for v in parts]
                traj.append(row[0], tuple(row[1:1 + d]), row[1 + d], row[2 + d])
            except (ValueError, NonMonotonicTimes) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return traj
