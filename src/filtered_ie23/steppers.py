"""Constant-step integrators.

rk3_step / bootstrap supply the four starting points every filtered
method needs.  solve_ie_pre_2 and solve_ie_pre_post_3 are the fixed-step
second- and third-order filtered implicit Euler methods (the adaptive
driver's embedded pair, run at a constant step).  solve_rk4_reference is
the high-accuracy oracle used where no closed-form solution exists.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .core import (_BLOCK, OdeProblem, SolverConfig, Trajectory, Vector,
                   all_finite, initial_state, short_rhs)
from .errors import (DegenerateBeta, DimensionMismatch, NonFiniteState,
                     NonMonotonicTimes, NonPositiveStep)
from .filters import kernels, step_factors, uniform_step_factors
from .newton import _stage_for, implicit_euler_stage


class Method(enum.Enum):
    IE_PRE_2 = "ie-pre-2"
    IE_PRE_POST_3 = "ie-pre-post-3"
    RK4_REF = "rk4-ref"


@dataclass(frozen=True)
class ConstantStepRun:
    trajectory: Trajectory


def rk3_step(p: OdeProblem, t: float, y: Vector, h: float) -> Vector:
    """One explicit third-order step (Kutta's tableau); h must be positive
    and finite, else NonPositiveStep, and y must have p.dimension
    components, else DimensionMismatch."""
    if not 0.0 < h < math.inf:
        raise NonPositiveStep(f"rk3_step needs a positive finite step, got {h!r}")
    if len(y) != p.dimension:
        raise DimensionMismatch(f"rk3_step needs {p.dimension} components, got {len(y)}")
    rng = range(p.dimension)
    rhs = p.rhs
    s1 = s2 = s3 = None
    try:
        s1 = rhs(t, y)
        u = []
        for i in rng:
            u.append(y[i] + 0.5 * h * s1[i])
        s2 = rhs(t + 0.5 * h, tuple(u))
        u = []
        for i in rng:
            u.append(y[i] - h * s1[i] + 2.0 * h * s2[i])
        s3 = rhs(t + h, tuple(u))
        h6 = h / 6.0
        u = []
        for i in rng:
            u.append(y[i] + h6 * (s1[i] + 4.0 * s2[i] + s3[i]))
        return tuple(u)
    except IndexError as err:
        raise short_rhs(p, err, s1, s2, s3)


def bootstrap(p: OdeProblem, t0: float, y0: Sequence[float],
              dt: float) -> tuple[tuple[float, ...], tuple[Vector, ...]]:
    """Three rk3 steps of size dt from (t0, y0); returns the four times and
    the four states, oldest first."""
    y = initial_state(p, y0)
    times = [t0]
    states = [y]
    for i in range(3):
        y = rk3_step(p, times[-1], y, dt)
        if not all_finite(y):
            raise NonFiniteState(f"bootstrap produced a non-finite state near t={times[-1]!r}")
        times.append(t0 + (i + 1) * dt)
        states.append(y)
    return tuple(times), tuple(states)


def _grid(cfg: SolverConfig, dt: float) -> tuple[int, bool]:
    """The time grid of a constant-step run, as (n, snaps).  Its interior
    points are cfg.t_begin + i * dt for i = 1 .. n, the last of them below
    t_end - 1e-14 * span, and t_end follows (the final step is clamped
    when dt does not divide the span).  snaps is true when every interior
    gap is provably within 1e-9 * dt of dt, so that a solver may take each
    of them as dt untested: a point is off by at most half an ulp of the
    span and half an ulp of the larger end, and the subtraction that
    forms a gap by half an ulp of 2 dt."""
    t0, t_end, span = cfg.t_begin, cfg.t_end, cfg.span
    edge = t_end - 1e-14 * span
    n = int((edge - t0) / dt)    # a guess; the two loops settle it by the rule
    while n > 0 and t0 + n * dt >= edge:
        n -= 1
    while t0 + (n + 1) * dt < edge:
        n += 1
    ulp = math.ulp
    snaps = ulp(span) + ulp(max(abs(t0), abs(t_end))) + ulp(2.0 * dt) <= 1e-9 * dt
    return n, snaps


def _solve_ie_filtered(p: OdeProblem, cfg: SolverConfig, y0: Sequence[float],
                       third_order: bool) -> ConstantStepRun:
    dt = cfg.dt0
    n, _ = _grid(cfg, dt)
    times = []
    for i in range(1, n + 1):
        times.append(cfg.t_begin + i * dt)
    times.append(cfg.t_end)
    n_start = 3 if third_order else 2
    if len(times) <= n_start:
        raise ValueError("too few steps: the startup leaves no room for a filtered step")
    uniform_factors = uniform_step_factors(dt)

    traj = Trajectory(p.dimension)
    y = initial_state(p, y0)
    stage = _stage_for(implicit_euler_stage, p.dimension)
    traj.append(cfg.t_begin, y, 0.0, 0.0)

    # startup occupies the first grid points.  The third-order method seeds
    # its four-point history with explicit third-order steps (startup error
    # is higher order).  The second-order method seeds its three-point
    # history with plain implicit Euler: the O(dt^2) startup contribution
    # then carries the same order as the method itself, keeping the whole
    # run inside the implicit Euler family.
    if third_order:
        _, history = bootstrap(p, cfg.t_begin, y, dt)
    else:
        history = [y]
        for t in times[:n_start]:
            y = stage(p, t, dt, y, y, cfg).y
            history.append(y)
    for t, y in zip(times, history[1:]):
        traj.append(t, y, 0.0, dt)

    y_nm2, y_nm1, y_n = history[-3:]
    t_prev = times[n_start - 1]
    # curvature(dt, dt, ...) as its kernel on its weights: SolverConfig keeps dt > 0 finite
    curvature, pre_filtered, post_filtered, post_filtered_uniform = kernels(p.dimension)
    w = 2.0 * dt / (dt + dt)
    for t_next in times[n_start:]:
        k = t_next - t_prev
        # steps run at dt exactly, but a clamped final step at its own k
        uniform = abs(k - dt) <= 1e-9 * dt
        h = dt if uniform else k
        half_a, beta, v_next, v_prev = uniform_factors if uniform else step_factors(k, dt, dt, dt)
        kappa_prev = curvature(w, w, y_nm2, y_nm1, y_n)
        y_tilde = pre_filtered(half_a, y_n, kappa_prev)
        y_second = stage(p, t_next, h, y_tilde, y_n, cfg).y
        if not third_order:
            y_next, est = y_second, 0.0
        elif uniform:
            y_next, est = post_filtered_uniform(y_nm2, y_nm1, y_n, y_second, p.est_component)
        else:
            if beta is None:
                raise DegenerateBeta(f"post-filter degenerate at final step {k!r}, dt {dt!r}")
            y_next, est = post_filtered(beta, v_next, v_prev, y_nm1, y_n, kappa_prev,
                                        y_second, p.est_component)
        traj.append(t_next, y_next, est, k)
        y_nm2, y_nm1, y_n = y_nm1, y_n, y_next
        t_prev = t_next

    return ConstantStepRun(traj)


def solve_ie_pre_2(p: OdeProblem, cfg: SolverConfig, y0: Sequence[float]) -> ConstantStepRun:
    """Fixed-step second-order method: pre-filter then implicit Euler."""
    return _solve_ie_filtered(p, cfg, y0, third_order=False)


def solve_ie_pre_post_3(p: OdeProblem, cfg: SolverConfig, y0: Sequence[float]) -> ConstantStepRun:
    """Fixed-step third-order method: pre-filter, implicit Euler, post-filter."""
    return _solve_ie_filtered(p, cfg, y0, third_order=True)


def solve_rk4_reference(p: OdeProblem, cfg: SolverConfig, y0: Sequence[float]) -> ConstantStepRun:
    """Classical fourth-order Runge-Kutta at constant step cfg.dt0.

    Serves as the reference oracle; callers are responsible for choosing
    dt small enough (checked by rerunning at dt/2 and comparing).

    Dimension 2 (every van der Pol reference) takes a straight-line step
    that performs the same floating-point operations in the same order as
    the generic step, so results are bit-identical either way.  What it
    saves, on a 2-CPU Xeon under CPython 3.11 over 3 alternating process
    pairs of 3 calls each: vdp_reference(1.0), 150,000 steps in all, took
    0.75-0.92 s with the generic step against 0.40-0.48 s.  The generic
    step stays, as the only path for every other dimension (the 1-D model
    problems, the 4-D quasi-periodic one).

    The loop counts through the grid of _grid, t_next = t_begin + i * dt,
    and takes h = dt untested on the interior steps when the grid snaps;
    the final step, and every step of a grid that does not, tests its gap,
    raises NonMonotonicTimes unless it advances, and runs with its own h
    and weights.  Against a generator of times, a snap test per step and
    one append per row, on the same machine in interleaved in-process
    pairs: the four 2-D references of perfbench's vdp-stiff set-up,
    412,500 steps, took 0.82-0.84 times as long (median ratios of two sets
    of 12 pairs, faster in 23 of 24) and vdp_reference(1.0) 0.80 times
    (12 of 12), every row the same to the bit.

    The trajectory gets the first row by append and the states of the
    others, _BLOCK at a time, by Trajectory._take_states; their times,
    steps and estimates (_grid_columns) are built only when first read.
    perfbench's vdp-stiff setup_s, whose references read only final
    states, went from 0.542 to 0.474 s (BENCH_26.json).

    The loop is _rk4, which writes rows only when handed a trajectory;
    vdp_reference hands it none and keeps the two final states, the same
    to the bit.  Over 10 alternating 35 s pairs (BENCH_24.json) that took
    perfbench's constant-step wall_s from 0.298 to 0.267 s (10 of 10) and
    its peak RSS from 26.8 to 20.1 MiB.
    """
    traj = Trajectory(p.dimension)
    _rk4(p, cfg, y0, traj)
    return ConstantStepRun(traj)


def _rk4(p: OdeProblem, cfg: SolverConfig, y0: Sequence[float],
         traj: Optional[Trajectory]) -> Vector:
    """The RK4 loop of solve_rk4_reference.  Returns the final state and
    writes every row to traj, or none when traj is None."""
    dt = cfg.dt0
    d = p.dimension
    rhs = p.rhs
    n, snaps = _grid(cfg, dt)
    free = n if snaps else 0    # steps 1 .. free take h = dt untested
    t0, t_end = cfg.t_begin, cfg.t_end
    y = initial_state(p, y0)
    tested = []    # the h of each step after the first `free`
    keep = traj is not None
    if keep:
        traj.append(t0, y, 0.0, 0.0)
        take = traj._take_states
        columns = partial(_grid_columns, t0, dt, t_end, n, free, tested)
    t_prev = t0
    h, half, sixth = dt, 0.5 * dt, dt / 6.0
    half_dt, sixth_dt = half, sixth
    planar = d == 2
    if planar:
        isfinite = math.isfinite
        y0, y1 = y
    rng = range(d)
    flat = []
    put_y = flat.extend
    # an rhs value with fewer than d components fails the loops with
    # IndexError, which short_rhs turns into DimensionMismatch
    s1 = s2 = s3 = s4 = None
    try:
        for lo in range(1, n + 2, _BLOCK):
            for i in range(lo, min(lo + _BLOCK, n + 2)):
                t_next = t0 + i * dt
                if i > free:
                    if i > n:
                        t_next = t_end
                    if not t_next > t_prev:
                        raise NonMonotonicTimes(
                            f"time {t_next!r} does not advance past {t_prev!r}")
                    h = t_next - t_prev
                    if abs(h - dt) > 1e-9 * dt:
                        half, sixth = 0.5 * h, h / 6.0
                    else:
                        h, half, sixth = dt, half_dt, sixth_dt
                    tested.append(h)
                if planar:
                    t_half = t_prev + half
                    s1 = rhs(t_prev, y)
                    s2 = rhs(t_half, (y0 + half * s1[0], y1 + half * s1[1]))
                    s3 = rhs(t_half, (y0 + half * s2[0], y1 + half * s2[1]))
                    s4 = rhs(t_next, (y0 + h * s3[0], y1 + h * s3[1]))
                    y0 = y0 + sixth * (s1[0] + 2.0 * (s2[0] + s3[0]) + s4[0])
                    y1 = y1 + sixth * (s1[1] + 2.0 * (s2[1] + s3[1]) + s4[1])
                    if not (isfinite(y0) and isfinite(y1)):
                        raise NonFiniteState(f"reference solution blew up near t={t_next!r}")
                    y = (y0, y1)
                else:
                    s1 = rhs(t_prev, y)
                    u = []
                    for j in rng:
                        u.append(y[j] + half * s1[j])
                    s2 = rhs(t_prev + half, tuple(u))
                    u = []
                    for j in rng:
                        u.append(y[j] + half * s2[j])
                    s3 = rhs(t_prev + half, tuple(u))
                    u = []
                    for j in rng:
                        u.append(y[j] + h * s3[j])
                    s4 = rhs(t_next, tuple(u))
                    u = []
                    for j in rng:
                        u.append(y[j] + sixth * (s1[j] + 2.0 * (s2[j] + s3[j]) + s4[j]))
                    y = tuple(u)
                    if not all_finite(y):
                        raise NonFiniteState(f"reference solution blew up near t={t_next!r}")
                if keep:
                    put_y(y)
                t_prev = t_next
            if keep:
                take(flat, t_prev, columns)
                del flat[:]
    except IndexError as err:
        raise short_rhs(p, err, s1, s2, s3, s4)
    return y


def _grid_columns(t0: float, dt: float, t_end: float, n: int, free: int,
                  tested: list, lo: int, hi: int) -> tuple[list, list, list]:
    """The times, estimates and steps of rows lo .. hi - 1 of an _rk4 run,
    whose row i is point i of _grid's grid: t0 + i * dt, and t_end past n;
    steps dt on the first `free` steps and then the tested h values."""
    times, ks = [], []
    for i in range(lo, hi):
        times.append(t0 + i * dt if i <= n else t_end)
        ks.append(dt if i <= free else tested[i - free - 1])
    return times, [0.0] * (hi - lo), ks
