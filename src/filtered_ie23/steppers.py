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
from typing import Iterator, Sequence

from .core import (OdeProblem, SolverConfig, Trajectory, Vector, all_finite,
                   initial_state)
from .errors import DegenerateBeta, NonFiniteState, NonPositiveStep
from .filters import (_beta, curvature, post_filtered,
                      post_filtered_uniform, pre_filtered)
from .newton import implicit_euler_stage


class Method(enum.Enum):
    IE_PRE_2 = "ie-pre-2"
    IE_PRE_POST_3 = "ie-pre-post-3"
    RK4_REF = "rk4-ref"


@dataclass(frozen=True)
class ConstantStepRun:
    trajectory: Trajectory


def rk3_step(p: OdeProblem, t: float, y: Vector, h: float) -> Vector:
    """One explicit third-order step (Kutta's tableau)."""
    if h <= 0.0:
        raise NonPositiveStep(f"rk3_step needs h > 0, got {h!r}")
    rhs = p.rhs
    s1 = rhs(t, y)
    s2 = rhs(t + 0.5 * h, tuple(y[i] + 0.5 * h * s1[i] for i in range(p.dimension)))
    s3 = rhs(t + h, tuple(y[i] - h * s1[i] + 2.0 * h * s2[i] for i in range(p.dimension)))
    h6 = h / 6.0
    return tuple(
        y[i] + h6 * (s1[i] + 4.0 * s2[i] + s3[i]) for i in range(p.dimension)
    )


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


def _step_times(cfg: SolverConfig, dt: float) -> Iterator[float]:
    """Times after t_begin: interior points on the uniform grid, then t_end
    (the final step is clamped when dt does not divide the span).  Yielded
    one at a time, so a long reference solve holds no list of them."""
    t0, t_end, span = cfg.t_begin, cfg.t_end, cfg.span
    edge = t_end - 1e-14 * span
    i = 1
    while True:
        t = t0 + i * dt
        if t >= edge:
            break
        yield t
        i += 1
    yield t_end


def _solve_ie_filtered(p: OdeProblem, cfg: SolverConfig, y0: Sequence[float],
                       third_order: bool) -> ConstantStepRun:
    dt = cfg.dt0
    times = list(_step_times(cfg, dt))
    n_start = 3 if third_order else 2
    if len(times) <= n_start:
        raise ValueError("too few steps: the startup leaves no room for a filtered step")

    traj = Trajectory(p.dimension)
    y = initial_state(p, y0)
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
            y = implicit_euler_stage(p, t, dt, y, y, cfg).y
            history.append(y)
    for t, y in zip(times, history[1:]):
        traj.append(t, y, 0.0, dt)

    y_nm2, y_nm1, y_n = history[-3:]
    t_prev = times[n_start - 1]
    for t_next in times[n_start:]:
        k = t_next - t_prev
        # steps run at dt exactly, but a clamped final step at its own k
        uniform = abs(k - dt) <= 1e-9 * dt
        h = dt if uniform else k
        kappa_prev = curvature(dt, dt, y_nm2, y_nm1, y_n)
        y_tilde = pre_filtered(h, dt, dt, y_n, kappa_prev)
        y_second = implicit_euler_stage(p, t_next, h, y_tilde, y_n, cfg).y
        if not third_order:
            y_next, est = y_second, 0.0
        elif uniform:
            y_next, est = post_filtered_uniform(y_nm2, y_nm1, y_n, y_second,
                                                p.est_component)
        else:
            beta = _beta(k, dt, dt, dt)
            if beta is None:
                raise DegenerateBeta(f"post-filter degenerate at final step {k!r}, dt {dt!r}")
            y_next, est = post_filtered(beta, k, dt, y_nm1, y_n, kappa_prev,
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

    Dimension 2 (every van der Pol reference) runs a straight-line loop
    that performs the same floating-point operations in the same order as
    the generic loop, so results are bit-identical either way.  What it
    saves, on a 2-CPU Xeon under CPython 3.11 over 3 alternating process
    pairs of 3 calls each: vdp_reference(1.0), 150,000 steps in all, took
    0.75-0.92 s with the generic loop against 0.40-0.48 s.  The generic
    loop stays, as the only path for every other dimension (the 1-D model
    problems, the 4-D quasi-periodic one).
    """
    dt = cfg.dt0
    d = p.dimension
    rhs = p.rhs
    times = _step_times(cfg, dt)
    traj = Trajectory(d)
    y = initial_state(p, y0)
    traj.append(cfg.t_begin, y, 0.0, 0.0)
    t_prev = cfg.t_begin
    half = 0.5 * dt
    sixth = dt / 6.0
    append = traj.append
    if d == 2:
        isfinite = math.isfinite
        y0, y1 = y
        for t_next in times:
            h = t_next - t_prev
            if abs(h - dt) > 1e-9 * dt:
                half, sixth = 0.5 * h, h / 6.0
            else:
                h = dt
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
            append(t_next, y, 0.0, h)
            t_prev = t_next
        return ConstantStepRun(traj)
    rng = range(d)
    for t_next in times:
        h = t_next - t_prev
        if abs(h - dt) > 1e-9 * dt:
            half, sixth = 0.5 * h, h / 6.0
        else:
            h = dt
        # tuple([...]) builds a short tuple faster than tuple(<generator>)
        s1 = rhs(t_prev, y)
        s2 = rhs(t_prev + half, tuple([y[i] + half * s1[i] for i in rng]))
        s3 = rhs(t_prev + half, tuple([y[i] + half * s2[i] for i in rng]))
        s4 = rhs(t_next, tuple([y[i] + h * s3[i] for i in rng]))
        y = tuple([
            y[i] + sixth * (s1[i] + 2.0 * (s2[i] + s3[i]) + s4[i]) for i in rng
        ])
        if not all_finite(y):
            raise NonFiniteState(f"reference solution blew up near t={t_next!r}")
        append(t_next, y, 0.0, h)
        t_prev = t_next
    return ConstantStepRun(traj)
