"""Variable-step driver: filtered implicit Euler with an embedded 2(3)
estimate and a halving/doubling controller.

Each accepted step advances the third-order (post-filtered) value.  A
candidate step is rejected and halved while tol*k < est; it is accepted
otherwise, and when est < tol*k / 2**6 the next candidate step is
doubled.  Newton failures and degenerate post-filter coefficients are
handled exactly like est-too-large rejections.

solve_filtered_ie23 runs one of three loops after the bootstrap.  The
generic loop calls the filter kernel in filters.py and is the reference;
it is the only path for dimension 3 and up.  Dimensions 1 and 2 run
straight-line copies (_loop_dim1, _loop_dim2) that inline the kernel
with the state in float locals, and give the generic loop's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import OdeProblem, SolverConfig, Trajectory, all_finite
from .errors import (MinStepReached, NewtonDiverged, NonMonotonicTimes,
                     NonPositiveStep, SingularLinearSystem)
from .filters import (_DEGENERACY_RTOL, curvature, post_filtered,
                      pre_filtered)
from .newton import implicit_euler_stage
# perfbench/tracing.py rebinds rk3_step here, though only bootstrap calls it
from .steppers import bootstrap, rk3_step  # noqa: F401

# The paper's doubling divisor, 2**6: a step doubles after an attempt whose
# estimate falls this far below tol * k.  Every frozen trajectory in the
# tests was produced with it.
_DOUBLING_DIVISOR = 64.0


@dataclass
class AdaptiveRunStats:
    accepted: int = 0
    rejected: int = 0
    doublings: int = 0
    min_k_used: float = math.inf
    max_k_used: float = 0.0
    newton_failures: int = 0


def solve_filtered_ie23(p: OdeProblem, cfg: SolverConfig,
                        y0: Sequence[float]) -> tuple[Trajectory, AdaptiveRunStats]:
    """Integrate p from (t_begin, y0) to t_end adaptively.

    Startup takes three third-order explicit steps of size dt0 (recorded
    with est = 0); filtering and step control begin once four history
    points exist.  The candidate step is clamped to the remaining span and
    halved on rejection.  The fixed floor cfg.k_min = 1e-12 * span alone
    ends a halving cascade: a step that falls below it raises
    MinStepReached.  No attempt starts above the span, so that takes at
    most 40 halvings.  k_min ignores the magnitude of t, so an accepted
    step with t_n + k == t_n raises MinStepReached too.  After a step
    whose estimate is below tol * k / 2**6 (a fixed divisor) the next step
    is doubled, provided the doubled step still fits under k_max; as
    dt0 <= k_max, no step exceeds k_max.  So each accepted step is the one
    before it times 2**e, integer e <= 1, except that a step clamped to the
    remaining span t_end - t_n is that span times 2**e, e <= 0.

    Attempts that produce a non-finite state or estimate are rejected and
    retried at half the step; a non-finite bootstrap state raises
    NonFiniteState outright.
    """
    comp = p.est_component
    tol = cfg.tol
    k_min = cfg.k_min
    k_max = cfg.k_max
    t_edge = cfg.t_end - 1e-14 * cfg.span

    if 3.0 * cfg.dt0 >= cfg.span:
        raise ValueError("dt0 too large: the three bootstrap steps must fit in the span")

    traj = Trajectory(p.dimension)
    stats = AdaptiveRunStats()

    k = cfg.dt0
    times, states = bootstrap(p, cfg.t_begin, y0, k)
    for t, y, k_row in zip(times, states, (0.0, k, k, k)):
        traj.append(t, y, 0.0, k_row)
    if p.dimension == 1:
        _loop_dim1(p, cfg, traj, stats, k, times, states)
        return traj, stats
    if p.dimension == 2:
        _loop_dim2(p, cfg, traj, stats, k, times, states)
        return traj, stats
    t_nm3, t_nm2, t_nm1, t_n = times
    _, y_nm2, y_nm1, y_n = states
    k_nm3, k_nm2, k_nm1 = t_nm2 - t_nm3, t_nm1 - t_nm2, t_n - t_nm1

    while t_n < t_edge:
        remaining = cfg.t_end - t_n
        if k > remaining:
            k = remaining

        kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)

        while True:
            y_tilde = pre_filtered(k, k_nm1, k_nm2, y_n, kappa_prev)
            t_next = t_n + k
            try:
                outcome = implicit_euler_stage(p, t_next, k, y_tilde, y_n, cfg)
            except (NewtonDiverged, SingularLinearSystem):
                stats.newton_failures += 1
                filtered = None
            else:
                # None when the post-filter is degenerate at this k
                filtered = post_filtered(k, k_nm1, k_nm2, k_nm3, y_nm1, y_n,
                                         kappa_prev, outcome.y, comp)
            if filtered is not None:
                y_third, est = filtered
                # a NaN est fails the comparison too
                if est <= tol * k and all_finite(y_third):
                    break
            stats.rejected += 1
            k = 0.5 * k
            if k < k_min:
                raise MinStepReached(
                    f"step fell to {k!r} at t={t_n!r} without an acceptable attempt"
                )

        try:
            traj.append(t_next, y_third, est, k)
        except NonMonotonicTimes:
            # an accepted step below the resolution of t leaves t where it was
            raise MinStepReached(
                f"step {k!r} is below the resolution of t={t_n!r}") from None
        k_nm3, k_nm2, k_nm1 = k_nm2, k_nm1, t_next - t_n
        y_nm2, y_nm1, y_n = y_nm1, y_n, y_third
        t_n = t_next
        stats.accepted += 1
        if k < stats.min_k_used:
            stats.min_k_used = k
        if k > stats.max_k_used:
            stats.max_k_used = k
        if est < tol * k / _DOUBLING_DIVISOR and 2.0 * k <= k_max:
            k = 2.0 * k
            stats.doublings += 1

    return traj, stats


def _loop_dim1(p: OdeProblem, cfg: SolverConfig, traj: Trajectory,
               stats: AdaptiveRunStats, k: float, times, states) -> None:
    """solve_filtered_ie23's loop after the bootstrap, for one component.

    The generic loop with the state held in float locals and the filter
    kernel written out: curvature, alpha, _beta with its degeneracy test,
    the post-filter, the estimate and the finiteness test, each with the
    same floating-point operations in the same order as filters.py, so
    the trajectory and stats are bit-identical.  Factors that depend on
    the history alone are formed once per step, each the very product the
    kernel forms.  Every attempt still calls the module-global
    implicit_euler_stage with the generic loop's arguments.

    What this and _loop_dim2 save, on a 2-CPU Xeon under CPython 3.11
    (perfbench --seconds 35, 10 alternating process pairs, medians of
    probe-rescaled seconds): with the generic loop the scalar-analog
    solves took 1.31 s against 0.63 s, and the vdp-stiff ones 1.38 s
    against 0.85 s, faster in 10 of 10 pairs each.  Traced, the driver's
    own time per attempt fell from 11,977 to 4,863 ns and from 10,304 to
    5,443 ns.
    """
    tol, k_min, k_max, t_end = cfg.tol, cfg.k_min, cfg.k_max, cfg.t_end
    t_edge = t_end - 1e-14 * cfg.span
    rtol, divisor = _DEGENERACY_RTOL, _DOUBLING_DIVISOR
    isfinite = math.isfinite
    append = traj.append
    accepted = rejected = doublings = failures = 0
    k_lo, k_hi = stats.min_k_used, stats.max_k_used

    t_nm3, t_nm2, t_nm1, t_n = times
    _, (y_nm2,), (y_nm1,), y_last = states
    y_n = y_last[0]
    k_nm3, k_nm2, k_nm1 = t_nm2 - t_nm3, t_nm1 - t_nm2, t_n - t_nm1

    while t_n < t_edge:
        remaining = t_end - t_n
        if k > remaining:
            k = remaining

        # curvature(k_nm2, k_nm1, ...)
        if k_nm2 <= 0.0 or k_nm1 <= 0.0:
            raise NonPositiveStep(f"curvature needs positive steps, got {k_nm2!r}, {k_nm1!r}")
        s = k_nm1 + k_nm2
        two_k1 = 2.0 * k_nm1
        kappa = 2.0 * k_nm2 / s * y_n - 2.0 * y_nm1 + two_k1 / s * y_nm2
        # the history's share of alpha and of _beta
        k12 = k_nm1 * k_nm2
        k1k1 = k_nm1 * k_nm1
        two_k2k2 = 2.0 * k_nm2 * k_nm2
        three_k3 = 3.0 * k_nm3
        k_top = max(k_nm1, k_nm2, k_nm3)

        while True:
            kk = k * k
            y_tilde = y_n - 0.5 * (kk / k12) * kappa
            t_next = t_n + k
            try:
                y2 = implicit_euler_stage(p, t_next, k, (y_tilde,), y_last, cfg).y[0]
            except (NewtonDiverged, SingularLinearSystem):
                failures += 1
            else:
                ksum = k + k_nm1
                two_k = 2.0 * k
                num = kk * ksum * (two_k + two_k1 + k_nm2)
                den = two_k1 * (
                    k * ksum * (3.0 * k + two_k1)
                    + k_nm2 * (4.0 * k * k + two_k * k_nm1 - k1k1)
                    - two_k2k2 * ksum
                    + three_k3 * (k - k_nm2) * ksum
                )
                scale = (k if k > k_top else k_top) ** 4
                a_num = abs(num)
                # not a degenerate beta (a NaN den counts as not degenerate)
                if not abs(den) < rtol * (a_num if a_num > scale else scale):
                    beta = num / den
                    y3 = y2 - beta * (
                        (two_k1 / ksum * y2 - 2.0 * y_n + two_k / ksum * y_nm1) - kappa)
                    est = abs(y3 - y2)
                    tk = tol * k
                    # a NaN est fails the comparison too
                    if est <= tk and isfinite(y3):
                        break
            rejected += 1
            k = 0.5 * k
            if k < k_min:
                raise MinStepReached(
                    f"step fell to {k!r} at t={t_n!r} without an acceptable attempt"
                )

        y_last = (y3,)
        try:
            append(t_next, y_last, est, k)
        except NonMonotonicTimes:
            # an accepted step below the resolution of t leaves t where it was
            raise MinStepReached(
                f"step {k!r} is below the resolution of t={t_n!r}") from None
        k_nm3, k_nm2, k_nm1 = k_nm2, k_nm1, t_next - t_n
        y_nm2, y_nm1, y_n = y_nm1, y_n, y3
        t_n = t_next
        accepted += 1
        if k < k_lo:
            k_lo = k
        if k > k_hi:
            k_hi = k
        if est < tk / divisor and 2.0 * k <= k_max:
            k = 2.0 * k
            doublings += 1

    stats.accepted, stats.rejected, stats.doublings = accepted, rejected, doublings
    stats.newton_failures = failures
    stats.min_k_used, stats.max_k_used = k_lo, k_hi


def _loop_dim2(p: OdeProblem, cfg: SolverConfig, traj: Trajectory,
               stats: AdaptiveRunStats, k: float, times, states) -> None:
    """_loop_dim1 for two components, with the estimate read from
    p.est_component or, when that is None, the larger of the two."""
    comp = p.est_component
    tol, k_min, k_max, t_end = cfg.tol, cfg.k_min, cfg.k_max, cfg.t_end
    t_edge = t_end - 1e-14 * cfg.span
    rtol, divisor = _DEGENERACY_RTOL, _DOUBLING_DIVISOR
    isfinite = math.isfinite
    append = traj.append
    accepted = rejected = doublings = failures = 0
    k_lo, k_hi = stats.min_k_used, stats.max_k_used

    t_nm3, t_nm2, t_nm1, t_n = times
    _, (y_nm2_0, y_nm2_1), (y_nm1_0, y_nm1_1), y_last = states
    y_n0, y_n1 = y_last
    k_nm3, k_nm2, k_nm1 = t_nm2 - t_nm3, t_nm1 - t_nm2, t_n - t_nm1

    while t_n < t_edge:
        remaining = t_end - t_n
        if k > remaining:
            k = remaining

        # curvature(k_nm2, k_nm1, ...)
        if k_nm2 <= 0.0 or k_nm1 <= 0.0:
            raise NonPositiveStep(f"curvature needs positive steps, got {k_nm2!r}, {k_nm1!r}")
        s = k_nm1 + k_nm2
        two_k1 = 2.0 * k_nm1
        w_next = 2.0 * k_nm2 / s
        w_prev = two_k1 / s
        kappa0 = w_next * y_n0 - 2.0 * y_nm1_0 + w_prev * y_nm2_0
        kappa1 = w_next * y_n1 - 2.0 * y_nm1_1 + w_prev * y_nm2_1
        # the history's share of alpha and of _beta
        k12 = k_nm1 * k_nm2
        k1k1 = k_nm1 * k_nm1
        two_k2k2 = 2.0 * k_nm2 * k_nm2
        three_k3 = 3.0 * k_nm3
        k_top = max(k_nm1, k_nm2, k_nm3)

        while True:
            kk = k * k
            half_a = 0.5 * (kk / k12)
            y_tilde = (y_n0 - half_a * kappa0, y_n1 - half_a * kappa1)
            t_next = t_n + k
            try:
                y2_0, y2_1 = implicit_euler_stage(p, t_next, k, y_tilde, y_last, cfg).y
            except (NewtonDiverged, SingularLinearSystem):
                failures += 1
            else:
                ksum = k + k_nm1
                two_k = 2.0 * k
                num = kk * ksum * (two_k + two_k1 + k_nm2)
                den = two_k1 * (
                    k * ksum * (3.0 * k + two_k1)
                    + k_nm2 * (4.0 * k * k + two_k * k_nm1 - k1k1)
                    - two_k2k2 * ksum
                    + three_k3 * (k - k_nm2) * ksum
                )
                scale = (k if k > k_top else k_top) ** 4
                a_num = abs(num)
                # not a degenerate beta (a NaN den counts as not degenerate)
                if not abs(den) < rtol * (a_num if a_num > scale else scale):
                    beta = num / den
                    v_next = two_k1 / ksum
                    v_prev = two_k / ksum
                    y3_0 = y2_0 - beta * (
                        (v_next * y2_0 - 2.0 * y_n0 + v_prev * y_nm1_0) - kappa0)
                    y3_1 = y2_1 - beta * (
                        (v_next * y2_1 - 2.0 * y_n1 + v_prev * y_nm1_1) - kappa1)
                    if comp == 0:
                        est = abs(y3_0 - y2_0)
                    elif comp is None:
                        # max() keeps the first of equal or unordered values
                        e0 = abs(y3_0 - y2_0)
                        e1 = abs(y3_1 - y2_1)
                        est = e1 if e1 > e0 else e0
                    else:
                        est = abs(y3_1 - y2_1)
                    tk = tol * k
                    # a NaN est fails the comparison too
                    if est <= tk and isfinite(y3_0) and isfinite(y3_1):
                        break
            rejected += 1
            k = 0.5 * k
            if k < k_min:
                raise MinStepReached(
                    f"step fell to {k!r} at t={t_n!r} without an acceptable attempt"
                )

        y_last = (y3_0, y3_1)
        try:
            append(t_next, y_last, est, k)
        except NonMonotonicTimes:
            # an accepted step below the resolution of t leaves t where it was
            raise MinStepReached(
                f"step {k!r} is below the resolution of t={t_n!r}") from None
        k_nm3, k_nm2, k_nm1 = k_nm2, k_nm1, t_next - t_n
        y_nm2_0, y_nm1_0, y_n0 = y_nm1_0, y_n0, y3_0
        y_nm2_1, y_nm1_1, y_n1 = y_nm1_1, y_n1, y3_1
        t_n = t_next
        accepted += 1
        if k < k_lo:
            k_lo = k
        if k > k_hi:
            k_hi = k
        if est < tk / divisor and 2.0 * k <= k_max:
            k = 2.0 * k
            doublings += 1

    stats.accepted, stats.rejected, stats.doublings = accepted, rejected, doublings
    stats.newton_failures = failures
    stats.min_k_used, stats.max_k_used = k_lo, k_hi
