"""Variable-step driver: filtered implicit Euler with an embedded 2(3)
estimate and a halving/doubling controller.

Each accepted step advances the third-order (post-filtered) value.  A
candidate step is rejected and halved while tol*k < est; it is accepted
otherwise, and when est < tol*k / 2**6 the next candidate step is
doubled.  Newton failures and degenerate post-filter coefficients are
handled exactly like est-too-large rejections.

solve_filtered_ie23 holds the one adaptive loop, so the step-control
policy exists once: the clamp to the span, the factors of the step
history, reject/halve and the k_min floor, the append, the doubling rule
and the statistics.  It calls filters.step_factors once per distinct
step history (k_n, k_nm1, k_nm2, k_nm3) and keeps the factors for the
solve.  On the halve/double ladder histories repeat: the benchmark's
analog gamma = 3 solve meets 193 distinct ones in 118,511 attempts, van
der Pol mu = 100 454 in 110,942.  Against beta recomputed inline on
every attempt, that took scalar-analog from 0.578 to 0.475 s and
vdp-stiff from 0.821 to 0.727 s (BENCH_23.json).

Only the per-component kernel (curvature, pre-filter, post-filter,
estimate) branches on the dimension.  For d >= 3 it calls curvature,
pre_filtered and post_filtered from filters.py, the reference for every
formula.  For d = 1 and d = 2 it is written out on float locals, with
the same floating-point operations in the same order, so it gives the
reference's bits; the tests compare the two bit for bit.  Written out,
they took the scalar-analog solves from 1.31 to 0.63 s and the vdp-stiff
ones from 1.38 to 0.85 s (BENCH_11.json).  The timings are perfbench
--seconds 35 medians of 10 alternating process pairs on a 2-CPU Xeon
under CPython 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import OdeProblem, SolverConfig, Trajectory, all_finite
from .errors import (MinStepReached, NewtonDiverged, NonMonotonicTimes,
                     NonPositiveStep, SingularLinearSystem)
from .filters import curvature, post_filtered, pre_filtered, step_factors
from .newton import implicit_euler_stage
# perfbench/tracing.py rebinds rk3_step here, though only bootstrap calls it
from .steppers import bootstrap, rk3_step  # noqa: F401

# The paper's doubling divisor, 2**6: a step doubles after an attempt whose
# estimate falls this far below tol * k.  Every frozen trajectory in the
# tests was produced with it.
_DOUBLING_DIVISOR = 64.0

# Entries of a solve's step-history factor cache before a miss clears it;
# no benchmark solve meets more than 454 distinct histories.
_FACTOR_CACHE_SIZE = 4096


@dataclass
class AdaptiveRunStats:
    """Counts of one adaptive solve.

    accepted, rejected and doublings count the controller's decisions
    after the bootstrap; newton_failures counts the rejected attempts
    whose implicit stage raised.  min_k_used and max_k_used range over
    the accepted steps only, a clamped final step included, and stay inf
    and 0.0 when no step was accepted.
    """

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
    d = p.dimension
    comp = p.est_component
    tol, k_min, k_max, t_end = cfg.tol, cfg.k_min, cfg.k_max, cfg.t_end
    t_edge = t_end - 1e-14 * cfg.span
    divisor = _DOUBLING_DIVISOR
    isfinite = math.isfinite
    scalar, planar = d == 1, d == 2
    # step_factors by history; keys of positive floats, so a hit gives a miss's bits
    factors = {}
    factor = factors.get

    if 3.0 * cfg.dt0 >= cfg.span:
        raise ValueError("dt0 too large: the three bootstrap steps must fit in the span")

    traj = Trajectory(d)
    append = traj.append
    k = cfg.dt0
    times, states = bootstrap(p, cfg.t_begin, y0, k)
    for t, y, k_row in zip(times, states, (0.0, k, k, k)):
        append(t, y, 0.0, k_row)
    accepted = rejected = doublings = failures = 0
    k_lo, k_hi = math.inf, 0.0

    t_nm3, t_nm2, t_nm1, t_n = times
    _, y_nm2, y_nm1, y_n = states
    k_nm3, k_nm2, k_nm1 = t_nm2 - t_nm3, t_nm1 - t_nm2, t_n - t_nm1
    # the d <= 2 kernels hold the history in float locals as well, and
    # advance it when they accept
    if scalar:
        (y_nm2_0,), (y_nm1_0,), (y_n0,) = y_nm2, y_nm1, y_n
    elif planar:
        (y_nm2_0, y_nm2_1), (y_nm1_0, y_nm1_1), (y_n0, y_n1) = y_nm2, y_nm1, y_n

    while t_n < t_edge:
        remaining = t_end - t_n
        if k > remaining:
            k = remaining

        if k_nm2 <= 0.0 or k_nm1 <= 0.0:
            raise NonPositiveStep(f"curvature needs positive steps, got {k_nm2!r}, {k_nm1!r}")
        # kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)
        s = k_nm1 + k_nm2
        if scalar:
            kappa0 = 2.0 * k_nm2 / s * y_n0 - 2.0 * y_nm1_0 + 2.0 * k_nm1 / s * y_nm2_0
        elif planar:
            w_next = 2.0 * k_nm2 / s
            w_prev = 2.0 * k_nm1 / s
            kappa0 = w_next * y_n0 - 2.0 * y_nm1_0 + w_prev * y_nm2_0
            kappa1 = w_next * y_n1 - 2.0 * y_nm1_1 + w_prev * y_nm2_1
        else:
            kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)

        while True:
            key = (k, k_nm1, k_nm2, k_nm3)
            entry = factor(key)
            if entry is None:
                if len(factors) >= _FACTOR_CACHE_SIZE:
                    factors.clear()
                entry = factors[key] = step_factors(k, k_nm1, k_nm2, k_nm3)
            half_a, beta, v_next, v_prev = entry
            # pre_filtered(half_a, y_n, kappa_prev)
            if scalar:
                y_tilde = (y_n0 - half_a * kappa0,)
            elif planar:
                y_tilde = (y_n0 - half_a * kappa0, y_n1 - half_a * kappa1)
            else:
                y_tilde = pre_filtered(half_a, y_n, kappa_prev)
            t_next = t_n + k
            try:
                y_second = implicit_euler_stage(p, t_next, k, y_tilde, y_n, cfg).y
            except (NewtonDiverged, SingularLinearSystem):
                failures += 1
            else:
                # a degenerate beta is rejected like a failed estimate
                if beta is not None:
                    tk = tol * k
                    # post_filtered(beta, v_next, v_prev, y_nm1, y_n,
                    # kappa_prev, y_second, comp); a NaN est fails est <= tk too
                    if scalar:
                        y2_0, = y_second
                        y3_0 = y2_0 - beta * (
                            (v_next * y2_0 - 2.0 * y_n0 + v_prev * y_nm1_0) - kappa0)
                        est = abs(y3_0 - y2_0)
                        if est <= tk and isfinite(y3_0):
                            y_nm2_0, y_nm1_0, y_n0 = y_nm1_0, y_n0, y3_0
                            y_third = (y3_0,)
                            break
                    elif planar:
                        y2_0, y2_1 = y_second
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
                        if est <= tk and isfinite(y3_0) and isfinite(y3_1):
                            y_nm2_0, y_nm1_0, y_n0 = y_nm1_0, y_n0, y3_0
                            y_nm2_1, y_nm1_1, y_n1 = y_nm1_1, y_n1, y3_1
                            y_third = (y3_0, y3_1)
                            break
                    else:
                        y_third, est = post_filtered(beta, v_next, v_prev, y_nm1, y_n,
                                                     kappa_prev, y_second, comp)
                        if est <= tk and all_finite(y_third):
                            break
            rejected += 1
            k = 0.5 * k
            if k < k_min:
                raise MinStepReached(
                    f"step fell to {k!r} at t={t_n!r} without an acceptable attempt"
                )

        try:
            append(t_next, y_third, est, k)
        except NonMonotonicTimes:
            # an accepted step below the resolution of t leaves t where it was
            raise MinStepReached(
                f"step {k!r} is below the resolution of t={t_n!r}") from None
        k_nm3, k_nm2, k_nm1 = k_nm2, k_nm1, t_next - t_n
        y_nm2, y_nm1, y_n = y_nm1, y_n, y_third
        t_n = t_next
        accepted += 1
        if k < k_lo:
            k_lo = k
        if k > k_hi:
            k_hi = k
        if est < tk / divisor and 2.0 * k <= k_max:
            k = 2.0 * k
            doublings += 1

    return traj, AdaptiveRunStats(accepted=accepted, rejected=rejected,
                                  doublings=doublings, min_k_used=k_lo,
                                  max_k_used=k_hi, newton_failures=failures)
