"""Variable-step driver: filtered implicit Euler with an embedded 2(3)
estimate and a halving/doubling controller.

Each accepted step advances the third-order (post-filtered) value.  A
candidate step is rejected and halved while tol*k < est; it is accepted
otherwise, and when est < tol*k / 2**6 the next candidate step is
doubled.  Newton failures and degenerate post-filter coefficients are
handled exactly like est-too-large rejections.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (OdeProblem, SolverConfig, Trajectory, Vector, all_finite,
                   initial_state)
from .errors import (MinStepReached, NewtonDiverged, NonMonotonicTimes,
                     NonPositiveStep, SingularLinearSystem)
from .filters import curvature, post_filtered, pre_filtered
from .newton import implicit_euler_stage
# perfbench/tracing.py rebinds rk3_step here, though only bootstrap calls it
from .steppers import bootstrap, rk3_step  # noqa: F401

# The paper's doubling divisor, 2**6: a step doubles after an attempt whose
# estimate falls this far below tol * k.  Every frozen trajectory in the
# tests was produced with it.
_DOUBLING_DIVISOR = 64.0


class Verdict(enum.Enum):
    ACCEPT = "accept"
    HALVE = "halve"
    ACCEPT_AND_DOUBLE = "accept-and-double"


@dataclass(frozen=True)
class StepAttempt:
    """Outcome of evaluating one candidate step from a given history."""

    k_n: float
    y_second: Optional[Vector]
    y_third: Optional[Vector]
    est: float
    verdict: Verdict


@dataclass
class AdaptiveRunStats:
    accepted: int = 0
    rejected: int = 0
    doublings: int = 0
    min_k_used: float = math.inf
    max_k_used: float = 0.0
    newton_failures: int = 0


def attempt_step(p: OdeProblem, points: Sequence[tuple[float, Sequence[float]]],
                 k_n: float, cfg: SolverConfig) -> StepAttempt:
    """Evaluate one candidate step of size k_n from the four most recent
    accepted (t, y) points, oldest first, without committing to it.

    Solver-level failures (Newton divergence, degenerate post-filter)
    yield verdict HALVE with est = inf rather than raising, so the
    controller has a single rejection path.  solve_filtered_ie23 runs
    the same arithmetic and accepts where this returns no HALVE.  The
    points are checked first: a count other than 4 raises ValueError, a
    state without p's dimension DimensionMismatch, times that do not
    strictly increase NonMonotonicTimes, and k_n <= 0 NonPositiveStep.
    """
    if len(points) != 4:
        raise ValueError(f"attempt_step needs 4 (t, y) points, got {len(points)}")
    times = [float(t) for t, _ in points]
    t_nm3, t_nm2, t_nm1, t_n = times
    _, y_nm2, y_nm1, y_n = [initial_state(p, y) for _, y in points]
    if not t_nm3 < t_nm2 < t_nm1 < t_n:
        raise NonMonotonicTimes(f"times {times} are not strictly increasing")
    if not k_n > 0.0:
        raise NonPositiveStep(f"attempt_step needs a positive step, got {k_n!r}")
    k_nm1 = t_n - t_nm1
    k_nm2 = t_nm1 - t_nm2
    k_nm3 = t_nm2 - t_nm3
    kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)
    y_tilde = pre_filtered(k_n, k_nm1, k_nm2, y_n, kappa_prev)
    try:
        y_second = implicit_euler_stage(p, t_n + k_n, k_n, y_tilde, y_n, cfg).y
    except (NewtonDiverged, SingularLinearSystem):
        return StepAttempt(k_n, None, None, math.inf, Verdict.HALVE)
    filtered = post_filtered(k_n, k_nm1, k_nm2, k_nm3, y_nm1, y_n,
                             kappa_prev, y_second, p.est_component)
    if filtered is None:
        return StepAttempt(k_n, None, None, math.inf, Verdict.HALVE)
    y_third, est = filtered
    if not (est <= cfg.tol * k_n and all_finite(y_third)):
        verdict = Verdict.HALVE
    elif est < cfg.tol * k_n / _DOUBLING_DIVISOR:
        verdict = Verdict.ACCEPT_AND_DOUBLE
    else:
        verdict = Verdict.ACCEPT
    return StepAttempt(k_n, y_second, y_third, est, verdict)


def solve_filtered_ie23(p: OdeProblem, cfg: SolverConfig,
                        y0: Sequence[float]) -> tuple[Trajectory, AdaptiveRunStats]:
    """Integrate p from (t_begin, y0) to t_end adaptively.

    Startup takes three third-order explicit steps of size dt0 (recorded
    with est = 0); filtering and step control begin once four history
    points exist.  The candidate step is clamped to [cfg.k_min, k_max] and
    to the remaining span, and halved on rejection.  The fixed floor
    cfg.k_min = 1e-12 * span alone ends a halving cascade: a step that
    falls below it raises MinStepReached.  No attempt starts above the
    span, so that takes at most 40 halvings.  After a step whose estimate
    is below tol * k / 2**6 (a fixed divisor) the next step is doubled,
    provided the doubled step still fits under k_max.  So each
    accepted step is the one before it times 2**e, integer e <= 1, except
    that a step clamped to the remaining span t_end - t_n is that span
    times 2**e, e <= 0.

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
    t_nm3, t_nm2, t_nm1, t_n = times
    _, y_nm2, y_nm1, y_n = states
    k_nm3, k_nm2, k_nm1 = t_nm2 - t_nm3, t_nm1 - t_nm2, t_n - t_nm1

    while t_n < t_edge:
        if k < k_min:
            k = k_min
        if k > k_max:
            k = k_max
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

        traj.append(t_next, y_third, est, k)
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
