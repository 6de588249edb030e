"""Variable-step driver: filtered implicit Euler with an embedded 2(3)
estimate and a halving/doubling controller.

Each accepted step advances the third-order (post-filtered) value.  A
candidate step is rejected and halved while tol*k < est; it is accepted
otherwise, and when est < tol*k / 2**6 the next candidate step is
doubled.  Newton failures and degenerate post-filter coefficients are
handled exactly like est-too-large rejections.

The adaptive loop exists once, as the template _LOOP_SOURCE: the clamp
to the span, the factors of the step history, the pre-filter, the
implicit stage, the post-filter and the estimate, reject/halve and the
k_min floor, the append, the doubling rule and the counts of rejections,
doublings and Newton failures; the other statistics come from the rows.
_loop(d, est_component) fills it for one dimension and estimate and
compiles it once with core._compile, as newton._stage_kernel does the
stage: straight-line code on float locals, whose per-component terms
(curvature, pre-filter, post-filter, estimate) are the strings that
filters.kernels formats too.  The estimate is fixed when the loop is
generated, by the lines of filters._estimate that the kernels use too:
the max-norm, whose running max replaces only on a > est as max() does,
or est_component's entry.  solve_filtered_ie23 checks its
input, runs the bootstrap and hands the rest to the loop, with the stage,
step_factors and the cache size read at each solve, so that rebinding
them in this module (perfbench/tracing.py does) reaches every attempt.

The loop calls step_factors once per distinct step history (k_n, k_nm1,
k_nm2, k_nm3) and keeps the factors for the solve.  On the halve/double
ladder histories repeat: the benchmark's analog gamma = 3 solve meets 193
distinct ones in 118,511 attempts, van der Pol mu = 100 454 in 110,942.
Against beta recomputed inline on every attempt, that took scalar-analog
from 0.578 to 0.475 s and vdp-stiff from 0.821 to 0.727 s (BENCH_23.json).
Written out on float locals, the per-component work took the
scalar-analog solves from 1.31 to 0.63 s and the vdp-stiff ones from 1.38
to 0.85 s against loops over the components (BENCH_11.json).  The
timings are perfbench --seconds 35 medians of 10 alternating process
pairs on a 2-CPU Xeon under CPython 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import OdeProblem, SolverConfig, Trajectory, _compile, _names, _terms
from .errors import DegenerateBeta, MinStepReached, NewtonDiverged, SingularLinearSystem
from .filters import (_CURVATURE, _POST_FILTER, _PRE_FILTER, _estimate, step_factors,
                      uniform_step_factors)
from .newton import _stage_for, implicit_euler_stage
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
    and 0.0 when no step was accepted.  Those three are read off the
    trajectory's rows after the four start-up rows; a start-up mid-run
    would add rows that they must not count.
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
    NonFiniteState outright.  A dt0 that no filtered step can use is
    named before the bootstrap: NonPositiveStep when dt0 * dt0 underflows
    or overflows, else DegenerateBeta when beta of four steps of dt0 leaves
    float range (dt0 from about 1e77 up, or below about 1e-77).  The stats'
    accepted, min_k_used and max_k_used come from the trajectory's rows.
    """
    if 3.0 * cfg.dt0 >= cfg.span:
        raise ValueError("dt0 too large: the three bootstrap steps must fit in the span")
    if uniform_step_factors(cfg.dt0)[1] is None:
        raise DegenerateBeta(
            f"post-filter degenerate on steps of dt0 {cfg.dt0!r}: beta leaves float range")

    traj = Trajectory(p.dimension)
    append = traj.append
    times, states = bootstrap(p, cfg.t_begin, y0, cfg.dt0)
    for t, y, k in zip(times, states, (0.0, cfg.dt0, cfg.dt0, cfg.dt0)):
        append(t, y, 0.0, k)
    # read at each solve, so that rebinding them in this module reaches the loop
    rejected, doublings, failures = _loop(p.dimension, p.est_component)(
        p, cfg, times, states, append, _stage_for(implicit_euler_stage, p.dimension),
        step_factors, _FACTOR_CACHE_SIZE)
    ks = memoryview(traj.ks)[4:]    # the accepted steps, uncopied
    return traj, AdaptiveRunStats(len(ks), rejected, doublings, min(ks, default=math.inf),
                                  max(ks, default=0.0), failures)


# The template of _loop: the adaptive loop after the bootstrap, for one
# dimension and estimate, on the float locals of filters.py's terms (y_nm2
# as q0, q1, ..., y_nm1 as m0, ..., y_n as n0, ..., kappa_prev as c0, ...,
# y_second as s0, ... and y_third as t0, ...), with y_n also as a tuple.
# It returns the counts of rejections, doublings and Newton failures.
_LOOP_SOURCE = """\
def loop_d{d}(p, cfg, times, states, append, stage, step_factors, cache_size):
    tol, k_min, k_max, t_end = cfg.tol, cfg.k_min, cfg.k_max, cfg.t_end
    t_edge = cfg.t_edge
    isfinite = math.isfinite
    # step_factors by history; keys of positive floats, so a hit gives a miss's bits
    factors = {{}}
    factor = factors.get
    rejected = doublings = failures = 0
    k = cfg.dt0
    t_nm3, t_nm2, t_nm1, t_n = times
    _, ({q}), ({m}), y_n = states
    {n} = y_n
    k_nm3, k_nm2, k_nm1 = t_nm2 - t_nm3, t_nm1 - t_nm2, t_n - t_nm1

    while t_n < t_edge:
        remaining = t_end - t_n
        if k > remaining:
            k = remaining
        s = k_nm1 + k_nm2
        w_next = 2.0 * k_nm2 / s
        w_prev = 2.0 * k_nm1 / s
{curvature}

        while True:
            key = (k, k_nm1, k_nm2, k_nm3)
            entry = factor(key)
            if entry is None:
                if len(factors) >= cache_size:
                    factors.clear()
                entry = factors[key] = step_factors(k, k_nm1, k_nm2, k_nm3)
            half_a, beta, v_next, v_prev = entry
            y_tilde = ({pre},)
            t_next = t_n + k
            try:
                {s} = stage(p, t_next, k, y_tilde, y_n, cfg).y
            except (NewtonDiverged, SingularLinearSystem):
                failures += 1
            else:
                # a degenerate beta is rejected like a failed estimate
                if beta is not None:
                    tk = tol * k
{post}
{estimate}
                    # a NaN est fails est <= tk too
                    if est <= tk and {finite}:
                        break
            rejected += 1
            k = 0.5 * k
            if k < k_min:
                raise MinStepReached(
                    f"step fell to {{k!r}} at t={{t_n!r}} without an acceptable attempt")

        # keeps steps positive, as append did the start-up's: below t's resolution
        if not t_next > t_n:
            raise MinStepReached(f"step {{k!r}} is below the resolution of t={{t_n!r}}")
        y_n = ({t})
        append(t_next, y_n, est, k)
        k_nm3, k_nm2, k_nm1 = k_nm2, k_nm1, t_next - t_n
{rotate}
        t_n = t_next
        if est < tk / {divisor!r} and 2.0 * k <= k_max:
            k = 2.0 * k
            doublings += 1
    return rejected, doublings, failures
"""


@lru_cache(maxsize=16)
def _loop(d: int, est_component: Optional[int]):
    """The adaptive loop for d components and filters._estimate(d, est_component),
    compiled from _LOOP_SOURCE.  Kept for the 16 pairs used last."""
    # the loop's globals, so that it reads no name this module's source does not
    namespace = {"__name__": __name__, "math": math, "MinStepReached": MinStepReached,
                 "NewtonDiverged": NewtonDiverged, "SingularLinearSystem": SingularLinearSystem}
    source = _LOOP_SOURCE.format(
        d=d, **{key: _names(key, d) for key in "qmnst"},
        curvature=_terms("        c{i} = " + _CURVATURE, d, "\n"), pre=_terms(_PRE_FILTER, d),
        post=_terms("                    t{i} = " + _POST_FILTER, d, "\n"),
        estimate=_estimate(d, est_component, 20), finite=_terms("isfinite(t{i})", d, " and "),
        rotate=_terms("        q{i}, m{i}, n{i} = m{i}, n{i}, t{i}", d, "\n"),
        divisor=_DOUBLING_DIVISOR)
    loop, = _compile(namespace, f"loop d={d} est_component={est_component}", source)
    return loop
