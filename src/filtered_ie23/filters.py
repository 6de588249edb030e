"""Discrete curvature, the pre/post filter coefficients, and the embedded
error estimate.

All formulas act componentwise on state vectors.  Step-size arguments
follow the naming k_n (candidate step), k_nm1, k_nm2, k_nm3 (the three
most recent accepted steps, newest first).

Each formula exists once here.  The constant-step drivers take the
curvature of the newest three states once per step from `curvature`, then
call the kernel (pre_filtered, then post_filtered or
post_filtered_uniform) on each step.  post_filtered takes beta from its
caller, who computes it once per attempt: _beta here, or the adaptive
loop's inlined copy of it.

The adaptive loop (adaptive.solve_filtered_ie23) calls curvature,
pre_filtered and post_filtered for three or more components.  For one and
two it writes them out on float locals, with the same floating-point
operations in the same order, and it inlines _beta for every dimension.
The functions here are the reference: a change to a formula here must be
made there too, and the tests compare the two bit for bit.

The per-step code of the package builds its vectors with index loops over
a local list, never with a comprehension or generator expression.  Under
CPython 3.10 and 3.11 a comprehension that reads a function's locals makes
them closure cells, which every call creates and every read goes through
(PEP 709 inlines comprehensions from 3.12 on).  Each loop here keeps the
comprehension's float operations in their order, so the same bits.  On a
2-CPU Xeon under CPython 3.11, curvature took 705 ns per 4-D call against
957 ns as a comprehension, its new length check included.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import Vector
from .errors import DimensionMismatch, NonPositiveStep

# Relative floor for the post-filter denominator.  The denominator is a
# homogeneous degree-4 polynomial of the four steps, so the floor must be
# compared against a degree-4 scale; max(steps)**4 keeps the test
# meaningful for steps both far above and far below 1.
_DEGENERACY_RTOL = 1e-12


def _beta(k_n: float, k_nm1: float, k_nm2: float,
          k_nm3: float) -> Optional[float]:
    """Post-filter gain for one candidate step, or None when its
    denominator is too close to zero for this step history.

    Closed form chosen so the complete step (pre-filter, implicit stage,
    post-filter) is exact on cubic data for any positive step history;
    the oracle in tests/oracles.py solves that defining equation in exact
    arithmetic.  On a uniform grid the ratio reduces to 5/11.
    """
    ksum = k_n + k_nm1
    num = k_n * k_n * ksum * (2.0 * k_n + 2.0 * k_nm1 + k_nm2)
    den = 2.0 * k_nm1 * (
        k_n * ksum * (3.0 * k_n + 2.0 * k_nm1)
        + k_nm2 * (4.0 * k_n * k_n + 2.0 * k_n * k_nm1 - k_nm1 * k_nm1)
        - 2.0 * k_nm2 * k_nm2 * ksum
        + 3.0 * k_nm3 * (k_n - k_nm2) * ksum
    )
    scale = max(k_n, k_nm1, k_nm2, k_nm3) ** 4
    if abs(den) < _DEGENERACY_RTOL * max(scale, abs(num)):
        return None
    return num / den


def _estimate(y_second: Sequence[float], y_third: Sequence[float],
              component: Optional[int]) -> float:
    if component is not None:
        return abs(y_third[component] - y_second[component])
    # max()'s rule: replace only on a > est, so a NaN counts only in the
    # first component
    est = abs(y_third[0] - y_second[0])
    for i in range(1, len(y_second)):
        a = abs(y_third[i] - y_second[i])
        if a > est:
            est = a
    return est


def pre_filtered(k_n: float, k_nm1: float, k_nm2: float, y_n: Sequence[float],
                 kappa_prev: Sequence[float]) -> Vector:
    """The state handed to the implicit stage: y_n with half the
    alpha-scaled trailing curvature kappa_prev removed."""
    half_a = 0.5 * (k_n * k_n / (k_nm1 * k_nm2))    # alpha: 1 on a uniform grid
    y_tilde = []
    for i in range(len(y_n)):
        y_tilde.append(y_n[i] - half_a * kappa_prev[i])
    return tuple(y_tilde)


def post_filtered(beta: float, k_n: float, k_nm1: float,
                  y_nm1: Sequence[float], y_n: Sequence[float],
                  kappa_prev: Sequence[float], y_second: Sequence[float],
                  component: Optional[int]) -> tuple[Vector, float]:
    """The third-order value of a step whose implicit stage gave y_second,
    and the embedded estimate; beta is _beta of the step's history."""
    kappa = curvature(k_nm1, k_n, y_nm1, y_n, y_second)
    y_third = []
    for i in range(len(y_second)):
        y_third.append(y_second[i] - beta * (kappa[i] - kappa_prev[i]))
    y_third = tuple(y_third)
    return y_third, _estimate(y_second, y_third, component)


def post_filtered_uniform(y_nm2: Sequence[float], y_nm1: Sequence[float],
                          y_n: Sequence[float], y_second: Sequence[float],
                          component: Optional[int]) -> tuple[Vector, float]:
    """post_filtered at beta = 5/11 in closed form, a few ulps off the
    general form; perfbench/pins.json pins the constant-step answers made
    with it (post_filtered moves the 2000-step quasi-periodic error)."""
    y_third = []
    for i in range(len(y_second)):
        y_third.append(y_second[i] - 5.0 / 11.0 * (
            y_second[i] - 3.0 * y_n[i] + 3.0 * y_nm1[i] - y_nm2[i]))
    y_third = tuple(y_third)
    return y_third, _estimate(y_second, y_third, component)


def curvature(k_prev: float, k_cur: float,
              y_prev: Sequence[float], y_mid: Sequence[float],
              y_next: Sequence[float]) -> Vector:
    """Weighted second difference of three consecutive states.

    Equals k_prev*k_cur times the second derivative of the quadratic
    through the points (t-k_prev-k_cur, y_prev), (t-k_cur, y_mid),
    (t, y_next); on a uniform grid it reduces to the plain second
    difference y_next - 2*y_mid + y_prev.  The three states must have
    equal lengths, else DimensionMismatch.
    """
    if k_prev <= 0.0 or k_cur <= 0.0:
        raise NonPositiveStep(f"curvature needs positive steps, got {k_prev!r}, {k_cur!r}")
    d = len(y_mid)
    if len(y_prev) != d or len(y_next) != d:
        raise DimensionMismatch(
            f"curvature needs states of equal length, got {len(y_prev)}, {d} "
            f"and {len(y_next)}")
    s = k_cur + k_prev
    w_next = 2.0 * k_prev / s
    w_prev = 2.0 * k_cur / s
    kappa = []
    for i in range(d):
        kappa.append(w_next * y_next[i] - 2.0 * y_mid[i] + w_prev * y_prev[i])
    return tuple(kappa)
