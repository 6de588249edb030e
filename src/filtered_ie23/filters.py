"""Discrete curvature, the pre/post filter coefficients, and the embedded
error estimate.

All formulas act componentwise on state vectors.  Step-size arguments
follow the naming k_n (candidate step), k_nm1, k_nm2, k_nm3 (the three
most recent accepted steps, newest first).

Every driver and attempt_step take the curvature of the newest three
states once per step from `curvature`, then call the unchecked kernel
(pre_filtered, post_filtered, post_filtered_uniform) on each attempt.
Each kernel call makes at most one call of its own (_beta_parts), as
further calls measurably slowed the drivers, so it repeats the alpha,
curvature, filter and estimate expressions of the checked functions;
the tests pin the two to each other bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import HistoryWindow, Vector
from .errors import DegenerateBeta, DimensionMismatch, NonPositiveStep

# Relative floor for the post-filter denominator.  The denominator is a
# homogeneous degree-4 polynomial of the four steps, so the floor must be
# compared against a degree-4 scale; max(steps)**4 keeps the test
# meaningful for steps both far above and far below 1.
_DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class FilterCoefficients:
    """Pre- and post-filter coefficients for one candidate step."""

    alpha: float
    beta: float
    beta_num: float
    beta_den: float


def _beta_parts(k_n: float, k_nm1: float, k_nm2: float,
                k_nm3: float) -> tuple[float, float, bool]:
    """beta's numerator and denominator, and whether the latter is degenerate."""
    ksum = k_n + k_nm1
    num = k_n * k_n * ksum * (2.0 * k_n + 2.0 * k_nm1 + k_nm2)
    den = 2.0 * k_nm1 * (
        k_n * ksum * (3.0 * k_n + 2.0 * k_nm1)
        + k_nm2 * (4.0 * k_n * k_n + 2.0 * k_n * k_nm1 - k_nm1 * k_nm1)
        - 2.0 * k_nm2 * k_nm2 * ksum
        + 3.0 * k_nm3 * (k_n - k_nm2) * ksum
    )
    scale = max(k_n, k_nm1, k_nm2, k_nm3) ** 4
    return num, den, abs(den) < _DEGENERACY_RTOL * max(scale, abs(num))


def _estimate(y_second: Sequence[float], y_third: Sequence[float],
              component: Optional[int]) -> float:
    if component is not None:
        return abs(y_third[component] - y_second[component])
    return max([abs(y_third[i] - y_second[i]) for i in range(len(y_second))])


def pre_filtered(k_n: float, k_nm1: float, k_nm2: float, y_n: Sequence[float],
                 kappa_prev: Sequence[float]) -> Vector:
    """pre_filter of the window whose trailing curvature is kappa_prev."""
    half_a = 0.5 * (k_n * k_n / (k_nm1 * k_nm2))    # alpha_coeff, inlined
    return tuple([y_n[i] - half_a * kappa_prev[i] for i in range(len(y_n))])


def post_filtered(k_n: float, k_nm1: float, k_nm2: float, k_nm3: float,
                  y_nm1: Sequence[float], y_n: Sequence[float],
                  kappa_prev: Sequence[float], y_second: Sequence[float],
                  component: Optional[int]) -> Optional[tuple[Vector, float]]:
    """The third-order value of a step whose implicit stage gave y_second,
    and the embedded estimate; None when beta is degenerate at k_n."""
    num, den, degenerate = _beta_parts(k_n, k_nm1, k_nm2, k_nm3)
    if degenerate:
        return None
    beta = num / den
    # curvature(k_nm1, k_n, y_nm1, y_n, y_second), fused into the filter
    s = k_n + k_nm1
    w_next = 2.0 * k_nm1 / s
    w_prev = 2.0 * k_n / s
    y_third = tuple([
        y_second[i] - beta * (
            (w_next * y_second[i] - 2.0 * y_n[i] + w_prev * y_nm1[i]) - kappa_prev[i])
        for i in range(len(y_second))
    ])
    if component is not None:                        # _estimate, inlined
        return y_third, abs(y_third[component] - y_second[component])
    return y_third, max([abs(y_third[i] - y_second[i]) for i in range(len(y_second))])


def post_filtered_uniform(y_nm2: Sequence[float], y_nm1: Sequence[float],
                          y_n: Sequence[float], y_second: Sequence[float],
                          component: Optional[int]) -> tuple[Vector, float]:
    """post_filtered at beta = 5/11 in closed form, a few ulps off the
    general form; perfbench/pins.json pins the constant-step answers made
    with it (post_filtered moves the 2000-step quasi-periodic error)."""
    y_third = tuple([
        y_second[i] - 5.0 / 11.0 * (
            y_second[i] - 3.0 * y_n[i] + 3.0 * y_nm1[i] - y_nm2[i])
        for i in range(len(y_second))
    ])
    return y_third, _estimate(y_second, y_third, component)


def curvature(k_prev: float, k_cur: float,
              y_prev: Sequence[float], y_mid: Sequence[float],
              y_next: Sequence[float]) -> Vector:
    """Weighted second difference of three consecutive states.

    Equals k_prev*k_cur times the second derivative of the quadratic
    through the points (t-k_prev-k_cur, y_prev), (t-k_cur, y_mid),
    (t, y_next); on a uniform grid it reduces to the plain second
    difference y_next - 2*y_mid + y_prev.
    """
    if k_prev <= 0.0 or k_cur <= 0.0:
        raise NonPositiveStep(f"curvature needs positive steps, got {k_prev!r}, {k_cur!r}")
    s = k_cur + k_prev
    w_next = 2.0 * k_prev / s
    w_prev = 2.0 * k_cur / s
    return tuple([w_next * y_next[i] - 2.0 * y_mid[i] + w_prev * y_prev[i]
                  for i in range(len(y_mid))])


def alpha_coeff(k_n: float, k_nm1: float, k_nm2: float) -> float:
    """Pre-filter gain; 1 on a uniform grid."""
    if k_n <= 0.0 or k_nm1 <= 0.0 or k_nm2 <= 0.0:
        raise NonPositiveStep("alpha_coeff needs positive steps")
    return k_n * k_n / (k_nm1 * k_nm2)


def beta_coeff(k_n: float, k_nm1: float, k_nm2: float, k_nm3: float) -> FilterCoefficients:
    """Post-filter gain for one candidate step.

    Closed form chosen so the complete step (pre-filter, implicit stage,
    post-filter) is exact on cubic data for any positive step history;
    see beta_oracle for the defining equation.  On a uniform grid the
    ratio reduces to 5/11.

    Raises DegenerateBeta when the denominator is too close to zero, in
    which case the caller is expected to retry with a different k_n.
    """
    if min(k_n, k_nm1, k_nm2, k_nm3) <= 0.0:
        raise NonPositiveStep("beta_coeff needs positive steps")
    num, den, degenerate = _beta_parts(k_n, k_nm1, k_nm2, k_nm3)
    if degenerate:
        raise DegenerateBeta(
            f"post-filter denominator {den!r} vanishes for steps "
            f"({k_n!r}, {k_nm1!r}, {k_nm2!r}, {k_nm3!r})"
        )
    return FilterCoefficients(
        alpha=alpha_coeff(k_n, k_nm1, k_nm2),
        beta=num / den,
        beta_num=num,
        beta_den=den,
    )


def beta_oracle(k_n: float, k_nm1: float, k_nm2: float, k_nm3: float) -> float:
    """Numerical oracle for beta_coeff: solve the cubic-exactness equation.

    Lay out the grid t0..t4 implied by the four steps, put y = t^3 on it,
    run the pre-filter and the (y-independent) implicit stage for the last
    step, and choose beta so the post-filtered value lands exactly on
    t4^3.  The condition is linear in beta; return its root.  The whole
    construction is rational in the steps, so it is evaluated in exact
    Fraction arithmetic and carries no rounding error of its own.
    """
    if min(k_n, k_nm1, k_nm2, k_nm3) <= 0.0:
        raise NonPositiveStep("beta_oracle needs positive steps")
    kn, k1, k2, k3 = (Fraction(k) for k in (k_n, k_nm1, k_nm2, k_nm3))
    t1 = k3
    t2 = t1 + k2
    t3 = t2 + k1
    t4 = t3 + kn
    y1, y2, y3 = t1 ** 3, t2 ** 3, t3 ** 3

    kappa_prev = (2 * k2 * y3 - 2 * (k2 + k1) * y2 + 2 * k1 * y1) / (k2 + k1)
    y_tilde = y3 - kn * kn * kappa_prev / (2 * k1 * k2)
    # implicit stage with rhs f(t) = 3 t^2 (y-independent, so exact)
    y_ie = y_tilde + 3 * kn * t4 * t4
    kappa_cur = (2 * k1 * y_ie - 2 * (k1 + kn) * y3 + 2 * kn * y2) / (k1 + kn)
    dk = kappa_cur - kappa_prev
    if dk == 0:
        raise DegenerateBeta("curvature difference vanishes on cubic data")
    return float((y_ie - t4 ** 3) / dk)


def pre_filter(w: HistoryWindow, alpha: float) -> Vector:
    """State handed to the implicit stage: the newest window state with
    half the (alpha-scaled) trailing curvature removed."""
    kappa_prev = curvature(w.k_nm2, w.k_nm1, *w.states[1:])
    half_a = 0.5 * alpha
    return tuple([w.y_n[i] - half_a * kappa_prev[i] for i in range(len(kappa_prev))])


def post_filter(y_next: Sequence[float], w: HistoryWindow, k_n: float,
                beta: float) -> Vector:
    """Third-order correction of the implicit-stage output."""
    kappa_prev = curvature(w.k_nm2, w.k_nm1, *w.states[1:])
    kappa_cur = curvature(w.k_nm1, k_n, w.states[2], w.states[3], y_next)
    return tuple([y_next[i] - beta * (kappa_cur[i] - kappa_prev[i])
                  for i in range(len(y_next))])


def error_estimate(y_second: Sequence[float], y_third: Sequence[float],
                   component: Optional[int] = None) -> float:
    """Embedded error estimate: the distance between the second- and
    third-order values.

    By default this is the max-norm over components; pass `component` to
    read a single component instead (problems can request this through
    OdeProblem.est_component).
    """
    if len(y_second) != len(y_third):
        raise DimensionMismatch(
            f"estimate over vectors of lengths {len(y_second)} and {len(y_third)}"
        )
    return _estimate(y_second, y_third, component)
