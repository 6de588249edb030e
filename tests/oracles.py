"""Oracles that the tests pin the package's formulas to: exact-arithmetic
ones, and the generic Newton elimination as a reference stage."""

from fractions import Fraction

from filtered_ie23 import DegenerateBeta, NewtonDiverged, NonPositiveStep
from filtered_ie23.core import all_finite, maxnorm
from filtered_ie23.newton import _NEWTON_MAX_ITER, _NEWTON_TOL, _factor, _substitute


def beta_oracle(k_n: float, k_nm1: float, k_nm2: float, k_nm3: float) -> float:
    """Numerical oracle for filters._beta: solve the cubic-exactness equation.

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


def reference_stage(p, t_next, k_n, y_tilde, y_guess):
    """implicit_euler_stage by the generic path's elimination alone: the
    same residual, stopping rule and failures, with the analytic Jacobian,
    a fresh _factor of I - k_n*J for every update and no plan reuse.
    Returns (y, iterations, residual_norm)."""
    d = p.dimension
    y = list(y_guess)
    iterations = 0
    while True:
        f = p.rhs(t_next, tuple(y))
        g = [y[i] - y_tilde[i] - k_n * f[i] for i in range(d)]
        res = maxnorm(g)
        if not all_finite(g):
            raise NewtonDiverged("non-finite residual")
        if res <= _NEWTON_TOL * (1.0 + maxnorm(y)):
            return tuple(y), iterations, res
        if iterations >= _NEWTON_MAX_ITER:
            raise NewtonDiverged("no convergence")
        jm = p.jacobian(t_next, tuple(y))
        m = [[(1.0 if r == c else 0.0) - k_n * jm[r][c] for c in range(d)]
             for r in range(d)]
        delta = _substitute(_factor(m), [-gi for gi in g])
        y = [y[i] + delta[i] for i in range(d)]
        iterations += 1
        if not all_finite(y):
            raise NewtonDiverged("non-finite iterate")
