"""Oracles that the tests pin the package's formulas to: exact-arithmetic
ones; the filters as plain loops over the components, the reference for
the kernels that filters.kernels writes out per dimension; the generic
Newton elimination as a reference stage, solved by its own two-pass
elimination rather than the package's one-pass _factor; and the digest
that pins a whole run bit for bit."""

import dataclasses
import hashlib
import struct
from fractions import Fraction

from filtered_ie23 import (DegenerateBeta, NewtonDiverged, NonPositiveStep,
                           SingularLinearSystem)
from filtered_ie23.core import all_finite
from filtered_ie23.newton import _NEWTON_MAX_ITER, _NEWTON_TOL, _PIVOT_FLOOR


def maxnorm(v):
    """The max-norm that the stage's stopping rule reads, max |v_i|."""
    return max(map(abs, v))


def digest(traj, stats=None) -> str:
    """sha256 of every row as little-endian doubles (t, state, est, k),
    then the run's statistics, if it has any."""
    h = hashlib.sha256()
    row = struct.Struct(f"<{traj.dimension + 3}d")
    for i in range(len(traj)):
        h.update(row.pack(traj.times[i], *traj.state(i), traj.est[i], traj.ks[i]))
    if stats is not None:
        h.update(repr(dataclasses.astuple(stats)).encode())
    return h.hexdigest()


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


def curvature_oracle(w_next, w_prev, y_prev, y_mid, y_next):
    """filters.curvature's loop on its two weights, 2 k_prev / s and
    2 k_cur / s with s = k_cur + k_prev."""
    kappa = []
    for i in range(len(y_mid)):
        kappa.append(w_next * y_next[i] - 2.0 * y_mid[i] + w_prev * y_prev[i])
    return tuple(kappa)


def pre_filtered_oracle(half_a, y_n, kappa_prev):
    y_tilde = []
    for i in range(len(y_n)):
        y_tilde.append(y_n[i] - half_a * kappa_prev[i])
    return tuple(y_tilde)


def estimate_oracle(y_second, y_third, component):
    """The embedded estimate: one component's difference, or the max-norm
    by max()'s rule, replacing only on a > est, so that a NaN counts only
    in the first component."""
    if component is not None:
        return abs(y_third[component] - y_second[component])
    est = abs(y_third[0] - y_second[0])
    for i in range(1, len(y_second)):
        a = abs(y_third[i] - y_second[i])
        if a > est:
            est = a
    return est


def post_filtered_oracle(beta, v_next, v_prev, y_nm1, y_n, kappa_prev, y_second,
                         component):
    y_third = []
    for i in range(len(y_second)):
        y_third.append(y_second[i] - beta * (
            (v_next * y_second[i] - 2.0 * y_n[i] + v_prev * y_nm1[i]) - kappa_prev[i]))
    y_third = tuple(y_third)
    return y_third, estimate_oracle(y_second, y_third, component)


def post_filtered_uniform_oracle(y_nm2, y_nm1, y_n, y_second, component):
    y_third = []
    for i in range(len(y_second)):
        y_third.append(y_second[i] - 5.0 / 11.0 * (
            y_second[i] - 3.0 * y_n[i] + 3.0 * y_nm1[i] - y_nm2[i]))
    y_third = tuple(y_third)
    return y_third, estimate_oracle(y_second, y_third, component)


def two_pass_factor(m: list[list[float]]):
    """Gaussian elimination with partial pivoting on m alone, in place; the
    first row of maximal magnitude wins a tie.  Returns the plan (updates,
    order, m): each update of the right-hand side as (i, factor, j) for
    rhs[i] -= factor * rhs[j], with rows named by their index before the
    swaps; the row order after the swaps, or None; and m, whose upper
    triangle is then U."""
    d = len(m)
    order = list(range(d))
    updates = []
    for col in range(d):
        piv, best = col, abs(m[col][col])
        for r in range(col + 1, d):
            a = abs(m[r][col])
            if a > best:
                piv, best = r, a
        if best < _PIVOT_FLOOR:
            raise SingularLinearSystem("Newton matrix is numerically singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            order[col], order[piv] = order[piv], order[col]
        pivot_row = m[col]
        inv = 1.0 / pivot_row[col]
        for r in range(col + 1, d):
            row = m[r]
            factor = row[col] * inv
            if factor != 0.0:
                for c in range(col + 1, d):
                    row[c] -= factor * pivot_row[c]
                updates.append((order[r], factor, order[col]))
    return updates, (None if order == sorted(order) else order), m


def two_pass_substitute(plan, rhs: list[float]) -> list[float]:
    """Solve with a plan from two_pass_factor: the elimination's updates of
    rhs, its row swaps, then back substitution."""
    updates, order, m = plan
    for i, factor, j in updates:
        rhs[i] -= factor * rhs[j]
    if order:
        rhs = list(map(rhs.__getitem__, order))
    d = len(rhs)
    for r in range(d - 1, -1, -1):
        acc = rhs[r]
        row = m[r]
        for c in range(r + 1, d):
            acc -= row[c] * rhs[c]
        rhs[r] = acc / row[r]
    return rhs


def reference_stage(p, t_next, k_n, y_tilde, y_guess):
    """implicit_euler_stage by the generic path's elimination alone: the
    same residual, stopping rule and failures, with the analytic Jacobian,
    a fresh two-pass elimination of I - k_n*J for every update and no plan
    reuse.
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
        delta = two_pass_substitute(two_pass_factor(m), [-gi for gi in g])
        y = [y[i] + delta[i] for i in range(d)]
        iterations += 1
        if not all_finite(y):
            raise NewtonDiverged("non-finite iterate")
