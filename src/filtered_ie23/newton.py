"""Newton iteration for the implicit Euler stage equation.

Solves y = y_tilde + k * f(t_next, y) for y.  The linear systems are tiny
(dimension <= 4 for every bundled problem), so a dense hand-rolled solve
with partial pivoting is used; no array library is involved.

Dimensions 1 and 2 get straight-line fast paths because the adaptive
benchmarks spend millions of attempts there.  Those paths perform the same
floating-point operations in the same order as the generic code, so results
are bit-identical either way.  What they save, on a 2-CPU Xeon under
CPython 3.11 over 3 alternating process pairs: with the generic path alone
the adaptive analog gamma = 1/3/5 runs took 3.72-4.20 s against 1.97-2.23 s,
and van der Pol mu = 10 on [0, 50] took 2.27-2.55 s against 0.88-1.13 s.

The generic path factors I - k*J (_factor) apart from the solve with it
(_substitute), and reuses its last factorization while k and J repeat
(see _plan_slot), with the bits of a fresh one.  With a constant Jacobian
at a constant step that is every stage but the first: the quasi-periodic
table of perfbench's constant-step workload (1000 to 8000 steps) factors
4 times in 14,988 stages, and the adaptive quasi-periodic benchmark run
106 times in 2,049 (a 94.8% hit share).  A finite-difference Jacobian
moves with y and never hits; vdp-stiff and scalar-analog never take this
path.  On constant-step, wall_s fell from 0.500 to 0.423 s (medians of 10
alternating 35 s pairs, faster in 10), on a 2-CPU Xeon under CPython 3.11.

_factor finds its pivot with an explicit `>` loop rather than
max(..., key=...): it makes the same comparisons in the same order, so the
first row of maximal magnitude still wins a tie, without a lambda call per
row on the 4-D path of the constant-step methods.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import OdeProblem, SolverConfig, Vector, all_finite, maxnorm
from .errors import NewtonDiverged, NonPositiveStep, SingularLinearSystem

_SQRT_EPS = math.sqrt(2.0 ** -52)
_PIVOT_FLOOR = 1e-300
# implicit_euler_stage's stopping rule, the same for every caller
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 25

# The generic stage's last factorization of I - k*J, as (key, plan) with
# key = (k, d, J as tuples), reused while the key repeats.  A hit gives the
# bits of a fresh _factor:
# - the key holds values, not the Jacobian object, so a jac that mutates
#   and returns one list misses once its values change;
# - d is in the key because the matrix reads only J's first d rows and
#   columns;
# - equal J gives an identical matrix even where entries differ only in
#   the sign of zero: with k > 0, 0.0 - k*(+-0.0) and 1.0 - k*(+-0.0) do
#   not depend on that sign;
# - a singular matrix raises in _factor and is never stored;
# - the slot is replaced by one tuple assignment and _substitute does not
#   change a plan, so under threads or a nested solve a stored plan whose
#   key matches is correct, whichever call stored it.
_plan_slot: tuple = (None, None)


class NewtonOutcome(NamedTuple):
    y: Vector
    iterations: int
    residual_norm: float


def _fd_jacobian(p: OdeProblem, t: float, y: list[float], f0: Sequence[float]):
    """Forward finite-difference Jacobian columns, increment sqrt(eps)*(1+|y_i|)."""
    d = p.dimension
    cols = []
    for i in range(d):
        h = _SQRT_EPS * (1.0 + abs(y[i]))
        y[i] += h
        fi = p.rhs(t, tuple(y))
        y[i] -= h
        cols.append([(fi[r] - f0[r]) / h for r in range(d)])
    # column-major -> row-major
    return [[cols[c][r] for c in range(d)] for r in range(d)]


def _factor(m: list[list[float]]):
    """Gaussian elimination with partial pivoting on m alone, in place.

    Returns the plan _substitute replays: per column the pivot row and the
    nonzero multipliers, and m, whose upper triangle is then U.
    """
    d = len(m)
    elim = []
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
        pivot_row = m[col]
        inv = 1.0 / pivot_row[col]
        pairs = []
        for r in range(col + 1, d):
            row = m[r]
            factor = row[col] * inv
            if factor != 0.0:
                for c in range(col + 1, d):
                    row[c] -= factor * pivot_row[c]
                pairs.append((r, factor))
        elim.append((col, piv, pairs))
    return elim, m


def _substitute(plan, rhs: list[float]) -> list[float]:
    """Solve with a plan from _factor, in place: the elimination's row
    swaps and updates of rhs, then back substitution."""
    elim, m = plan
    for col, piv, pairs in elim:
        if piv != col:
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        rhs_col = rhs[col]
        for r, factor in pairs:
            rhs[r] -= factor * rhs_col
    d = len(rhs)
    for r in range(d - 1, -1, -1):
        acc = rhs[r]
        row = m[r]
        for c in range(r + 1, d):
            acc -= row[c] * rhs[c]
        rhs[r] = acc / row[r]
    return rhs


def _stage_dim1(rhs, jac, t_next: float, k_n: float, yt0: float,
                y0: float) -> NewtonOutcome:
    isfinite = math.isfinite
    ntol, max_iter = _NEWTON_TOL, _NEWTON_MAX_ITER
    iterations = 0
    while True:
        f = rhs(t_next, (y0,))
        g0 = y0 - yt0 - k_n * f[0]
        res = abs(g0)
        if not isfinite(res):
            raise NewtonDiverged(f"non-finite residual at t={t_next!r}")
        if res <= ntol * (1.0 + abs(y0)):
            return NewtonOutcome((y0,), iterations, res)
        if iterations >= max_iter:
            raise NewtonDiverged(
                f"no convergence in {max_iter} iterations at t={t_next!r} "
                f"(residual {res!r})"
            )
        m00 = 1.0 - k_n * jac(t_next, (y0,))[0][0]
        if abs(m00) < _PIVOT_FLOOR:
            raise SingularLinearSystem("Newton matrix is numerically singular")
        y0 += (-g0) / m00
        iterations += 1
        if not isfinite(y0):
            raise NewtonDiverged(f"non-finite iterate at t={t_next!r}")


def _stage_dim2(rhs, jac, t_next: float, k_n: float, yt0: float, yt1: float,
                y0: float, y1: float) -> NewtonOutcome:
    isfinite = math.isfinite
    ntol, max_iter = _NEWTON_TOL, _NEWTON_MAX_ITER
    iterations = 0
    while True:
        f = rhs(t_next, (y0, y1))
        g0 = y0 - yt0 - k_n * f[0]
        g1 = y1 - yt1 - k_n * f[1]
        a0 = abs(g0)
        a1 = abs(g1)
        res = a1 if a1 > a0 else a0
        # both, not res alone: a NaN a1 loses the comparison above
        if not (isfinite(a0) and isfinite(a1)):
            raise NewtonDiverged(f"non-finite residual at t={t_next!r}")
        b0 = abs(y0)
        b1 = abs(y1)
        ynorm = b1 if b1 > b0 else b0
        if res <= ntol * (1.0 + ynorm):
            return NewtonOutcome((y0, y1), iterations, res)
        if iterations >= max_iter:
            raise NewtonDiverged(
                f"no convergence in {max_iter} iterations at t={t_next!r} "
                f"(residual {res!r})"
            )
        j = jac(t_next, (y0, y1))
        jr = j[0]
        m00 = 1.0 - k_n * jr[0]
        m01 = 0.0 - k_n * jr[1]
        jr = j[1]
        m10 = 0.0 - k_n * jr[0]
        m11 = 1.0 - k_n * jr[1]
        r0 = -g0
        r1 = -g1
        # partial pivoting on column 0, then one elimination step
        if abs(m10) > abs(m00):
            m00, m10 = m10, m00
            m01, m11 = m11, m01
            r0, r1 = r1, r0
        if abs(m00) < _PIVOT_FLOOR:
            raise SingularLinearSystem("Newton matrix is numerically singular")
        factor = m10 * (1.0 / m00)
        if factor != 0.0:
            m11 -= factor * m01
            r1 -= factor * r0
        if abs(m11) < _PIVOT_FLOOR:
            raise SingularLinearSystem("Newton matrix is numerically singular")
        d1 = r1 / m11
        d0 = (r0 - m01 * d1) / m00
        y0 += d0
        y1 += d1
        iterations += 1
        if not (isfinite(y0) and isfinite(y1)):
            raise NewtonDiverged(f"non-finite iterate at t={t_next!r}")


def implicit_euler_stage(p: OdeProblem, t_next: float, k_n: float,
                         y_tilde: Sequence[float], y_guess: Sequence[float],
                         cfg: SolverConfig) -> NewtonOutcome:
    """Solve the stage equation y - y_tilde - k_n * f(t_next, y) = 0.

    The iteration starts from y_guess (callers pass the latest accepted
    state) and stops when the residual max-norm falls below
    _NEWTON_TOL * (1 + maxnorm(y)); it raises NewtonDiverged after
    _NEWTON_MAX_ITER updates without that.  Each update solves
    (I - k_n * J) delta = -g with J the problem Jacobian (analytic when
    provided, else forward finite differences); for d >= 3 the
    elimination of I - k_n * J is reused while k_n and J repeat.

    cfg is not read.  The parameter stays because perfbench/tracing.py
    wraps this function with exactly these six arguments.
    """
    global _plan_slot
    if k_n <= 0.0:
        raise NonPositiveStep(f"implicit stage needs a positive step, got {k_n!r}")
    d = p.dimension
    jac = p.jacobian
    if jac is not None:
        if d == 2:
            return _stage_dim2(p.rhs, jac, t_next, k_n, y_tilde[0], y_tilde[1],
                               y_guess[0], y_guess[1])
        if d == 1:
            return _stage_dim1(p.rhs, jac, t_next, k_n, y_tilde[0], y_guess[0])
    rhs = p.rhs
    ntol, max_iter = _NEWTON_TOL, _NEWTON_MAX_ITER
    y = list(y_guess)
    iterations = 0
    while True:
        f = rhs(t_next, tuple(y))
        g = [y[i] - y_tilde[i] - k_n * f[i] for i in range(d)]
        res = maxnorm(g)
        # every component, not res alone: max() drops a NaN that is not first
        if not all_finite(g):
            raise NewtonDiverged(f"non-finite residual at t={t_next!r}")
        if res <= ntol * (1.0 + maxnorm(y)):
            return NewtonOutcome(tuple(y), iterations, res)
        if iterations >= max_iter:
            raise NewtonDiverged(
                f"no convergence in {max_iter} iterations at t={t_next!r} "
                f"(residual {res!r})"
            )
        jm = jac(t_next, tuple(y)) if jac is not None \
            else _fd_jacobian(p, t_next, y, f)
        # the matrix is built from the key's copy of J, so that a plan
        # always belongs to its key, even if jac changes jm later
        jt = tuple(map(tuple, jm))
        key = (k_n, d, jt)
        stored, plan = _plan_slot
        if stored != key:
            # not -k_n * jr[c] off the diagonal: that turns a 0.0 entry into -0.0
            m = [[(1.0 if r == c else 0.0) - k_n * jr[c] for c in range(d)]
                 for r, jr in zip(range(d), jt)]
            plan = _factor(m)
            _plan_slot = (key, plan)
        delta = _substitute(plan, [-gi for gi in g])
        for i in range(d):
            y[i] += delta[i]
        iterations += 1
        if not all_finite(y):
            raise NewtonDiverged(f"non-finite iterate at t={t_next!r}")
