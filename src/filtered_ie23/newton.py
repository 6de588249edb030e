"""Newton iteration for the implicit Euler stage equation.

Solves y = y_tilde + k * f(t_next, y) for y.  The linear systems are tiny
(dimension <= 4 for every bundled problem), so a dense hand-rolled solve
with partial pivoting is used; no array library is involved.

With an analytic Jacobian, dimensions 1 and 2 take written-out branches of
implicit_euler_stage on float locals, because the adaptive benchmarks spend
millions of attempts there.  They make the generic elimination's float
operations in the same order, so they give its bits.  With the generic path
alone the analog gamma = 1/3/5 runs took 3.72-4.20 s against 1.97-2.23 s,
and van der Pol mu = 10 on [0, 50] 2.27-2.55 s against 0.88-1.13 s.  Inline
rather than in helper functions, a stage runs one Python frame: scalar-analog
wall_s fell from 0.625 to 0.596 s (BENCH_16.json); 2-CPU Xeon, CPython 3.11.

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

from math import isfinite, sqrt
from typing import NamedTuple, Sequence

from .core import OdeProblem, SolverConfig, Vector, all_finite, maxnorm
from .errors import (DimensionMismatch, NewtonDiverged, NonPositiveStep,
                     SingularLinearSystem)

_SQRT_EPS = sqrt(2.0 ** -52)
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
        yi = y[i]
        h = _SQRT_EPS * (1.0 + abs(yi))
        y[i] = yi + h
        fi = p.rhs(t, tuple(y))
        y[i] = yi       # (yi + h) - h need not round back to yi
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
    y_tilde and y_guess must have p.dimension components each, and
    p.dimension must be at least 1, else DimensionMismatch.

    cfg is not read.  The parameter stays because perfbench/tracing.py
    wraps this function with exactly these six arguments.
    """
    global _plan_slot
    if k_n <= 0.0:
        raise NonPositiveStep(f"implicit stage needs a positive step, got {k_n!r}")
    d = p.dimension
    rhs = p.rhs
    jac = p.jacobian
    iterations = 0
    # Outcomes are built with tuple.__new__, as NamedTuple's _make does: an
    # equal object without the Python-level __new__ and its frame.
    if d == 1 and jac is not None:
        try:
            yt0, = y_tilde
            y0, = y_guess
        except ValueError:
            raise DimensionMismatch(
                f"stage needs {d} components, got {len(y_tilde)} and {len(y_guess)}") from None
        while True:
            f = rhs(t_next, (y0,))
            g0 = y0 - yt0 - k_n * f[0]
            res = abs(g0)
            if not isfinite(res):
                raise NewtonDiverged(f"non-finite residual at t={t_next!r}")
            if res <= _NEWTON_TOL * (1.0 + abs(y0)):
                return tuple.__new__(NewtonOutcome, ((y0,), iterations, res))
            if iterations >= _NEWTON_MAX_ITER:
                raise NewtonDiverged(
                    f"no convergence in {_NEWTON_MAX_ITER} iterations at "
                    f"t={t_next!r} (residual {res!r})")
            m00 = 1.0 - k_n * jac(t_next, (y0,))[0][0]
            if abs(m00) < _PIVOT_FLOOR:
                raise SingularLinearSystem("Newton matrix is numerically singular")
            y0 += (-g0) / m00
            iterations += 1
            if not isfinite(y0):
                raise NewtonDiverged(f"non-finite iterate at t={t_next!r}")
    if d == 2 and jac is not None:
        try:
            yt0, yt1 = y_tilde
            y0, y1 = y_guess
        except ValueError:
            raise DimensionMismatch(
                f"stage needs {d} components, got {len(y_tilde)} and {len(y_guess)}") from None
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
            if res <= _NEWTON_TOL * (1.0 + (b1 if b1 > b0 else b0)):
                return tuple.__new__(NewtonOutcome, ((y0, y1), iterations, res))
            if iterations >= _NEWTON_MAX_ITER:
                raise NewtonDiverged(
                    f"no convergence in {_NEWTON_MAX_ITER} iterations at "
                    f"t={t_next!r} (residual {res!r})")
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
    if d < 1 or len(y_tilde) != d or len(y_guess) != d:
        raise DimensionMismatch(
            f"stage needs {d} components, got {len(y_tilde)} and {len(y_guess)}")
    y = list(y_guess)
    while True:
        f = rhs(t_next, tuple(y))
        g = [y[i] - y_tilde[i] - k_n * f[i] for i in range(d)]
        res = maxnorm(g)
        # every component, not res alone: max() drops a NaN that is not first
        if not all_finite(g):
            raise NewtonDiverged(f"non-finite residual at t={t_next!r}")
        if res <= _NEWTON_TOL * (1.0 + maxnorm(y)):
            return tuple.__new__(NewtonOutcome, (tuple(y), iterations, res))
        if iterations >= _NEWTON_MAX_ITER:
            raise NewtonDiverged(
                f"no convergence in {_NEWTON_MAX_ITER} iterations at "
                f"t={t_next!r} (residual {res!r})")
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
