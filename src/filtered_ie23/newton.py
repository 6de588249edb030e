"""Newton iteration for the implicit Euler stage equation y = y_tilde +
k * f(t_next, y), with a dense hand-rolled solve with partial pivoting: the
systems are tiny (d <= 4 in every bundled problem).  With an analytic
Jacobian, d = 1 and d = 2 take written-out branches on float locals with the
generic elimination's float operations in the same order, so with its bits.

The generic path (d >= 3) reuses its last factorization of I - k*J while k
and J repeat (_plan_slot); a jac that returns the stored J itself hits on
identity, with no key built.  A miss eliminates the matrix and the
right-hand side in one pass (_factor); a plan's first reuse writes out U's
rows, from which every later hit replays the solve inline.  Like all
per-step code, the stage and _fd_jacobian have no comprehension that reads
their locals (the rule is in filters.py's docstring); 5 cells cost the
d = 1 stage about 0.12 us.  Medians of 10 alternating 35 s perfbench
pairs (2-CPU Xeon, CPython 3.11): the reuse took constant-step wall_s from
0.500 to 0.423 s (BENCH_12.json), and this stage from 0.409 to 0.359 s
(BENCH_18.json).
"""

from __future__ import annotations

from math import isfinite, sqrt
from operator import add, is_
from typing import NamedTuple, Sequence

from .core import OdeProblem, SolverConfig, Vector, short_rhs
from .errors import (DimensionMismatch, NewtonDiverged, NonPositiveStep,
                     SingularLinearSystem)

_SQRT_EPS = sqrt(2.0 ** -52)
_PIVOT_FLOOR = 1e-300
# implicit_euler_stage's stopping rule, the same for every caller
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 25

# The generic stage's last factorization of I - k*J, as (key, plan, replay)
# with key = (k, d, J as tuples) and replay None until the plan's first
# reuse.  A hit gives the bits of a miss, which eliminates the matrix and
# the right-hand side in one pass: the key holds J's values, so a jac that
# mutates and returns one list misses once they change, and J itself only
# as an exact tuple of exact tuples, whose rows cannot change; the matrix
# reads only J's first d rows and columns, hence d; with k > 0,
# 0.0 - k*(+-0.0) and 1.0 - k*(+-0.0) do not depend on the sign of the zero;
# a singular matrix raises in _factor and is never stored.  The slot is
# replaced by one tuple assignment and nothing in it changes, so under
# threads or a nested solve a stored plan whose key matches is correct.
_plan_slot: tuple = (None, None, None)


class NewtonOutcome(NamedTuple):
    y: Vector
    iterations: int
    residual_norm: float


def _fd_jacobian(p: OdeProblem, t: float, y: list[float], f0: Sequence[float]):
    """Forward finite-difference Jacobian rows, increment sqrt(eps)*(1+|y_i|)."""
    cols = []
    for i, yi in enumerate(y):
        h = _SQRT_EPS * (1.0 + abs(yi))
        y[i] = yi + h
        fi = p.rhs(t, tuple(y))
        y[i] = yi       # (yi + h) - h need not round back to yi
        col = []
        for r in range(len(y)):
            col.append((fi[r] - f0[r]) / h)
        cols.append(col)
    return tuple(zip(*cols))


def _factor(m: list[list[float]], rhs: list[float]):
    """Gaussian elimination with partial pivoting on m and rhs together, in
    place (the first row of maximal magnitude wins a tie), then back
    substitution.  Returns the solution and the plan (updates, order, m)
    that replays the solve: each update as (i, factor, j) for rhs[i] -=
    factor * rhs[j], rows named by their index before the swaps; the row
    order after the swaps, or None; and m, whose upper triangle is U."""
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
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            order[col], order[piv] = order[piv], order[col]
        pivot_row = m[col]
        inv = 1.0 / pivot_row[col]
        for r in range(col + 1, d):
            row = m[r]
            factor = row[col] * inv
            if factor != 0.0:
                for c in range(col + 1, d):
                    row[c] -= factor * pivot_row[c]
                rhs[r] -= factor * rhs[col]
                updates.append((order[r], factor, order[col]))
    for r in range(d - 1, -1, -1):
        acc = rhs[r]
        row = m[r]
        for c in range(r + 1, d):
            acc -= row[c] * rhs[c]
        rhs[r] = acc / row[r]
    return rhs, (updates, (None if order == sorted(order) else order), m)


def implicit_euler_stage(p: OdeProblem, t_next: float, k_n: float,
                         y_tilde: Sequence[float], y_guess: Sequence[float],
                         cfg: SolverConfig) -> NewtonOutcome:
    """Solve the stage equation y - y_tilde - k_n * f(t_next, y) = 0.

    Newton's iteration starts from y_guess (callers pass the latest accepted
    state), stops once max |g_i| <= _NEWTON_TOL * (1 + max |y_i|) for the
    residual g, and raises NewtonDiverged after _NEWTON_MAX_ITER updates
    without that.  Each update solves (I - k_n * J) delta = -g, with J
    analytic when provided, else forward finite differences; for d >= 3 the
    elimination is reused while k_n and J repeat.  y_tilde and y_guess need
    p.dimension >= 1 components each and rhs values at least as many, else
    DimensionMismatch.  cfg is not read: perfbench/tracing.py wraps this
    function with these six arguments.
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
            try:
                g0 = y0 - yt0 - k_n * f[0]
            except IndexError as err:
                raise short_rhs(p, err, f)
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
            try:
                g0 = y0 - yt0 - k_n * f[0]
                g1 = y1 - yt1 - k_n * f[1]
            except IndexError as err:
                raise short_rhs(p, err, f)
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
    y = tuple(y_guess)
    while True:
        f = rhs(t_next, y)
        # -g, the solve's right-hand side; k_n * f[i] - (y[i] - y_tilde[i])
        # would give +0.0 where -g is -0.0
        b = []
        try:
            for i in range(d):
                b.append(-(y[i] - y_tilde[i] - k_n * f[i]))
        except IndexError as err:
            raise short_rhs(p, err, f)
        res = max(map(abs, b))
        # every component, not res alone: max() drops a NaN that is not first
        if not all(map(isfinite, b)):
            raise NewtonDiverged(f"non-finite residual at t={t_next!r}")
        # a finite residual means a finite y, and then 1 + max|y_i| >= 1
        if res <= _NEWTON_TOL or res <= _NEWTON_TOL * (1.0 + max(map(abs, y))):
            return tuple.__new__(NewtonOutcome, (y, iterations, res))
        if iterations >= _NEWTON_MAX_ITER:
            raise NewtonDiverged(
                f"no convergence in {_NEWTON_MAX_ITER} iterations at "
                f"t={t_next!r} (residual {res!r})")
        jm = jac(t_next, y) if jac is not None \
            else _fd_jacobian(p, t_next, list(y), f)
        key, plan, replay = _plan_slot
        if key is None or key[2] is not jm or key[0] != k_n or key[1] != d:
            jt = tuple(map(tuple, jm))   # the matrix's J: jac may change jm later
            if key != (k_n, d, jt):
                # not -k_n * jr[c] off the diagonal: that turns a 0.0 entry into -0.0
                m = []
                for r, jr in zip(range(d), jt):
                    row = []
                    for c in range(d):
                        row.append((1.0 if r == c else 0.0) - k_n * jr[c])
                    m.append(row)
                b, plan = _factor(m, b)
                replay = None
                _plan_slot = ((k_n, d, jt), plan, None)
            elif replay is None:
                # the plan's first reuse: U's rows as (r, ((c, U[r][c]) for c > r), U[r][r])
                replay = [(r, list(enumerate(row))[r + 1:], row[r])
                          for r, row in enumerate(plan[2])][::-1]
                if type(jm) is tuple and all(map(is_, jm, jt)):
                    jt = jm     # rows that cannot change: hit on identity
                _plan_slot = ((k_n, d, jt), plan, replay)
        if replay is not None:
            # the plan's solve of b, with U's rows from the replay, last first
            updates, order, _ = plan
            for i, factor, j in updates:
                b[i] -= factor * b[j]
            if order:
                b = list(map(b.__getitem__, order))
            for r, upper, diag in replay:
                acc = b[r]
                for c, u in upper:
                    acc -= u * b[c]
                b[r] = acc / diag
        y = tuple(map(add, y, b))
        iterations += 1
        if not all(map(isfinite, y)):
            raise NewtonDiverged(f"non-finite iterate at t={t_next!r}")
