"""Newton iteration for the implicit Euler stage equation y = y_tilde +
k * f(t_next, y), with a dense hand-rolled solve with partial pivoting: the
systems are tiny (d <= 4 in every bundled problem).  With an analytic
Jacobian, d = 1 and d = 2 take written-out branches on float locals with the
generic elimination's float operations in the same order, so with its bits.

Every other stage (d >= 3, and finite differences at every d) runs a
kernel written out for its dimension.  _stage_kernel fills one source
template for d and compiles it once with core._compile.  Its residual, max-norms,
finiteness tests, stopping rule and update are the generic iteration's,
on locals y0, y1, ..., with the float operations in their order.  It takes
each update from _newton_update, ordinary source, which reuses its last
factorization of I - k*J while k and J repeat (_plan_slot); a jac that
returns the stored J itself hits on identity, with no key built.  A miss
eliminates the matrix and the right-hand side in one pass (_factor).  A
plan's first reuse gets the straight-line solve of its pattern (its
dimension, the (i, j) of its updates and its row order), compiled once per
pattern (_replay); every later hit calls it with the multipliers and U's
entries as one tuple.  Values never enter the source, so -0.0, subnormals
and zero entries keep their bits.  A kernel's source grows with d and a
replay's with d**2: compiling took about 0.45 ms for a kernel at d = 4,
and 0.37 ms for a dense replay at d = 8 and 15 ms at d = 50.

Like all per-step code, the stages, _newton_update and _fd_jacobian have
no comprehension that reads their locals (the rule is in filters.py's
docstring); 5 cells cost the d = 1 stage about 0.12 us.  Medians of 10
alternating 35 s perfbench pairs (2-CPU Xeon, CPython 3.11): the reuse took
constant-step wall_s from 0.500 to 0.423 s (BENCH_12.json), the one-pass
generic stage from 0.409 to 0.359 s (BENCH_18.json), and the written-out
kernel from 0.274 to 0.240 s (BENCH_27.json).
"""

from __future__ import annotations

import linecache
from functools import lru_cache
from math import isfinite, sqrt
from operator import is_
from typing import NamedTuple, Sequence

from .core import (OdeProblem, SolverConfig, Vector, _compile, _names, _running_max,
                   _terms, short_rhs)
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

# Compiled replays by pattern (_replay); a full cache is cleared
_REPLAY_CACHE_SIZE = 64
_replays: dict = {}


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
    analytic when provided, else forward finite differences; off the d <= 2
    analytic branches the elimination is reused while k_n and J repeat.
    y_tilde and y_guess need p.dimension >= 1 components each and rhs
    values at least as many, else DimensionMismatch.  cfg is not read:
    perfbench/tracing.py wraps this function with these six arguments.
    """
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
    if d < 1:
        raise DimensionMismatch(
            f"stage needs {d} components, got {len(y_tilde)} and {len(y_guess)}")
    # the update reaches the kernel as an argument: generated code reads no
    # name that this module's own source does not
    return _stage_kernel(d)(p, t_next, k_n, y_tilde, y_guess, _newton_update)


def _newton_update(p: OdeProblem, t_next: float, k_n: float, y: Vector,
                   f: Sequence[float], b: Vector):
    """The Newton update at the iterate y, whose rhs values are f: the
    solution of (I - k_n * J) delta = b, with J from p.jacobian at
    (t_next, y), else by forward differences, from the plan in _plan_slot
    when k_n and J repeat."""
    global _plan_slot
    jac = p.jacobian
    jm = jac(t_next, y) if jac is not None else _fd_jacobian(p, t_next, list(y), f)
    d = len(y)
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
            delta, plan = _factor(m, list(b))
            _plan_slot = ((k_n, d, jt), plan, None)
            return delta
        if replay is None:
            replay = _replay(plan)
            if type(jm) is tuple and all(map(is_, jm, jt)):
                jt = jm     # rows that cannot change: hit on identity
            _plan_slot = ((k_n, d, jt), plan, replay)
    solve, values = replay
    return solve(b, values)


def _replay(plan):
    """(solve, values) for a plan from _factor: solve(b, values) gives the
    plan's solution of b with its float operations in their order.  solve
    is the straight-line code of the plan's pattern (its dimension, the
    (i, j) of its updates and its row order), compiled once per pattern;
    values holds the multipliers, then U's rows, last first, each as its
    entries right of the diagonal and then the diagonal."""
    updates, order, m = plan
    pairs = []
    values = []
    for i, factor, j in updates:
        pairs.append((i, j))
        values.append(factor)
    d = len(m)
    for r in range(d - 1, -1, -1):
        row = m[r]
        values.extend(row[r + 1:])
        values.append(row[r])
    pattern = (d, tuple(pairs), order and tuple(order))
    solve = _replays.get(pattern)
    if solve is None:
        if len(_replays) >= _REPLAY_CACHE_SIZE:
            for old in list(_replays.values()):
                linecache.cache.pop(old.__code__.co_filename, None)
            _replays.clear()
        solve, = _compile(globals(), *_replay_source(*pattern))
        _replays[pattern] = solve
    return solve, tuple(values)


# The template of _stage_kernel: the generic iteration for one dimension,
# with y as y0, y1, ..., y_tilde as yt0, ..., -g as b0, ... and the update
# as s0, ...; the max-norms keep max()'s first of equal values.
_STAGE_SOURCE = """\
def stage_d{d}(p, t_next, k_n, y_tilde, y_guess, update):
    rhs = p.rhs
    try:
        {yt} = y_tilde
        {y} = y_guess
    except ValueError:
        raise DimensionMismatch(
            f"stage needs {{p.dimension}} components, "
            f"got {{len(y_tilde)}} and {{len(y_guess)}}") from None
    iterations = 0
    while True:
        y = ({y})
        f = rhs(t_next, y)
        # -g, the solve's right-hand side; k_n * f_i - (y_i - yt_i) would
        # give +0.0 where -g is -0.0
        try:
{residual}
        except IndexError as err:
            raise short_rhs(p, err, f)
{res_max}
        # every component, not res alone: the max drops a NaN that is not first
        if not ({b_finite}):
            raise NewtonDiverged(f"non-finite residual at t={{t_next!r}}")
        if res <= _NEWTON_TOL:
            return tuple.__new__(NewtonOutcome, (y, iterations, res))
        # a finite residual means a finite y, and then 1 + max|y_i| >= 1
{top_max}
        if res <= _NEWTON_TOL * (1.0 + top):
            return tuple.__new__(NewtonOutcome, (y, iterations, res))
        if iterations >= _NEWTON_MAX_ITER:
            raise NewtonDiverged(
                f"no convergence in {{_NEWTON_MAX_ITER}} iterations at "
                f"t={{t_next!r}} (residual {{res!r}})")
        {s} = update(p, t_next, k_n, y, f, ({b}))
{step}
        iterations += 1
        if not ({y_finite}):
            raise NewtonDiverged(f"non-finite iterate at t={{t_next!r}}")
"""


@lru_cache(maxsize=16)
def _stage_kernel(d: int):
    """implicit_euler_stage written out for dimension d, on float locals,
    with the update from _newton_update: the generic iteration's residual,
    norms, tests and update, with its float operations in their order.
    Kept for the 16 dimensions used last."""
    stage, = _compile(globals(), f"stage d={d}", _STAGE_SOURCE.format(
        d=d, y=_names("y", d), yt=_names("yt", d), b=_names("b", d),
        s=_names("s", d),
        residual=_terms("            b{i} = -(y{i} - yt{i} - k_n * f[{i}])", d, "\n"),
        res_max=_running_max("res", "b{i}", d), top_max=_running_max("top", "y{i}", d),
        b_finite=_terms("isfinite(b{i})", d, " and "),
        y_finite=_terms("isfinite(y{i})", d, " and "),
        step=_terms("        y{i} += s{i}", d, "\n")))
    return stage


def _replay_source(d: int, pairs: tuple, order):
    """The label and source of the replay for one pattern: the updates of
    b, then back substitution with the rows in their order after the swaps
    (renamed, not moved)."""
    rows = order or range(d)
    n = len(pairs) + d * (d + 1) // 2
    lines = [f"def replay_d{d}(b, v):",
             f"    {_names('b', d)} = b",
             f"    {_names('v', n)} = v"]
    k = 0
    for i, j in pairs:
        lines.append(f"    b{i} -= v{k} * b{j}")
        k += 1
    for r in range(d - 1, -1, -1):
        terms = [f"b{rows[r]}"]
        for c in range(r + 1, d):
            terms.append(f"v{k} * x{c}")
            k += 1
        acc = terms[0] if len(terms) == 1 else f"({' - '.join(terms)})"
        lines.append(f"    x{r} = {acc} / v{k}")
        k += 1
    lines.append(f"    return ({_names('x', d)})")
    label = f"replay d={d} updates={list(pairs)} order={list(rows)}"
    return label, "\n".join(lines) + "\n"
