"""Newton iteration for the implicit Euler stage equation y = y_tilde +
k * f(t_next, y), with a dense solve by partial pivoting: the systems are
tiny (d <= 4 in every bundled problem).

The stage exists once, as the template _STAGE_SOURCE.  _stage_kernel(d)
fills it for one dimension and compiles it once with core._compile:
straight-line code on float locals y0, y1, ... for the residual, its
max-norms and finiteness tests, the stopping rule and the update.  Each
update solves (I - k*J) x = -g by Gaussian elimination on locals, which
_elimination writes out: the first row of maximal magnitude wins the
pivot, the pivot row swaps its remaining entries and its right-hand side,
a zero multiplier is skipped, and back substitution subtracts left to
right before it divides by the pivot.  tests/oracles.py's two-pass
reference_stage pins those float operations and their order bit for bit.
Values never enter the source, so -0.0, subnormals and zero entries keep
their bits.

From d = _REUSE_FROM on, a kernel keeps its last factorization in the
plan slot of its globals and replays its pivots and multipliers on the
right-hand side while k and J repeat, which a jac that returns one tuple
of tuples for a constant J (the 4-D table's) makes them do.  Below that
it does not pay: van der Pol and the 1-D problems change J every update.
On a 2-CPU Xeon under CPython 3.11, reuse at every d took d = 1 stages
from 0.95 to 1.03 us and d = 2 from 2.54 to 2.85-2.95 us, and no reuse at
d = 4 took a constant-J stage from 2.3 to 2.9 us, about 4% of perfbench's
constant-step wall_s.

The source grows as d**3.  Compiling a kernel took 0.36-0.38 ms at d = 1,
1.5 ms at d = 4, 5.2-5.4 ms at d = 8, 25-27 ms at d = 16 and 198-210 ms at
d = 32.  Against the list-based elimination that the kernels replaced
(min of 5 runs of 2,000 calls, 500 from d = 16, on the same machine), a
linear stage (rhs included) whose J changes on every call took 8.4-9.0
against 15.3-15.9 us at d = 4 and 521-524 against 868-919 us at d = 32.
A J built fresh with the same values on every call is never reused
(the old value key reused it): 7.9-12.5 against 7.5 us at d = 4, 26-34
against 18-20 us at d = 8, 126-134 against 51-53 us at d = 16 and
483-773 against 197-202 us at d = 32.  No bundled problem has d > 4.

Like all per-step code, the kernels and _fd_jacobian have no
comprehension that reads their locals (the rule is in filters.py's
docstring); 5 cells cost the d = 1 stage about 0.12 us.  Medians of 10
alternating 35 s perfbench pairs: the reuse took constant-step wall_s
from 0.500 to 0.423 s (BENCH_12.json), the one-pass elimination from
0.409 to 0.359 s (BENCH_18.json), and the written-out kernel from 0.274
to 0.240 s (BENCH_27.json).
"""

from __future__ import annotations

from functools import lru_cache
from math import isfinite, sqrt
from typing import NamedTuple, Sequence

from .core import (OdeProblem, SolverConfig, Vector, _compile, _names, _running_max,
                   _terms, rhs_value, short_rhs)
from .errors import (DimensionMismatch, NewtonDiverged, NonPositiveStep,
                     SingularLinearSystem)

_SQRT_EPS = sqrt(2.0 ** -52)
_PIVOT_FLOOR = 1e-300
# implicit_euler_stage's stopping rule, the same for every caller
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 25
# The smallest dimension whose kernel reuses its last factorization
_REUSE_FROM = 3


class NewtonOutcome(NamedTuple):
    y: Vector
    iterations: int
    residual_norm: float


def _fd_jacobian(p: OdeProblem, t: float, y: list[float], f0: Sequence[float]):
    """Forward finite-difference Jacobian rows, increment sqrt(eps)*(1+|y_i|);
    a perturbed rhs value of another length raises DimensionMismatch."""
    cols = []
    for i, yi in enumerate(y):
        h = _SQRT_EPS * (1.0 + abs(yi))
        y[i] = yi + h
        fi = rhs_value(p, p.rhs(t, tuple(y)))
        y[i] = yi       # (yi + h) - h need not round back to yi
        col = []
        for r in range(len(y)):
            col.append((fi[r] - f0[r]) / h)
        cols.append(col)
    return tuple(zip(*cols))


# The kernels' globals: the names they read, and the plan slot, the last
# factorization a kernel of d >= _REUSE_FROM stored, as (k, J, d, plan).
# A kernel reuses it only when its own J is the stored J and k and d are
# equal.  It stores only a J that is a tuple whose first d rows are
# tuples, which cannot change; a J of lists may be changed in place and
# returned again.  The matrix reads only J's first d rows and columns,
# hence d.  A singular matrix raises before the store.  The slot is
# replaced by one tuple assignment and read once per update, so under
# threads or a nested solve a stored plan that a kernel reuses is its own.
_kernel_globals = {
    "__name__": __name__, "DimensionMismatch": DimensionMismatch,
    "NewtonDiverged": NewtonDiverged, "NewtonOutcome": NewtonOutcome,
    "NonPositiveStep": NonPositiveStep, "SingularLinearSystem": SingularLinearSystem,
    "_NEWTON_MAX_ITER": _NEWTON_MAX_ITER, "_NEWTON_TOL": _NEWTON_TOL,
    "_PIVOT_FLOOR": _PIVOT_FLOOR, "_fd_jacobian": _fd_jacobian, "isfinite": isfinite,
    "short_rhs": short_rhs, "_plan_slot": (None, None, None, None)}


def implicit_euler_stage(p: OdeProblem, t_next: float, k_n: float,
                         y_tilde: Sequence[float], y_guess: Sequence[float],
                         cfg: SolverConfig) -> NewtonOutcome:
    """Solve the stage equation y - y_tilde - k_n * f(t_next, y) = 0.

    Newton's iteration starts from y_guess (callers pass the latest accepted
    state), stops once max |g_i| <= _NEWTON_TOL * (1 + max |y_i|) for the
    residual g, and raises NewtonDiverged after _NEWTON_MAX_ITER updates
    without that.  Each update solves (I - k_n * J) delta = -g, with J
    analytic when provided, else forward finite differences, by the
    elimination that _stage_kernel writes out for p.dimension; from
    dimension _REUSE_FROM on it is reused while k_n and J repeat.
    y_tilde and y_guess need p.dimension >= 1 components each, rhs values
    as many and J at least p.dimension rows and columns, else
    DimensionMismatch.  cfg is not read: perfbench/tracing.py wraps this
    function with these six arguments.
    """
    d = p.dimension
    if d < 1:
        raise DimensionMismatch(
            f"stage needs {d} components, got {len(y_tilde)} and {len(y_guess)}")
    return _stage_kernel(d)(p, t_next, k_n, y_tilde, y_guess, cfg)


def _stage_for(stage, d: int):
    """The stage a driver calls for dimension d: _stage_kernel(d) while
    stage is implicit_euler_stage, which saves a frame per stage, and any
    other stage (a tracer's or a test's wrapper) as given."""
    return _stage_kernel(d) if stage is implicit_euler_stage else stage


# The template of _stage_kernel: the stage for one dimension, with y as
# y0, y1, ..., y_tilde as yt0, ... and -g as b0, ...; the max-norms keep
# max()'s first of equal values.  {update} leaves the update in x0, ...
_STAGE_SOURCE = """\
def stage_d{d}(p, t_next, k_n, y_tilde, y_guess, cfg):
{declare}    if k_n <= 0.0:
        raise NonPositiveStep(f"implicit stage needs a positive step, got {{k_n!r}}")
    rhs = p.rhs
    jac = p.jacobian
    try:
        {yt} = y_tilde
        {y} = y_guess
    except ValueError:
        raise DimensionMismatch(
            f"stage needs {d} components, "
            f"got {{len(y_tilde)}} and {{len(y_guess)}}") from None
    iterations = 0
    while True:
        y = ({y})
        f = rhs(t_next, y)
        try:
            {f} = f
        except ValueError as err:
            raise short_rhs(p, err, f)
        # -g, the solve's right-hand side; k_n * f_i - (y_i - yt_i) would
        # give +0.0 where -g is -0.0
{residual}
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
        jm = jac(t_next, y) if jac is not None else _fd_jacobian(p, t_next, list(y), ({f}))
{update}
{step}
        iterations += 1
        if not ({y_finite}):
            raise NewtonDiverged(f"non-finite iterate at t={{t_next!r}}")
"""


def _elimination(d: int, pad: str) -> list[str]:
    """Lines that form I - k_n*J from jm's first d rows and columns as
    m{r}_{c} and eliminate it together with b{r}, in place: at column c,
    the pivot search leaves the pivot's row in p{c}, and row r's
    multiplier is f{r}_{c}.  U is left in m{r}_{c}, c >= r."""
    lines = [f"{pad}try:"]
    for r in range(d):
        lines.append(f"{pad}    j{r} = jm[{r}]")
        # not -k_n * j[c] off the diagonal: that turns a 0.0 entry into -0.0
        lines += [f"{pad}    m{r}_{c} = {'1.0' if r == c else '0.0'} - k_n * j{r}[{c}]"
                  for c in range(d)]
    lines += [f"{pad}except IndexError as err:",
              f"{pad}    raise DimensionMismatch(",
              f'{pad}        f"jacobian of {{p.name!r}} is smaller than {d}x{d}") from err']
    singular = (f'{pad}    raise SingularLinearSystem("Newton matrix is numerically singular")',)
    for c in range(d - 1):
        lines += [f"{pad}best = abs(m{c}_{c})", f"{pad}p{c} = {c}"]
        for r in range(c + 1, d):
            lines += [f"{pad}a = abs(m{r}_{c})", f"{pad}if a > best:",
                      f"{pad}    p{c} = {r}", f"{pad}    best = a"]
        lines += [f"{pad}if best < _PIVOT_FLOOR:", *singular]
        for r in range(c + 1, d):
            ours = [f"m{c}_{j}" for j in range(c, d)] + [f"b{c}"]
            theirs = [f"m{r}_{j}" for j in range(c, d)] + [f"b{r}"]
            lines += [f"{pad}{'if' if r == c + 1 else 'elif'} p{c} == {r}:",
                      f"{pad}    {', '.join(ours + theirs)} = {', '.join(theirs + ours)}"]
        lines.append(f"{pad}inv = 1.0 / m{c}_{c}")
        for r in range(c + 1, d):
            lines += [f"{pad}f{r}_{c} = m{r}_{c} * inv", f"{pad}if f{r}_{c} != 0.0:"]
            lines += [f"{pad}    m{r}_{j} -= f{r}_{c} * m{c}_{j}" for j in range(c + 1, d)]
            lines.append(f"{pad}    b{r} -= f{r}_{c} * b{c}")
    return lines + [f"{pad}if abs(m{d - 1}_{d - 1}) < _PIVOT_FLOOR:", *singular]


def _rhs_elimination(d: int, pad: str) -> list[str]:
    """Lines that apply a stored elimination's row swaps and nonzero
    multipliers to b{r} alone, in the elimination's order."""
    lines = []
    for c in range(d - 1):
        for r in range(c + 1, d):
            lines += [f"{pad}{'if' if r == c + 1 else 'elif'} p{c} == {r}:",
                      f"{pad}    b{c}, b{r} = b{r}, b{c}"]
        for r in range(c + 1, d):
            lines += [f"{pad}if f{r}_{c} != 0.0:", f"{pad}    b{r} -= f{r}_{c} * b{c}"]
    return lines


def _update(d: int) -> str:
    """The source of one Newton update: the elimination, or from
    _REUSE_FROM on a replay of the plan slot's when k_n and J repeat, then
    back substitution into x0, ..."""
    pad = " " * 8
    if d < _REUSE_FROM:
        lines = _elimination(d, pad)
    else:
        plan = ", ".join([f"p{c}" for c in range(d - 1)]
                         + [f"f{r}_{c}" for c in range(d - 1) for r in range(c + 1, d)]
                         + [f"m{r}_{c}" for r in range(d) for c in range(r, d)])
        rows = " and ".join([f"type(j{r}) is tuple" for r in range(d)])
        lines = [f"{pad}k_s, j_s, d_s, plan = _plan_slot",
                 f"{pad}if jm is j_s and k_n == k_s and d_s == {d}:",
                 f"{pad}    {plan} = plan",
                 *_rhs_elimination(d, pad + "    "),
                 f"{pad}else:",
                 *_elimination(d, pad + "    "),
                 f"{pad}    if jac is not None and type(jm) is tuple and {rows}:",
                 f"{pad}        _plan_slot = (k_n, jm, {d}, ({plan}))"]
    for r in range(d - 1, -1, -1):
        terms = [f"b{r}"] + [f"m{r}_{c} * x{c}" for c in range(r + 1, d)]
        acc = terms[0] if len(terms) == 1 else f"({' - '.join(terms)})"
        lines.append(f"{pad}x{r} = {acc} / m{r}_{r}")
    return "\n".join(lines)


@lru_cache(maxsize=16)
def _stage_kernel(d: int):
    """implicit_euler_stage written out for dimension d >= 1 on float
    locals, compiled from _STAGE_SOURCE.  Kept for the 16 dimensions used
    last."""
    stage, = _compile(_kernel_globals, f"stage d={d}", _STAGE_SOURCE.format(
        d=d, y=_names("y", d), yt=_names("yt", d), f=_names("f", d),
        residual=_terms("        b{i} = -(y{i} - yt{i} - k_n * f{i})", d, "\n"),
        res_max=_running_max("res", "b{i}", d), top_max=_running_max("top", "y{i}", d),
        declare="    global _plan_slot\n" if d >= _REUSE_FROM else "",
        b_finite=_terms("isfinite(b{i})", d, " and "), update=_update(d),
        step=_terms("        y{i} += x{i}", d, "\n"),
        y_finite=_terms("isfinite(y{i})", d, " and ")))
    return stage
