"""Core data types shared by every integrator.

States are plain tuples of floats.  The systems here are tiny (dimension
four at most in the bundled problems), so tuples keep the hot loops free
of array-library overhead; trajectories store their rows in flat
'd'-typed arrays so multi-million-step runs stay cheap in memory.

Trajectory.append puts each row on Python lists and moves them into the
arrays _BLOCK rows at a time.  On a 2-CPU Xeon under CPython 3.11,
array.append takes about 100 ns and array.extend of a 2-tuple about
280 ns, against 30 and 55 ns for a list.  append fell from about 850 to
600 ns a row net of the call, and perfbench's constant-step wall_s, whose
rounds store 165k rows (150k from the RK4 reference), from 0.424 to
0.396 s, medians of 10 alternating 35 s pairs, faster in all 10
(BENCH_15.json).  The move converts each list with struct.pack and
array.frombytes, at about 10 ns a value against 23 ns for array("d",
list) (minima of 40 interleaved timings of a 2048-value list).

A constant-step RK4 run knows its times, steps and estimates from its
grid, so it hands Trajectory._take_states only the states, in packed
blocks, with a function that gives the other three columns when they are
first read.  The four van der Pol references of perfbench's vdp-stiff
set-up, 412,500 rows, took 0.40-0.42 s that way against 0.48-0.67 s
storing all four columns from lists 512 rows at a time, and 0.39-0.43 s
storing no rows (best of 5 in each of 3 alternating process pairs, same
machine); run 3 times in a fresh process they peaked at 21.9 MiB RSS
against 33.3 MiB.
"""

from __future__ import annotations

import linecache
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, NonMonotonicTimes

Vector = tuple[float, ...]
Rhs = Callable[[float, Vector], Iterable[float]]
Jacobian = Callable[[float, Vector], Sequence[Sequence[float]]]


@dataclass(frozen=True)
class OdeProblem:
    """A first-order ODE system y' = rhs(t, y).

    dimension: length of the state vector.
    rhs: callable (t, y) -> iterable of `dimension` numbers: a tuple, a
        list, an iterator or a generator.
    jacobian: optional callable (t, y) -> dimension x dimension matrix of
        partials d rhs_i / d y_j.  When absent a forward finite difference
        is used by the implicit stage.
    exact: optional closed-form solution, callable t -> state vector.
    name: identifier used by the CLI and reports.
    est_component: an int in [0, dimension); when set, the error
        estimator reads only this component of the embedded difference
        instead of the max-norm over all components.  Useful for systems
        whose components carry wildly different scales (see the
        quasi-periodic problem).
    """

    dimension: int
    rhs: Rhs
    jacobian: Optional[Jacobian] = None
    exact: Optional[Callable[[float], Vector]] = None
    name: str = "ode"
    est_component: Optional[int] = None


def initial_state(p: OdeProblem, y0: Sequence[float]) -> Vector:
    """y0 as a tuple of floats, checked against p's dimension and
    est_component; every solver starts from it."""
    if p.dimension < 1:
        raise DimensionMismatch(f"{p.name!r} has dimension {p.dimension!r}, need at least 1")
    y = tuple([float(c) for c in y0])
    if len(y) != p.dimension:
        raise DimensionMismatch(f"y0 has {len(y)} components, {p.name!r} has {p.dimension}")
    comp = p.est_component
    # an int, not a bool or a float: the generated code writes it into its source
    if comp is not None and not (type(comp) is int and 0 <= comp < p.dimension):
        raise DimensionMismatch(
            f"est_component {comp!r} of {p.name!r} is not an int in [0, {p.dimension})")
    return y


def short_rhs(p: OdeProblem, err: Optional[Exception], *values) -> Exception:
    """What a solver raises when unpacking rhs values raised err: a
    DimensionMismatch caused by err if one of values (None: not computed
    yet) has other than p.dimension components, or has no len (an iterator,
    consumed) while err was raised in the solver's own frame, by its
    unpacking and not inside the rhs; else err itself.  Solvers call it
    only from that except clause: a correct rhs pays only for the try,
    which costs nothing until it catches on CPython >= 3.11."""
    for f in values:
        if f is None:
            continue
        try:
            if len(f) == p.dimension:
                continue
            got = f"{len(f)} components"
        except TypeError:
            if err.__traceback__.tb_next is not None:
                continue
            got = f"an iterable of another length ({err})"
        mismatch = DimensionMismatch(f"rhs of {p.name!r} returned {got}, need {p.dimension}")
        mismatch.__cause__ = err
        return mismatch
    return err


def rhs_value(p: OdeProblem, f: Iterable[float]) -> Vector:
    """f, a value of p's rhs, as a tuple (a tuple unchanged) unless its
    length is not p.dimension: then DimensionMismatch.  For code that
    indexes rhs values."""
    f = tuple(f)
    if len(f) != p.dimension:
        raise short_rhs(p, None, f)
    return f


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by all solvers; frozen, as a field assigned after
    construction would skip the checks of __post_init__.

    tol is an error-per-unit-step tolerance: a step of size k is accepted
    when the embedded estimate satisfies est <= tol * k.  dt0 is both the
    constant step of the fixed-step methods and the bootstrap/initial step
    of the adaptive method, and may not exceed the span.  k_max caps the
    adaptive step (default max(span / 10, dt0)); the floor k_min is fixed
    at 1e-12 * span.  The adaptive controller's doubling divisor is fixed
    too (2**6, see adaptive.py), and so is the Newton stopping rule of the
    implicit stage (see newton.py).
    """

    tol: float = 1e-3
    dt0: float = 1e-2
    t_begin: float = 0.0
    t_end: float = 1.0
    k_max: Optional[float] = None

    def __post_init__(self):
        span = self.t_end - self.t_begin
        if not span > 0.0:
            raise ValueError("t_end must exceed t_begin")
        if self.k_max is None:
            object.__setattr__(self, "k_max", max(span / 10.0, self.dt0))
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not self.dt0 > 0.0:
            raise ValueError("dt0 must be positive")
        if not self.dt0 <= span:
            raise ValueError(f"dt0 {self.dt0!r} exceeds the span {span!r}")
        if not (self.k_min < self.dt0 <= self.k_max):
            raise ValueError(
                f"need k_min < dt0 <= k_max, got {self.k_min!r} / "
                f"{self.dt0!r} / {self.k_max!r}"
            )

    @property
    def span(self) -> float:
        return self.t_end - self.t_begin

    @property
    def k_min(self) -> float:
        """The adaptive step floor: a halving cascade that falls below it
        raises MinStepReached."""
        return 1e-12 * self.span

    @property
    def t_edge(self) -> float:
        """The end of the span less 1e-14 * span: a solve whose time
        reaches it has reached t_end."""
        return self.t_end - 1e-14 * self.span


# rows a Trajectory holds in its lists before it moves them into its arrays
_BLOCK = 512
_COLUMNS = ("times", "state", "est", "k")


class Trajectory:
    """Append-only record of a solve.

    Row i holds the i-th accepted point: times[i], the state (state(i)),
    est[i] -- the embedded error estimate of the step that produced the
    point (0 for the initial point and for bootstrap steps) -- and ks[i],
    the step size that produced the point (0 for the initial point).

    Rows live in flat double arrays; state(i) and the states property
    materialize tuples on demand.  append checks the time at once and puts
    the row on four pending lists (times, flattened state, est, k); they
    move into the arrays every _BLOCK rows and before any read, so an
    array a caller keeps shows later rows only after that.  The move is
    all or nothing: it raises DimensionMismatch unless every pending state
    had `dimension` components, or TypeError naming the row and column of
    a value that is not a real number, and converts all four lists before
    it extends any array.  The doubles are stored exactly as given.

    _take_states stores the states of a block of rows whose times, est
    and ks a function of the row range gives (a constant-step grid's).
    Those three columns stay unbuilt until times, est or ks is read or a
    later row moves in; state(i), final_state, final_time, len and
    steps_taken never build them.
    """

    __slots__ = ("dimension", "_times", "_flat", "_est", "_ks", "_t_last",
                 "_pending", "_deferred", "_columns")

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._times = array("d")
        self._flat = array("d")
        self._est = array("d")
        self._ks = array("d")
        self._t_last = -math.inf    # the newest time; a first time must exceed -inf
        self._pending = ([], [], [], [])    # times, flat states, est, ks
        self._deferred = 0      # rows past _times whose states alone are stored
        self._columns = None    # (lo, hi) -> their times, est and ks

    def append(self, t: float, y: Sequence[float], est: float, k: float) -> None:
        if not t > self._t_last:
            raise NonMonotonicTimes(
                f"time {t!r} does not advance past {self._t_last!r}"
            )
        self._t_last = t
        times, flat, ests, ks = self._pending
        times.append(t)
        flat.extend(y)
        ests.append(est)
        ks.append(k)
        if len(times) >= _BLOCK:
            self._move()

    def _move(self) -> None:
        """Move the pending rows into the arrays, all or nothing."""
        pending = self._pending
        n = len(pending[0])
        if not n:
            return
        if len(pending[1]) != n * self.dimension:
            raise DimensionMismatch(
                f"{n} pending rows hold {len(pending[1])} state components, "
                f"need {self.dimension} each"
            )
        self._store(self._pack(pending, len(self) - n))
        self._pending = ([], [], [], [])

    def _take_states(self, flat: list, t_last: float, columns) -> None:
        """Store the rows whose states are flat, dimension values a row,
        after every other row, and defer their times, est and ks:
        columns(lo, hi) gives them as three lists for rows lo .. hi - 1.
        t_last is the newest row's time.  Unchecked: the caller vouches
        that the values are real numbers and the times increase."""
        self._move()
        self._flat.frombytes(struct.pack(f"{len(flat)}d", *flat))
        self._deferred += len(flat) // self.dimension
        self._columns = columns
        self._t_last = t_last

    def _fill(self) -> None:
        """Build the deferred columns."""
        m = self._deferred
        if not m:
            return
        lo = len(self._times)
        for stored, column in zip((self._times, self._est, self._ks),
                                  self._columns(lo, lo + m)):
            stored.fromlist(column)
        self._deferred = 0
        self._columns = None

    def _pack(self, columns, first_row: int) -> list:
        """The four columns (times, flat states, est, ks) of the rows from
        first_row on as packed doubles.  A value that is not a real number
        raises TypeError naming the earliest such row and its column; only
        that error path looks for it."""
        blocks = []
        try:
            for column in columns:
                blocks.append(struct.pack(f"{len(column)}d", *column))
        except struct.error:
            widths = (1, self.dimension, 1, 1)
            for row in range(len(columns[0])):
                for name, column, w in zip(_COLUMNS, columns, widths):
                    values = column[row * w:row * w + w]
                    try:
                        struct.pack(f"{w}d", *values)
                    except struct.error:
                        raise TypeError(
                            f"trajectory row {first_row + row}, column {name} holds "
                            f"a value that is not a real number: {values!r}") from None
        return blocks

    def _store(self, blocks) -> None:
        self._fill()
        for stored, block in zip((self._times, self._flat, self._est, self._ks), blocks):
            stored.frombytes(block)

    def __len__(self) -> int:
        return len(self._times) + self._deferred + len(self._pending[0])

    @property
    def times(self) -> array:
        self._move()
        self._fill()
        return self._times

    @property
    def est(self) -> array:
        self._move()
        self._fill()
        return self._est

    @property
    def ks(self) -> array:
        self._move()
        self._fill()
        return self._ks

    def state(self, i: int) -> Vector:
        self._move()
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"row {i!r} is not in [-{n}, {n})")
        d = self.dimension
        i %= n
        return tuple(self._flat[i * d:(i + 1) * d])

    @property
    def states(self) -> list[Vector]:
        return [self.state(i) for i in range(len(self))]

    @property
    def steps_taken(self) -> int:
        return max(0, len(self) - 1)

    def final_time(self) -> float:
        self._move()
        if not len(self):
            raise IndexError("an empty trajectory has no final time")
        return float(self._t_last)

    def final_state(self) -> Vector:
        return self.state(-1)

    def final_error(self, exact: Callable[[float], Sequence[float]],
                    component: Optional[int] = None) -> float:
        """Max-norm distance (or one component's distance) from `exact`
        at the final time; DimensionMismatch unless `exact` gives as many
        components as the state has and component is an int that indexes them."""
        ref = exact(self.final_time())
        y = self.final_state()
        if len(ref) != len(y) or component is not None and not (
                type(component) is int and -len(y) <= component < len(y)):
            raise DimensionMismatch(f"exact solution has {len(ref)} components, the state "
                                    f"{len(y)}, component {component!r}")
        if component is not None:
            return abs(y[component] - ref[component])
        return max(abs(a - b) for a, b in zip(y, ref))


def all_finite(v: Sequence[float]) -> bool:
    return all(map(math.isfinite, v))


# The generator of the code that newton.py, filters.py and adaptive.py
# write out per d
def _names(prefix: str, n: int) -> str:
    """prefix0, prefix1, ..., as a tuple display or an unpacking target."""
    return ", ".join([f"{prefix}{i}" for i in range(n)]) + ("," if n == 1 else "")


def _terms(term: str, d: int, sep: str = ", ") -> str:
    """term formatted with i = 0, 1, ..., d - 1, joined by sep."""
    return sep.join([term.format(i=i) for i in range(d)])


def _running_max(name: str, term: str, d: int, indent: int = 8) -> str:
    """Lines, indented indent spaces, that leave in name the max of
    abs(term) over i < d as max(map(abs, ...)) does: a later value
    replaces the running one only when it compares greater."""
    pad = " " * indent
    lines = [f"{pad}{name} = abs({term.format(i=0)})"]
    for i in range(1, d):
        lines += [f"{pad}a = abs({term.format(i=i)})",
                  f"{pad}if a > {name}:",
                  f"{pad}    {name} = a"]
    return "\n".join(lines)


def _compile(module_globals: dict, label: str, source: str) -> tuple:
    """The functions that source defines, in order, executed against
    module_globals as dataclasses builds __init__, and registered with
    linecache as <module label> for tracebacks and inspect.getsource."""
    filename = f"<{module_globals['__name__']} {label}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), module_globals, namespace)
    return tuple(namespace.values())
