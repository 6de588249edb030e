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
Trajectory.extend takes a block of rows as four lists, checks them as
append and the move do, and packs them straight into the arrays.  A
caller that collects 2-D rows on three lists and extends 512 at a time
pays about 250 ns a row for the lists and extend together, against 440 ns
for append (medians of 8 processes, each the best of 7 runs over 150,000
rows, net of the loop).
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatch, NonMonotonicTimes

Vector = tuple[float, ...]
Rhs = Callable[[float, Vector], Sequence[float]]
Jacobian = Callable[[float, Vector], Sequence[Sequence[float]]]


@dataclass(frozen=True)
class OdeProblem:
    """A first-order ODE system y' = rhs(t, y).

    dimension: length of the state vector.
    rhs: callable (t, y) -> sequence of length `dimension`.
    jacobian: optional callable (t, y) -> dimension x dimension matrix of
        partials d rhs_i / d y_j.  When absent a forward finite difference
        is used by the implicit stage.
    exact: optional closed-form solution, callable t -> state vector.
    name: identifier used by the CLI and reports.
    est_component: when set, the adaptive error estimator reads only this
        component of the embedded difference instead of the max-norm over
        all components.  Useful for systems whose components carry wildly
        different scales (see the quasi-periodic problem).
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
    if comp is not None and not 0 <= comp < p.dimension:
        raise DimensionMismatch(f"est_component {comp!r} of {p.name!r} is not in [0, {p.dimension})")
    return y


def short_rhs(p: OdeProblem, err: IndexError, *values) -> Exception:
    """What a solver raises when indexing rhs values raised err: a
    DimensionMismatch caused by err if one of values (None: not computed
    yet) has fewer than p.dimension components, else err itself.  Solvers
    call it only from that except clause: a correct rhs pays only for the
    try, which costs nothing until it catches on CPython >= 3.11."""
    for f in values:
        if f is not None and len(f) < p.dimension:
            mismatch = DimensionMismatch(
                f"rhs of {p.name!r} returned {len(f)} components, need {p.dimension}")
            mismatch.__cause__ = err
            return mismatch
    return err


@dataclass
class SolverConfig:
    """Settings shared by all solvers.

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
            self.k_max = max(span / 10.0, self.dt0)
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
    it extends any array.  extend stores a block of rows at once, after
    the pending ones, with the same checks.  The doubles are stored
    exactly as given.
    """

    __slots__ = ("dimension", "_times", "_flat", "_est", "_ks", "_t_last",
                 "_pending")

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._times = array("d")
        self._flat = array("d")
        self._est = array("d")
        self._ks = array("d")
        self._t_last = -math.inf    # the newest time; a first time must exceed -inf
        self._pending = ([], [], [], [])    # times, flat states, est, ks

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

    def extend(self, times: list, flat: list, est: list, ks: list) -> None:
        """Append len(times) rows at once: their times, their states
        flattened (dimension values a row), est and ks.  Checked like
        append and the block move, and all or nothing: DimensionMismatch
        unless flat holds dimension values a row and est and ks one,
        TypeError if a value is not a real number, NonMonotonicTimes unless
        the times increase past the last one stored.  The rows are copied,
        so the caller may reuse the lists."""
        n = len(times)
        if len(flat) != n * self.dimension or len(est) != n or len(ks) != n:
            raise DimensionMismatch(
                f"a block of {n} rows has {len(flat)} state components, "
                f"{len(est)} estimates and {len(ks)} steps; need "
                f"{self.dimension}, 1 and 1 a row"
            )
        if not n:
            return
        blocks = self._pack((times, flat, est, ks), len(self))
        prev = self._t_last
        for t in times:
            if not t > prev:
                raise NonMonotonicTimes(f"time {t!r} does not advance past {prev!r}")
            prev = t
        self._move()
        self._store(blocks)
        self._t_last = prev

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
        self._store(self._pack(pending, len(self._times)))
        self._pending = ([], [], [], [])

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
        for stored, block in zip((self._times, self._flat, self._est, self._ks), blocks):
            stored.frombytes(block)

    def __len__(self) -> int:
        return len(self._times) + len(self._pending[0])

    @property
    def times(self) -> array:
        self._move()
        return self._times

    @property
    def est(self) -> array:
        self._move()
        return self._est

    @property
    def ks(self) -> array:
        self._move()
        return self._ks

    def state(self, i: int) -> Vector:
        self._move()
        n = len(self._times)
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
        return self._times[-1]

    def final_state(self) -> Vector:
        return self.state(-1)

    def final_error(self, exact: Callable[[float], Sequence[float]],
                    component: Optional[int] = None) -> float:
        """Max-norm distance (or one component's distance) from `exact`
        at the final time."""
        ref = exact(self.final_time())
        y = self.final_state()
        if component is not None:
            return abs(y[component] - ref[component])
        return max(abs(a - b) for a, b in zip(y, ref))


def all_finite(v: Sequence[float]) -> bool:
    return all(map(math.isfinite, v))
