"""Core data types shared by every integrator.

States are plain tuples of floats.  The systems here are tiny (dimension
four at most in the bundled problems), so tuples keep the hot loops free
of array-library overhead; trajectories store their rows in flat
'd'-typed arrays so multi-million-step runs stay cheap in memory.
"""

from __future__ import annotations

import math
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
    y = tuple([float(c) for c in y0])
    if len(y) != p.dimension:
        raise DimensionMismatch(f"y0 has {len(y)} components, {p.name!r} has {p.dimension}")
    comp = p.est_component
    if comp is not None and not 0 <= comp < p.dimension:
        raise DimensionMismatch(f"est_component {comp!r} of {p.name!r} is not in [0, {p.dimension})")
    return y


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


class Trajectory:
    """Append-only record of a solve.

    Row i holds the i-th accepted point: times[i], the state (state(i)),
    est[i] -- the embedded error estimate of the step that produced the
    point (0 for the initial point and for bootstrap steps) -- and ks[i],
    the step size that produced the point (0 for the initial point).

    Rows live in flat double arrays; state(i) and the states property
    materialize tuples on demand.
    """

    __slots__ = ("dimension", "_times", "_flat", "_est", "_ks", "_t_last")

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._times = array("d")
        self._flat = array("d")
        self._est = array("d")
        self._ks = array("d")
        self._t_last = -math.inf    # the newest time; a first time must exceed -inf

    def append(self, t: float, y: Sequence[float], est: float, k: float) -> None:
        if not t > self._t_last:
            raise NonMonotonicTimes(
                f"time {t!r} does not advance past {self._t_last!r}"
            )
        self._times.append(t)
        self._t_last = t
        self._flat.extend(y)
        self._est.append(est)
        self._ks.append(k)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> array:
        return self._times

    @property
    def est(self) -> array:
        return self._est

    @property
    def ks(self) -> array:
        return self._ks

    def state(self, i: int) -> Vector:
        d = self.dimension
        if i < 0:
            i += len(self._times)
        return tuple(self._flat[i * d:(i + 1) * d])

    @property
    def states(self) -> list[Vector]:
        return [self.state(i) for i in range(len(self._times))]

    @property
    def steps_taken(self) -> int:
        return max(0, len(self._times) - 1)

    def final_time(self) -> float:
        return self._times[-1]

    def final_state(self) -> Vector:
        return self.state(len(self._times) - 1)

    def final_error(self, exact: Callable[[float], Sequence[float]],
                    component: Optional[int] = None) -> float:
        """Max-norm distance (or one component's distance) from `exact`
        at the final time."""
        ref = exact(self._times[-1])
        y = self.final_state()
        if component is not None:
            return abs(y[component] - ref[component])
        return max(abs(a - b) for a, b in zip(y, ref))


def maxnorm(v: Sequence[float]) -> float:
    return max(map(abs, v))


def all_finite(v: Sequence[float]) -> bool:
    return all(map(math.isfinite, v))
