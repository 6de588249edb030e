"""The bundled test problems.

Each constructor returns a ProblemSpec: the OdeProblem plus the default
integration range, initial state, and named parameters the benchmark
harness and CLI use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict

from .core import OdeProblem, Vector

_PI2 = math.pi * math.pi


@dataclass(frozen=True)
class ProblemSpec:
    problem: OdeProblem
    default_range: tuple[float, float]
    default_initial_state: Vector
    parameters: Dict[str, float] = field(default_factory=dict)


def model_problem(lam: float = 1.0) -> ProblemSpec:
    """Scalar linear test equation y' = lam * y, exact e^(lam t)."""
    if not -math.inf < lam < math.inf:
        raise ValueError(f"lam must be finite, got {lam!r}")

    def rhs(t, y, _lam=lam):
        return (_lam * y[0],)

    def jac(t, y, _lam=lam):
        return ((_lam,),)

    def exact(t, _lam=lam):
        return (math.exp(_lam * t),)

    return ProblemSpec(
        problem=OdeProblem(1, rhs, jac, exact, name="model"),
        default_range=(0.0, 2.0),
        default_initial_state=(1.0,),
        parameters={"lam": lam},
    )


def quasi_periodic_problem() -> ProblemSpec:
    """Fourth-order linear oscillator with incommensurate frequencies 1 and pi,
    written as a first-order system u = (x, x', x'', x''').

    x(t) = cos t + cos(pi t); the benchmark error is measured on the x
    component, and the adaptive estimator watches x only (the higher
    derivatives carry scales up to pi^3 larger and would drown it).
    """

    c2 = -(_PI2 + 1.0)
    c0 = -_PI2

    def rhs(t, u):
        return (u[1], u[2], u[3], c2 * u[2] + c0 * u[0])

    _J = (
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (c0, 0.0, c2, 0.0),
    )

    def jac(t, u):
        return _J

    pi = math.pi

    def exact(t):
        return (
            math.cos(t) + math.cos(pi * t),
            -math.sin(t) - pi * math.sin(pi * t),
            -math.cos(t) - _PI2 * math.cos(pi * t),
            math.sin(t) + pi * _PI2 * math.sin(pi * t),
        )

    return ProblemSpec(
        problem=OdeProblem(4, rhs, jac, exact, name="quasi-periodic",
                           est_component=0),
        default_range=(0.0, 20.0),
        default_initial_state=(2.0, 0.0, c2, 0.0),
        parameters={},
    )


def model_analog_problem(gamma: float = 5.0) -> ProblemSpec:
    """Nonautonomous scalar problem y' = (gamma - 2t) y, exact e^(gamma t - t^2).

    The solution rises to e^(gamma^2/4) at t = gamma/2 and returns to 1 at
    t = gamma; larger gamma makes the swing steeper.  The default range
    [0, gamma] covers the full rise and fall.
    """
    if not -math.inf < gamma < math.inf:
        raise ValueError(f"gamma must be finite, got {gamma!r}")

    def rhs(t, y, _g=gamma):
        return ((_g - 2.0 * t) * y[0],)

    def jac(t, y, _g=gamma):
        return ((_g - 2.0 * t,),)

    def exact(t, _g=gamma):
        return (math.exp(_g * t - t * t),)

    t_end = gamma if gamma > 0.0 else 1.0
    return ProblemSpec(
        problem=OdeProblem(1, rhs, jac, exact, name="model-analog"),
        default_range=(0.0, t_end),
        default_initial_state=(1.0,),
        parameters={"gamma": gamma},
    )


_VDP_FINAL_TIMES = {1.0: 50.0, 2.0: 50.0, 5.0: 100.0, 10.0: 200.0,
                    100.0: 500.0, 200.0: 1500.0}


def van_der_pol_problem(mu: float = 1.0) -> ProblemSpec:
    """Van der Pol oscillator as the system (x, v): x' = v,
    v' = mu (1 - x^2) v - x.

    No closed-form solution; benchmarks compare against the RK4 reference.
    The adaptive estimator watches the x component (v spikes by a factor
    of order mu at the relaxation corners).  Benchmark final times grow
    with mu so each run covers a few periods of the limit cycle.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu!r}")

    def rhs(t, y, _mu=mu):
        x, v = y
        return (v, _mu * (1.0 - x * x) * v - x)

    def jac(t, y, _mu=mu):
        x, v = y
        return ((0.0, 1.0),
                (-2.0 * _mu * x * v - 1.0, _mu * (1.0 - x * x)))

    t_end = _VDP_FINAL_TIMES.get(mu, 50.0)
    return ProblemSpec(
        problem=OdeProblem(2, rhs, jac, exact=None, name="van-der-pol",
                           est_component=0),
        default_range=(0.0, t_end),
        default_initial_state=(2.0, 0.0),
        parameters={"mu": mu},
    )


REGISTRY: Dict[str, Callable[..., ProblemSpec]] = {
    "model": model_problem,
    "quasi-periodic": quasi_periodic_problem,
    "model-analog": model_analog_problem,
    "van-der-pol": van_der_pol_problem,
}


def make_problem(name: str, **params: float) -> ProblemSpec:
    """Look up a registered problem by name and build it with `params`."""
    try:
        ctor = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown problem {name!r} (known: {known})") from None
    return ctor(**params)
