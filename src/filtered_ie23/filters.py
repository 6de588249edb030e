"""Discrete curvature, the pre/post filter coefficients, and the embedded
error estimate.

All formulas act componentwise on state vectors.  Step-size arguments
follow the naming k_n (candidate step), k_nm1, k_nm2, k_nm3 (the three
most recent accepted steps, newest first).

Each formula exists once here.  step_factors gives the factors that
depend only on a step's history (k_n, k_nm1, k_nm2, k_nm3): alpha / 2,
beta and the post-filter's curvature weights.  uniform_step_factors gives
them for the uniform history every filtered solve starts from, and
refuses a step whose square underflows; both drivers call it first.  The
constant-step drivers call step_factors for a clamped final step, the
adaptive loop once per history.

The per-component formulas are the terms _CURVATURE (on curvature's two
weights), _PRE_FILTER, _POST_FILTER and _ESTIMATE, each written once on
float locals.  Two templates format them: _KERNEL_SOURCE here, which adds
the post-filter's uniform-step closed form, and the adaptive loop's
adaptive._LOOP_SOURCE.  kernels(d) compiles the first once per d, as
newton._stage_kernel does the stage, into straight-line code with the
float operations of the plain loops that tests/oracles.py keeps as the
reference, in their order.  curvature checks its arguments and calls its
kernel; the constant-step drivers call the kernels.  On a 2-CPU Xeon
under CPython 3.11, 4-D calls took 262 ns for the curvature kernel, 155
for the pre-filter's and 540-575 for the uniform post-filter's, against
615-645, 365-390 and 960-1000 ns for the loops (best of 7 timeit runs,
the call included).

The per-step code of the package, the generated kernels included, has no
comprehension or generator expression.  Under CPython 3.10 and 3.11 one
that reads a function's locals makes them closure cells, which every
call creates and every read goes through (PEP 709 inlines comprehensions
from 3.12 on): a 4-D curvature loop took 705 ns a call, and 957 ns as a
comprehension.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .core import Vector, _compile, _names, _running_max, _terms
from .errors import DimensionMismatch, NonPositiveStep

# Relative floor for the post-filter denominator.  The denominator is a
# homogeneous degree-4 polynomial of the four steps, so the floor must be
# compared against a degree-4 scale; max(steps)**4 keeps the test
# meaningful for steps both far above and far below 1.
_DEGENERACY_RTOL = 1e-12
# The smallest normal float; beta's num and den must reach it
_NORMAL_MIN = sys.float_info.min


def _beta(k_n: float, k_nm1: float, k_nm2: float,
          k_nm3: float) -> Optional[float]:
    """Post-filter gain for one candidate step, or None when its
    denominator is too close to zero for this step history.

    Closed form chosen so the complete step (pre-filter, implicit stage,
    post-filter) is exact on cubic data for any positive step history;
    the oracle in tests/oracles.py solves that defining equation in exact
    arithmetic.  On a uniform grid the ratio reduces to 5/11.
    """
    ksum = k_n + k_nm1
    num = k_n * k_n * ksum * (2.0 * k_n + 2.0 * k_nm1 + k_nm2)
    den = 2.0 * k_nm1 * (
        k_n * ksum * (3.0 * k_n + 2.0 * k_nm1)
        + k_nm2 * (4.0 * k_n * k_n + 2.0 * k_n * k_nm1 - k_nm1 * k_nm1)
        - 2.0 * k_nm2 * k_nm2 * ksum
        + 3.0 * k_nm3 * (k_n - k_nm2) * ksum
    )
    try:
        scale = max(k_n, k_nm1, k_nm2, k_nm3) ** 4
    except OverflowError:     # a step past about 1e77
        scale = math.inf
    # None too once num or den leaves the normal float range: their ratio
    # would be 0, inf or nan, or, below it, lose significant bits (four
    # steps of 1e-79 gave 0.4545454541 and of 1e-81 0.5, not 5/11)
    if not (_DEGENERACY_RTOL * max(scale, abs(num)) <= abs(den) < math.inf
            and abs(num) >= _NORMAL_MIN and abs(den) >= _NORMAL_MIN):
        return None
    return num / den


def step_factors(k_n: float, k_nm1: float, k_nm2: float,
                 k_nm3: float) -> tuple[float, Optional[float], float, float]:
    """(alpha / 2, beta or None, v_next, v_prev) of a step: the filters'
    gains and the post-filter's curvature weights.  Never raises for
    positive finite steps: alpha / 2 is nan once k_nm1 * k_nm2 underflows."""
    kk = k_nm1 * k_nm2
    ksum = k_n + k_nm1
    return (0.5 * (k_n * k_n / kk) if kk else math.nan, _beta(k_n, k_nm1, k_nm2, k_nm3),
            2.0 * k_nm1 / ksum, 2.0 * k_n / ksum)


def uniform_step_factors(dt: float) -> tuple[float, Optional[float], float, float]:
    """step_factors of four steps of dt, the history every filtered solve
    starts from; NonPositiveStep when dt * dt underflows, which leaves
    alpha / 2 nan and every filtered step with it."""
    factors = step_factors(dt, dt, dt, dt)
    if math.isnan(factors[0]):
        raise NonPositiveStep(
            f"step {dt!r} is too small for the pre-filter: dt * dt underflows to 0")
    return factors


def curvature(k_prev: float, k_cur: float,
              y_prev: Sequence[float], y_mid: Sequence[float],
              y_next: Sequence[float]) -> Vector:
    """Weighted second difference of three consecutive states.

    Equals k_prev*k_cur times the second derivative of the quadratic
    through the points (t-k_prev-k_cur, y_prev), (t-k_cur, y_mid),
    (t, y_next); on a uniform grid it reduces to the plain second
    difference y_next - 2*y_mid + y_prev.  The steps must be positive and
    finite, else NonPositiveStep, and the three states must have equal
    lengths, else DimensionMismatch.
    """
    if not (0.0 < k_prev < math.inf and 0.0 < k_cur < math.inf):
        raise NonPositiveStep(
            f"curvature needs positive finite steps, got {k_prev!r}, {k_cur!r}")
    s = k_cur + k_prev
    return kernels(len(y_mid))[0](2.0 * k_prev / s, 2.0 * k_cur / s, y_prev, y_mid, y_next)


# The filters' per-component terms, for component i, on float locals: y_nm2
# as q0, q1, ..., y_nm1 as m0, ..., y_n as n0, ..., kappa_prev as c0, ...,
# y_second as s0, ... and y_third as t0, ...  Curvature takes its two
# weights; the post-filter forms the step's curvature on step_factors'
# v_next and v_prev.
_CURVATURE = "w_next * n{i} - 2.0 * m{i} + w_prev * q{i}"
_PRE_FILTER = "n{i} - half_a * c{i}"
_POST_FILTER = "s{i} - beta * ((v_next * s{i} - 2.0 * n{i} + v_prev * m{i}) - c{i})"
_ESTIMATE = "t{i} - s{i}"

# The template of kernels(d); the curvature kernel takes curvature's weights.
_KERNEL_SOURCE = """\
def curvature_d{d}(w_next, w_prev, y_nm2, y_nm1, y_n):
{unpack[qmn]}
    return ({curvature},)


def pre_filtered_d{d}(half_a, y_n, kappa_prev):
{unpack[nc]}
    return ({pre},)


def post_filtered_d{d}(beta, v_next, v_prev, y_nm1, y_n, kappa_prev, y_second,
                       component):
{unpack[mncs]}
{post}
{estimate}


def post_filtered_uniform_d{d}(y_nm2, y_nm1, y_n, y_second, component):
{unpack[qmns]}
{post_uniform}
{estimate}
"""


@lru_cache(maxsize=16)
def kernels(d: int) -> tuple:
    """(curvature, pre_filtered, post_filtered, post_filtered_uniform)
    written out for d components, each with its plain loop's float
    operations in their order (tests/oracles.py keeps the loops), and
    DimensionMismatch for a state of another length.  The estimate's
    running max replaces only on a > est, so a NaN counts only in the
    first component.  Kept for the 16 dimensions used last."""
    if d < 1:
        raise DimensionMismatch(f"filter states need length 1 or more, got {d}")
    states = {"q": "y_nm2", "m": "y_nm1", "n": "y_n", "c": "kappa_prev", "s": "y_second"}
    unpack = {}
    for keys in ("qmn", "nc", "mncs", "qmns"):
        names = ", ".join(map(states.get, keys))
        unpack[keys] = "\n".join(
            ["    try:"] + [f"        {_names(key, d)} = {states[key]}" for key in keys]
            + ["    except ValueError:",
               f'        raise DimensionMismatch(f"filter states need length {d}, got "',
               f'            f"{{tuple(map(len, ({names})))}}") from None'])

    return _compile(globals(), f"kernels d={d}", _KERNEL_SOURCE.format(
        d=d, unpack=unpack,
        curvature=_terms(_CURVATURE, d), pre=_terms(_PRE_FILTER, d),
        post=_terms("    t{i} = " + _POST_FILTER, d, "\n"),
        post_uniform=_terms("    t{i} = s{i} - 5.0 / 11.0 * (s{i} - 3.0 * n{i} + 3.0 * m{i}"
                            " - q{i})", d, "\n"),
        estimate="\n".join([f"    y_third = ({_names('t', d)})",
                            "    if component is None:",
                            _running_max("est", _ESTIMATE, d),
                            "        return y_third, est",
                            "    return y_third, abs(y_third[component] - y_second[component])"])))
