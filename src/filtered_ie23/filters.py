"""Discrete curvature, the pre/post filter coefficients, and the embedded
error estimate.

All formulas act componentwise on state vectors.  Step-size arguments
follow the naming k_n (candidate step), k_nm1, k_nm2, k_nm3 (the three
most recent accepted steps, newest first).

Each formula exists once here.  step_factors gives the factors that
depend only on a step's history (k_n, k_nm1, k_nm2, k_nm3), which
pre_filtered and post_filtered take: the constant-step drivers once per
run and for a clamped final step, the adaptive loop once per history.

The per-component formulas (curvature, the pre-filter, the post-filter
and its uniform-step closed form, each post-filter with its estimate)
live once, in the template _KERNEL_SOURCE.  kernels(d) compiles it once
per d, as newton._stage_kernel does the stage, into straight-line code
on float locals with the float operations of the plain loops that
tests/oracles.py keeps as the reference, in their order.  The public
functions check their arguments and call the kernel for their d; the
constant-step drivers and the adaptive loop's d >= 3 branch call the
kernels.  On a 2-CPU Xeon under CPython 3.11, 4-D calls took 262 ns for
the curvature kernel, 155 for the pre-filter's and 540-575 for the
uniform post-filter's, against 615-645, 365-390 and 960-1000 ns for the
loops (best of 7 timeit runs, the call included).  The adaptive loop
writes d = 1 and 2 out in its own source, with the same operations in
the same order: a formula changed here must change there too, and the
tests compare the three bit for bit.

The per-step code of the package, the generated kernels included, has no
comprehension or generator expression.  Under CPython 3.10 and 3.11 one
that reads a function's locals makes them closure cells, which every
call creates and every read goes through (PEP 709 inlines comprehensions
from 3.12 on): a 4-D curvature loop took 705 ns a call, and 957 ns as a
comprehension.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

from .core import Vector, _compile, _names, _running_max
from .errors import DimensionMismatch, NonPositiveStep

# Relative floor for the post-filter denominator.  The denominator is a
# homogeneous degree-4 polynomial of the four steps, so the floor must be
# compared against a degree-4 scale; max(steps)**4 keeps the test
# meaningful for steps both far above and far below 1.
_DEGENERACY_RTOL = 1e-12


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
    # None too once num or den leaves float range (their ratio would be 0,
    # inf or nan, not beta) or den underflows to 0 with the scale
    if not _DEGENERACY_RTOL * max(scale, abs(num)) <= abs(den) < math.inf or not den:
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


def pre_filtered(half_a: float, y_n: Sequence[float],
                 kappa_prev: Sequence[float]) -> Vector:
    """The state handed to the implicit stage: y_n with half_a (alpha / 2,
    1/2 on a uniform grid) times the trailing curvature kappa_prev removed."""
    return kernels(len(y_n))[1](half_a, y_n, kappa_prev)


def post_filtered(beta: float, v_next: float, v_prev: float,
                  y_nm1: Sequence[float], y_n: Sequence[float],
                  kappa_prev: Sequence[float], y_second: Sequence[float],
                  component: Optional[int]) -> tuple[Vector, float]:
    """The third-order value of a step whose implicit stage gave y_second,
    and the embedded estimate: the max-norm of y_third - y_second, or its
    component'th entry.  The step's curvature is written out, as
    curvature(k_nm1, k_n, y_nm1, y_n, y_second) on step_factors' weights."""
    return kernels(len(y_second))[2](beta, v_next, v_prev, y_nm1, y_n, kappa_prev,
                                     y_second, component)


def post_filtered_uniform(y_nm2: Sequence[float], y_nm1: Sequence[float],
                          y_n: Sequence[float], y_second: Sequence[float],
                          component: Optional[int]) -> tuple[Vector, float]:
    """post_filtered at beta = 5/11 in closed form, a few ulps off the
    general form; perfbench/pins.json pins the constant-step answers made
    with it (post_filtered moves the 2000-step quasi-periodic error)."""
    return kernels(len(y_second))[3](y_nm2, y_nm1, y_n, y_second, component)


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


# The template of kernels(d), on float locals: y_nm2 as q0, q1, ..., y_nm1
# as m0, ..., y_n as n0, ..., kappa_prev as c0, ..., y_second as s0, ...
# and y_third as t0, ...; the curvature kernel takes curvature's weights.
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

    def each(term: str, sep: str = ", ") -> str:
        return sep.join([term.format(i=i) for i in range(d)])

    return _compile(globals(), f"kernels d={d}", _KERNEL_SOURCE.format(
        d=d, unpack=unpack,
        curvature=each("w_next * n{i} - 2.0 * m{i} + w_prev * q{i}"),
        pre=each("n{i} - half_a * c{i}"),
        post=each("    t{i} = s{i} - beta * ((v_next * s{i} - 2.0 * n{i} + v_prev * m{i})"
                  " - c{i})", "\n"),
        post_uniform=each("    t{i} = s{i} - 5.0 / 11.0 * (s{i} - 3.0 * n{i} + 3.0 * m{i}"
                          " - q{i})", "\n"),
        estimate="\n".join([f"    y_third = ({_names('t', d)})",
                            "    if component is None:",
                            _running_max("est", "t{i} - s{i}", d),
                            "        return y_third, est",
                            "    return y_third, abs(y_third[component] - y_second[component])"])))
