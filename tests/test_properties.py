"""Property tests: random CLI argv and random state shapes.

Both run derandomized and without an example database, so every run of
the suite draws the same examples and stores none of them.
"""

import contextlib
import dataclasses
import io

import pytest
from hypothesis import assume, given, settings, strategies as st

from filtered_ie23 import DimensionMismatch, SolverConfig, make_problem
from filtered_ie23.cli import main

import test_steppers

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# The CLI's own vocabulary, plus a wrong word of each kind.  Numbers stay
# where a run is cheap: solve spans at most 0.1 with steps of at least
# 1e-3, convergence tables at most 64 steps, compare only problems whose
# adaptive run on the default range is short.
PROBLEMS = ["model", "quasi-periodic", "model-analog", "van-der-pol", "lorenz"]
NUMBERS = ["0", "-1", "1e-3", "0.01", "0.05", "0.1", "1e-300", "nan", "inf", "x", ""]
PARAMS = ["mu=1", "mu=-1", "gamma=3", "lam=-1", "bogus=1", "mu", "=1", "mu=x"]


def _option(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def _params():
    return st.lists(st.sampled_from(PARAMS), max_size=2).map(
        lambda ps: [a for p in ps for a in ("--param", p)])


@st.composite
def _solve(draw):
    t0 = draw(st.sampled_from([0.0, 1.0, -1.0]))
    t1 = t0 + draw(st.sampled_from([0.1, 0.05, 0.0, -0.05]))
    return (["solve"]
            + draw(_option("--problem", PROBLEMS))
            + draw(_option("--method", ["filtered-ie23", "ie-pre-2", "ie-pre-post-3",
                                        "rk4-ref", "bogus"]))
            + draw(_option("--tol", NUMBERS))
            + draw(_option("--dt0", ["1e-3", "0.01", "0.05", "0.1", "0.2", "0", "-1",
                                     "nan", "inf", "x"]))
            + ["--t0", repr(t0), "--t1", repr(t1)]
            + draw(_params()))


@st.composite
def _convergence(draw):
    counts = st.sampled_from(["-1", "0", "1", "2", "3", "8", "64", "", "x"])
    steps = draw(st.lists(counts, max_size=4).map(",".join))
    return (["convergence"]
            + draw(_option("--problem", PROBLEMS))
            + draw(_option("--method", ["ie-pre-2", "ie-pre-post-3", "rk4-ref", "bogus"]))
            + ["--steps", steps]
            + draw(_params()))


@st.composite
def _compare(draw):
    return (["compare"]
            + draw(_option("--problem", ["model", "lorenz"]))
            + draw(_option("--tol", ["5e-3", "1e-2", "inf", "0", "-1", "nan", "x"]))
            + draw(_option("--dt0", ["1e-3", "0.01", "0.05", "0.3", "0", "-1", "nan",
                                     "inf", "x"])))


ARGV = st.one_of(
    _solve(), _convergence(), _compare(),
    st.just(["problems"]),
    st.lists(st.sampled_from(["solve", "problems", "--problem", "model", "--tol", "1",
                              "--help", "-x", ""]), max_size=4),
)


@PROPERTY
@given(ARGV)
def test_cli_exit_code_for_any_argv(argv):
    # 0 success, 1 solver failure, 2 usage error; never a traceback
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


@PROPERTY
@given(st.sampled_from(test_steppers.TestInitialStateCheck.SOLVERS),
       st.sampled_from(["model", "van-der-pol", "quasi-periodic"]),
       st.integers(0, 6), st.one_of(st.none(), st.integers(-6, 6)))
def test_wrong_shapes_raise_dimension_mismatch(solver, name, length, component):
    spec = make_problem(name)
    p = dataclasses.replace(spec.problem, est_component=component)
    assume(length != p.dimension or component not in (None, *range(p.dimension)))
    with pytest.raises(DimensionMismatch):
        solver(p, SolverConfig(dt0=0.05, t_end=2.0), (0.5,) * length)
