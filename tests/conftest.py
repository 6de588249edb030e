"""Shared fixtures.

The adaptive benchmark runs are the expensive part of the suite (the van
der Pol sweep alone takes several seconds), so each group is produced at
most once per session and shared.  Tests treat the runs as read-only;
anything that needs to mutate or re-run must build its own.
"""

import time
from typing import NamedTuple

import pytest

from filtered_ie23 import bench


class Timed(NamedTuple):
    value: object
    seconds: float


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def bench_model():
    """The two adaptive model-problem runs, with their wall-clock cost."""
    return _timed(bench.model_benchmark_runs)


@pytest.fixture(scope="session")
def bench_qp():
    return _timed(bench.quasi_periodic_benchmark_run)


@pytest.fixture(scope="session")
def bench_analog():
    return _timed(bench.analog_benchmark_runs)


@pytest.fixture(scope="session")
def bench_vdp():
    return _timed(bench.vdp_benchmark_runs)


@pytest.fixture(scope="session")
def all_bench_runs(bench_model, bench_qp, bench_analog, bench_vdp):
    """Every adaptive benchmark run: model, quasi-periodic, analog, then
    van der Pol."""
    return [
        *bench_model.value,
        bench_qp.value,
        *bench_analog.value,
        *(c.run for c in bench_vdp.value),
    ]
