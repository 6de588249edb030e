import dataclasses
import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from filtered_ie23 import (DimensionMismatch, NonMonotonicTimes, SolverConfig,
                           Trajectory)
from filtered_ie23.core import _BLOCK, all_finite

from oracles import maxnorm


class _Later:
    """A time later than any other that is not a real number."""

    def __gt__(self, other):
        return True


class TestSolverConfig:
    def test_fields(self):
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["tol", "dt0", "t_begin", "t_end", "k_max"]

    def test_defaults_derive_from_span(self):
        cfg = SolverConfig(t_begin=1.0, t_end=3.0)
        assert cfg.span == 2.0
        assert cfg.k_min == pytest.approx(2e-12)
        assert cfg.k_max == 0.2

    def test_default_ceiling_admits_dt0(self):
        # a dt0 above a tenth of the span raises the default ceiling to dt0
        assert SolverConfig(dt0=0.3, t_end=2.0).k_max == 0.3
        assert SolverConfig(dt0=1.0, t_end=1.0).k_max == 1.0

    def test_explicit_bounds_kept(self):
        cfg = SolverConfig(dt0=0.05, k_max=0.5)
        assert cfg.k_max == 0.5

    @pytest.mark.parametrize("field, value", [
        ("k_min", 1e-6),
        ("doubling_exponent", 6),
        ("max_halvings_per_step", 30),
        ("newton_tol", 1e-10),
        ("newton_max_iter", 0),
    ])
    def test_removed_controller_fields(self, field, value):
        # the floor, the doubling divisor and Newton's stopping rule are
        # fixed, and the floor alone ends a halving cascade
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: value})

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            SolverConfig(t_begin=2.0, t_end=2.0)

    def test_rejects_nonpositive_tol_and_dt0(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt0=-0.1)

    def test_rejects_dt0_outside_step_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(dt0=0.5, k_max=0.1)
        with pytest.raises(ValueError):
            SolverConfig(dt0=1e-13)     # below the floor k_min = 1e-12 * span
        for dt0 in (1.5, math.inf):     # above the span of 1
            with pytest.raises(ValueError, match="exceeds the span"):
                SolverConfig(dt0=dt0)
            with pytest.raises(ValueError, match="exceeds the span"):
                SolverConfig(dt0=dt0, k_max=math.inf)


class TestTrajectory:
    def _sample(self):
        traj = Trajectory(2)
        traj.append(0.0, (1.0, -1.0), 0.0, 0.0)
        traj.append(0.5, (2.0, -2.0), 1e-5, 0.5)
        traj.append(1.0, (3.0, -3.0), 2e-5, 0.5)
        return traj

    def test_columns_round_trip(self):
        traj = self._sample()
        assert len(traj) == 3
        assert list(traj.times) == [0.0, 0.5, 1.0]
        assert list(traj.est) == [0.0, 1e-5, 2e-5]
        assert list(traj.ks) == [0.0, 0.5, 0.5]
        assert traj.state(1) == (2.0, -2.0)
        assert traj.state(-1) == (3.0, -3.0)
        assert traj.states == [(1.0, -1.0), (2.0, -2.0), (3.0, -3.0)]

    def test_step_count_and_finals(self):
        traj = self._sample()
        assert traj.steps_taken == 2
        assert traj.final_time() == 1.0
        assert traj.final_state() == (3.0, -3.0)
        assert Trajectory(1).steps_taken == 0

    def test_append_requires_increasing_times(self):
        traj = self._sample()
        for t in (1.0, 0.75, math.nan):    # equal, smaller, NaN
            with pytest.raises(NonMonotonicTimes):
                traj.append(t, (4.0, -4.0), 0.0, 0.0)
        assert len(traj) == 3

    def test_append_rejects_nan_first_time(self):
        traj = Trajectory(1)
        with pytest.raises(NonMonotonicTimes):
            traj.append(math.nan, (1.0,), 0.0, 0.0)
        assert len(traj) == 0
        traj.append(-1e300, (1.0,), 0.0, 0.0)
        assert list(traj.times) == [-1e300]

    def test_final_error_maxnorm_and_component(self):
        traj = self._sample()
        exact = lambda t: (3.0, -3.5)
        assert traj.final_error(exact) == 0.5
        assert traj.final_error(exact, component=0) == 0.0
        assert traj.final_error(exact, component=1) == 0.5

    def test_state_of_the_wrong_length_raises(self):
        # a short state used to shift every later row: state(0) read
        # (1.0, 2.0) and state(1) read (3.0,)
        traj = Trajectory(2)
        traj.append(0.0, (1.0,), 0.0, 0.0)
        traj.append(1.0, (2.0, 3.0), 0.0, 1.0)
        assert len(traj) == 2
        for read in (lambda: traj.state(0), lambda: traj.times, traj.final_state):
            with pytest.raises(DimensionMismatch, match="2 pending rows hold 3"):
                read()

    def test_state_of_the_wrong_length_raises_at_the_block_move(self):
        traj = Trajectory(1)
        for i in range(_BLOCK - 1):
            traj.append(float(i), (1.0,), 0.0, 0.0)
        with pytest.raises(DimensionMismatch):
            traj.append(float(_BLOCK), (1.0, 2.0), 0.0, 0.0)

    def test_a_failed_move_changes_no_column(self):
        bad = "not a float"
        rows = [(_Later(), (5.0, -5.0), 0.0, 1.0), (3.0, (5.0, bad), 0.0, 1.0),
                (3.0, (5.0, -5.0), bad, 1.0), (3.0, (5.0, -5.0), 0.0, bad)]
        names = ["times", "state", "est", "k"]
        for row, name in zip(rows, names):    # a value that is not a real number in each column
            traj = self._sample()
            stored = [bytes(traj.times), bytes(traj.est), bytes(traj.ks),
                      bytes(array("d", [c for y in traj.states for c in y]))]
            traj.append(2.0, (4.0, -4.0), 0.0, 1.0)
            traj.append(*row)
            for _ in range(2):
                with pytest.raises(TypeError, match=f"row 4, column {name} holds"):
                    traj.times
            columns = (traj._times, traj._est, traj._ks, traj._flat)
            assert [bytes(c) for c in columns] == stored
            assert len(traj) == 5


    def test_type_error_names_the_earliest_row(self):
        # the error used to read "required argument is not a float"
        traj = Trajectory(2)
        for i in range(5):
            traj.append(float(i), (1.0, 2.0), None if i == 3 else 0.0, 1.0)
        traj.append(5.0, (1.0, "x"), 0.0, 1.0)
        with pytest.raises(TypeError, match=r"row 3, column est holds a value that is not a real number: \[None\]"):
            traj.times
        traj = Trajectory(1)
        with pytest.raises(TypeError, match=r"row 1, column k holds .*'x'"):
            traj.extend([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.0, 0.0, None], [0.0, "x", 0.0])


class TestExtend:
    def _sample(self):
        traj = TestTrajectory()._sample()
        traj.times    # stored: three rows, nothing pending
        traj.append(1.5, (4.0, -4.0), 0.0, 0.5)
        return traj

    @staticmethod
    def _snapshot(traj):
        return ([bytes(c) for c in (traj._times, traj._flat, traj._est, traj._ks)],
                [list(c) for c in traj._pending], traj._t_last)

    def test_rows_land_after_the_appended_ones(self):
        traj = self._sample()
        traj.extend([2.0, 3.0], [5.0, -5.0, 6.0, -6.0], [1e-6, 2e-6], [0.5, 1.0])
        traj.extend([], [], [], [])
        traj.append(4.0, (7.0, -7.0), 0.0, 1.0)
        assert list(traj.times) == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
        assert list(traj.est)[4:6] == [1e-6, 2e-6]
        assert list(traj.ks)[4:] == [0.5, 1.0, 1.0]
        assert traj.states[4:] == [(5.0, -5.0), (6.0, -6.0), (7.0, -7.0)]

    @pytest.mark.parametrize("times", [
        [1.5, 2.0], [1.0, 2.0], [math.nan, 2.0],      # the first time: equal, smaller, NaN
        [2.0, 2.0, 3.0], [2.0, 3.0, 2.5], [2.0, math.nan, 3.0],   # a pair inside the block
    ])
    def test_times_must_increase(self, times):
        traj = self._sample()
        before = self._snapshot(traj)
        n = len(times)
        with pytest.raises(NonMonotonicTimes):
            traj.extend(times, [1.0] * (2 * n), [0.0] * n, [1.0] * n)
        assert self._snapshot(traj) == before
        assert len(traj) == 4

    @pytest.mark.parametrize("flat, est, ks", [
        ([1.0] * 3, [0.0] * 2, [1.0] * 2), ([1.0] * 5, [0.0] * 2, [1.0] * 2),
        ([1.0] * 4, [0.0], [1.0] * 2), ([1.0] * 4, [0.0] * 2, [1.0] * 3),
    ], ids=["short-state", "long-state", "short-est", "long-ks"])
    def test_a_column_of_the_wrong_length_raises(self, flat, est, ks):
        traj = self._sample()
        before = self._snapshot(traj)
        with pytest.raises(DimensionMismatch, match="a block of 2 rows"):
            traj.extend([2.0, 3.0], flat, est, ks)
        assert self._snapshot(traj) == before

    @pytest.mark.parametrize("column", range(4))
    def test_a_value_that_is_not_real_changes_nothing(self, column):
        columns = [[2.0, 3.0], [5.0, -5.0, 6.0, -6.0], [0.0, 0.0], [1.0, 1.0]]
        columns[column][-1] = "x"
        traj = self._sample()
        before = self._snapshot(traj)
        with pytest.raises(TypeError, match="row 5, column "):
            traj.extend(*columns)
        assert self._snapshot(traj) == before

    def test_a_bad_pending_row_stops_the_block(self):
        # the pending rows move first; when they fail, the block is not stored
        traj = self._sample()
        traj.append(2.0, (1.0,), 0.0, 1.0)
        with pytest.raises(DimensionMismatch, match="pending rows"):
            traj.extend([3.0], [1.0, 2.0], [0.0], [1.0])
        assert len(traj._times) == 3 and len(traj) == 5


# values whose bits a careless copy could change
SPECIAL = [0.0, -0.0, 5e-324, -1.7976931348623157e308, math.inf, -math.inf,
           math.nan, 1.1288584381185864e-07]


def _rows(seed, n, d):
    """n rows of dimension d with strictly increasing times."""
    rng = random.Random(seed)
    value = lambda: rng.choice(SPECIAL) if rng.random() < 0.2 else rng.uniform(-1e3, 1e3)
    t, rows = rng.uniform(-10.0, 10.0), []
    for _ in range(n):
        t += rng.choice([1e-9, 0.25, rng.uniform(0.0, 1.0) or 1.0])
        rows.append((t, tuple([value() for _ in range(d)]), value(), value()))
    return rows


def _bits(values):
    return array("d", values).tobytes()


def _assert_matches(traj, rows, d):
    """Every reader of traj against the row-by-row reference, bit for bit."""
    n = len(rows)
    assert len(traj) == n
    assert traj.steps_taken == max(0, n - 1)
    assert traj.times.tobytes() == _bits([r[0] for r in rows])
    assert traj.est.tobytes() == _bits([r[2] for r in rows])
    assert traj.ks.tobytes() == _bits([r[3] for r in rows])
    flat = _bits([c for r in rows for c in r[1]])
    assert _bits([c for y in traj.states for c in y]) == flat
    # state(-n) ... state(-1), then state(0) ... state(n - 1)
    assert _bits([c for i in range(-n, n) for c in traj.state(i)]) == flat * 2
    if n:
        assert _bits([traj.final_time()]) == _bits([rows[-1][0]])
        assert _bits(traj.final_state()) == _bits(rows[-1][1])
        zero = lambda t: (0.0,) * d
        assert _bits([traj.final_error(zero, component=d - 1)]) == _bits([abs(rows[-1][1][-1])])
    else:
        with pytest.raises(IndexError):
            traj.final_state()
    for i in (-n - 1, n, n + 100):
        with pytest.raises(IndexError):
            traj.state(i)


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32),
       reads=st.lists(st.one_of(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                                st.integers(0, 3 * _BLOCK + 1)), max_size=3),
       blocks=st.lists(st.one_of(st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                                 st.integers(0, 2 * _BLOCK)), max_size=4))
def test_block_moves_keep_every_row(d, n, seed, reads, blocks):
    # reads part-way through move the pending rows early; no read, or a
    # read at any row count, must leave the same rows.  Each row goes in
    # by append, and after each append the next of `blocks` rows (if any
    # are left) go in by one extend, so the two cross block moves in
    # every order
    rows = _rows(seed, n, d)
    traj = Trajectory(d)
    blocks = iter(blocks)
    i = 0
    while i < n:
        if i in reads:
            _assert_matches(traj, rows[:i], d)
        traj.append(*rows[i])
        i += 1
        size = next(blocks, 0)
        block = rows[i:i + size]
        traj.extend([r[0] for r in block], [c for r in block for c in r[1]],
                    [r[2] for r in block], [r[3] for r in block])
        i += len(block)
    _assert_matches(traj, rows, d)


def test_a_slotted_subclass_sees_every_append():
    # the pattern perfbench/tracing.py uses to count and time appends
    class Counted(Trajectory):
        __slots__ = ()
        calls = 0

        def append(self, t, y, est, k):
            Counted.calls += 1
            Trajectory.append(self, t, y, est, k)

    rows = _rows(7, 3 * _BLOCK + 1, 2)
    traj = Counted(2)
    for row in rows:
        traj.append(*row)
    assert Counted.calls == len(rows)
    _assert_matches(traj, rows, 2)


def test_maxnorm():
    assert maxnorm((1.0, -4.0, 2.0)) == 4.0
    assert maxnorm((0.0,)) == 0.0


def test_all_finite():
    assert all_finite((1.0, -2.0))
    assert not all_finite((1.0, math.nan))
    assert not all_finite((math.inf, 0.0))
