import dataclasses
import math

import pytest

from filtered_ie23 import NonMonotonicTimes, SolverConfig, Trajectory
from filtered_ie23.core import all_finite, maxnorm


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


def test_maxnorm():
    assert maxnorm((1.0, -4.0, 2.0)) == 4.0
    assert maxnorm((0.0,)) == 0.0


def test_all_finite():
    assert all_finite((1.0, -2.0))
    assert not all_finite((1.0, math.nan))
    assert not all_finite((math.inf, 0.0))
