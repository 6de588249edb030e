import math

import pytest

from filtered_ie23 import (NonMonotonicTimes, SolverConfig, Trajectory,
                           window_from_points)
from filtered_ie23.core import all_finite, maxnorm


class TestSolverConfig:
    def test_defaults_derive_from_span(self):
        cfg = SolverConfig(t_begin=1.0, t_end=3.0)
        assert cfg.span == 2.0
        assert cfg.k_min == pytest.approx(2e-12)
        assert cfg.k_max == 0.2

    def test_explicit_bounds_kept(self):
        cfg = SolverConfig(dt0=0.05, k_min=1e-6, k_max=0.5)
        assert (cfg.k_min, cfg.k_max) == (1e-6, 0.5)

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
            SolverConfig(dt0=1e-3, k_min=1e-2)


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
        with pytest.raises(NonMonotonicTimes):
            traj.append(1.0, (4.0, -4.0), 0.0, 0.0)

    def test_final_error_maxnorm_and_component(self):
        traj = self._sample()
        exact = lambda t: (3.0, -3.5)
        assert traj.final_error(exact) == 0.5
        assert traj.final_error(exact, component=0) == 0.0
        assert traj.final_error(exact, component=1) == 0.5


class TestHistoryWindow:
    def _window(self):
        return window_from_points(
            [(0.0, (0.0,)), (1.0, (1.0,)), (1.5, (2.0,)), (2.5, (3.0,))]
        )

    def test_derived_steps_and_accessors(self):
        w = self._window()
        assert (w.k_nm1, w.k_nm2, w.k_nm3) == (1.0, 0.5, 1.0)
        assert w.t_n == 2.5
        assert w.y_n == (3.0,)

    def test_advance_slides_window(self):
        w = self._window().advance(3.0, (4.0,))
        assert w.times == (1.0, 1.5, 2.5, 3.0)
        assert w.states[-1] == (4.0,)
        assert w.states[0] == (1.0,)

    def test_advance_rejects_stalled_time(self):
        w = self._window()
        with pytest.raises(NonMonotonicTimes):
            w.advance(2.5, (4.0,))
        with pytest.raises(NonMonotonicTimes):
            w.advance(1.0, (4.0,))

    def test_from_points_validation(self):
        with pytest.raises(ValueError):
            window_from_points([(0.0, (0.0,)), (1.0, (1.0,))])
        with pytest.raises(NonMonotonicTimes):
            window_from_points(
                [(0.0, (0.0,)), (1.0, (1.0,)), (1.0, (2.0,)), (2.0, (3.0,))]
            )
        with pytest.raises(ValueError):
            window_from_points(
                [(0.0, (0.0,)), (1.0, (1.0, 2.0)), (2.0, (2.0,)), (3.0, (3.0,))]
            )

    def test_from_points_coerces_to_floats(self):
        w = window_from_points([(0, (0,)), (1, (1,)), (2, (2,)), (3, (3,))])
        assert w.times == (0.0, 1.0, 2.0, 3.0)
        assert w.states[1] == (1.0,)


def test_maxnorm():
    assert maxnorm((1.0, -4.0, 2.0)) == 4.0
    assert maxnorm((0.0,)) == 0.0


def test_all_finite():
    assert all_finite((1.0, -2.0))
    assert not all_finite((1.0, math.nan))
    assert not all_finite((math.inf, 0.0))
