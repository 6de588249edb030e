import math

import pytest

from filtered_ie23 import (MinStepReached, NonFiniteState, OdeProblem,
                           SolverConfig, Verdict, alpha_coeff, attempt_step,
                           beta_coeff, error_estimate, implicit_euler_stage,
                           model_problem, post_filter, pre_filter,
                           solve_filtered_ie23, window_from_points)
from filtered_ie23.steppers import bootstrap

SPEC = model_problem()
P = SPEC.problem


def _window():
    return bootstrap(P, 0.0, (1.0,), 0.01)


class TestAttemptStep:
    def test_matches_manual_composition_exactly(self):
        w = _window()
        k = 0.01
        cfg = SolverConfig(tol=0.005, dt0=0.01, t_end=2.0)
        attempt = attempt_step(P, w, k, cfg)

        alpha = alpha_coeff(k, w.k_nm1, w.k_nm2)
        y_tilde = pre_filter(w, alpha)
        out = implicit_euler_stage(P, w.t_n + k, k, y_tilde, w.y_n, cfg)
        y_third = post_filter(out.y, w, k, beta_coeff(k, w.k_nm1, w.k_nm2, w.k_nm3).beta)

        assert attempt.k_n == k
        assert attempt.y_second == out.y
        assert attempt.y_third == y_third
        assert attempt.est == error_estimate(out.y, y_third, P.est_component)
        assert attempt.est > 0.0

    def test_verdict_thresholds(self):
        w = _window()
        k = 0.01
        probe = attempt_step(P, w, k, SolverConfig(tol=1.0, dt0=0.01, t_end=2.0))
        rate = probe.est / k

        halve = attempt_step(P, w, k, SolverConfig(tol=0.5 * rate, dt0=0.01, t_end=2.0))
        accept = attempt_step(P, w, k, SolverConfig(tol=2.0 * rate, dt0=0.01, t_end=2.0))
        double = attempt_step(P, w, k, SolverConfig(tol=128.0 * rate, dt0=0.01, t_end=2.0))
        assert halve.verdict is Verdict.HALVE
        assert accept.verdict is Verdict.ACCEPT
        assert double.verdict is Verdict.ACCEPT_AND_DOUBLE

    def test_doubling_verdict_ignores_step_ceiling(self):
        # the attempt is advisory: the driver, not attempt_step, enforces
        # that a doubled step stays under k_max
        w = _window()
        cfg = SolverConfig(tol=1e6, dt0=0.01, t_end=2.0, k_max=0.01)
        assert attempt_step(P, w, 0.01, cfg).verdict is Verdict.ACCEPT_AND_DOUBLE

    def test_stage_failure_becomes_halve(self):
        def rhs(t, y):
            return (math.nan,) if t > 0.035 else (y[0],)

        bad = OdeProblem(1, rhs, lambda t, y: ((1.0,),))
        attempt = attempt_step(bad, _window(), 0.01,
                               SolverConfig(tol=0.005, dt0=0.01, t_end=2.0))
        assert attempt.verdict is Verdict.HALVE
        assert attempt.est == math.inf
        assert attempt.y_second is None
        assert attempt.y_third is None


class TestAdaptiveSolve:
    def _run(self):
        cfg = SolverConfig(tol=0.005, dt0=0.01, t_begin=0.0, t_end=2.0)
        return cfg, *solve_filtered_ie23(P, cfg, (1.0,))

    def test_bootstrap_rows(self):
        _, traj, _ = self._run()
        assert traj.times[0] == 0.0
        assert list(traj.ks[:4]) == [0.0, 0.01, 0.01, 0.01]
        assert list(traj.est[:4]) == [0.0] * 4

    def test_reaches_the_far_end(self):
        _, traj, _ = self._run()
        assert traj.final_time() == pytest.approx(2.0, abs=1e-13)

    def test_stats_are_consistent(self):
        cfg, traj, stats = self._run()
        assert stats.accepted == len(traj) - 4
        assert traj.rejections == stats.rejected
        assert 0.0 < stats.min_k_used <= stats.max_k_used <= cfg.k_max

    def test_accepted_steps_meet_tolerance(self):
        cfg, traj, _ = self._run()
        for i in range(4, len(traj)):
            assert traj.est[i] <= cfg.tol * traj.ks[i]

    def test_repeat_runs_are_identical(self):
        _, a, sa = self._run()
        _, b, sb = self._run()
        assert a.times == b.times
        assert a.states == b.states
        assert a.est == b.est
        assert a.ks == b.ks
        assert sa == sb

    def test_nonfinite_bootstrap_raises(self):
        bad = OdeProblem(1, lambda t, y: (math.nan,))
        cfg = SolverConfig(tol=1e-3, dt0=0.01, t_end=1.0)
        with pytest.raises(NonFiniteState):
            solve_filtered_ie23(bad, cfg, (1.0,))

    def test_unreachable_region_hits_step_floor(self):
        # rhs turns non-finite just past the bootstrap, so every attempt
        # fails and the halving cascade runs out
        def rhs(t, y):
            return (math.nan,) if t > 0.0301 else (y[0],)

        bad = OdeProblem(1, rhs, lambda t, y: ((1.0,),))
        cfg = SolverConfig(tol=1e-3, dt0=0.01, t_end=1.0)
        with pytest.raises(MinStepReached):
            solve_filtered_ie23(bad, cfg, (1.0,))

    def test_bootstrap_must_fit_in_span(self):
        cfg = SolverConfig(tol=1e-3, dt0=0.4, t_end=1.0, k_max=0.5)
        with pytest.raises(ValueError):
            solve_filtered_ie23(P, cfg, (1.0,))


class TestDoublingGuard:
    CONST = OdeProblem(1, lambda t, y: (0.0,), lambda t, y: ((0.0,),),
                       lambda t: (5.0,), name="const")

    def test_ceiling_suppresses_doubling(self):
        # est = 0 wants to double every step, but 2*dt0 would breach k_max
        cfg = SolverConfig(tol=1e-3, dt0=0.1, t_end=1.0, k_max=0.1)
        traj, stats = solve_filtered_ie23(self.CONST, cfg, (5.0,))
        assert stats.doublings == 0
        assert stats.max_k_used == 0.1
        assert traj.final_state() == (5.0,)
        assert traj.final_time() == pytest.approx(1.0, abs=1e-12)

    def test_headroom_allows_doubling(self):
        cfg = SolverConfig(tol=1e-3, dt0=0.1, t_end=1.0, k_max=0.4)
        _, stats = solve_filtered_ie23(self.CONST, cfg, (5.0,))
        assert stats.doublings == 2
        assert stats.max_k_used > 0.39


class TestOneKernel:
    @pytest.mark.parametrize("tol, dt0", [(5e-3, 1e-2), (2.5e-4, 1e-3)])
    def test_attempt_step_replays_every_accepted_row(self, tol, dt0):
        # the driver and attempt_step share the filter kernel: rebuilding
        # each accepted step's window from the trajectory and attempting
        # that row's k reproduces the row bit for bit.  The checked public
        # filters, composed by hand, give the same bits on these
        # non-uniform windows too.
        cfg = SolverConfig(tol=tol, dt0=dt0, t_end=2.0)
        traj, _ = solve_filtered_ie23(P, cfg, (1.0,))
        for i in range(4, len(traj)):
            w = window_from_points(
                [(traj.times[j], traj.state(j)) for j in range(i - 4, i)])
            k = traj.ks[i]
            attempt = attempt_step(P, w, k, cfg)
            assert attempt.verdict is not Verdict.HALVE
            assert w.t_n + attempt.k_n == traj.times[i]
            assert attempt.y_third == traj.state(i)
            assert attempt.est == traj.est[i]

            coeffs = beta_coeff(k, w.k_nm1, w.k_nm2, w.k_nm3)
            y_tilde = pre_filter(w, coeffs.alpha)
            y_second = implicit_euler_stage(P, w.t_n + k, k, y_tilde, w.y_n, cfg).y
            assert y_second == attempt.y_second
            assert post_filter(y_second, w, k, coeffs.beta) == attempt.y_third
            assert error_estimate(y_second, attempt.y_third) == attempt.est
