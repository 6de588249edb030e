import math
import re

import pytest

from filtered_ie23 import (DimensionMismatch, MinStepReached, NonFiniteState,
                           NonMonotonicTimes, NonPositiveStep, OdeProblem,
                           SolverConfig, Verdict, alpha_coeff, attempt_step,
                           beta_coeff, curvature, implicit_euler_stage,
                           model_analog_problem, model_problem,
                           solve_filtered_ie23, van_der_pol_problem)
from filtered_ie23.steppers import bootstrap

SPEC = model_problem()
P = SPEC.problem


def _window():
    """The four bootstrap points of the model problem, as (t, y) pairs."""
    return list(zip(*bootstrap(P, 0.0, (1.0,), 0.01)))


def _compose(p, points, k, cfg):
    """One step written out from the public formulas: pre-filter,
    implicit stage, post-filter and max-norm estimate."""
    (t_nm3, _), (t_nm2, y_nm2), (t_nm1, y_nm1), (t_n, y_n) = points
    k_nm1, k_nm2, k_nm3 = t_n - t_nm1, t_nm1 - t_nm2, t_nm2 - t_nm3
    kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)
    half_a = 0.5 * alpha_coeff(k, k_nm1, k_nm2)
    y_tilde = tuple([y_n[i] - half_a * kappa_prev[i] for i in range(len(y_n))])
    y_second = implicit_euler_stage(p, t_n + k, k, y_tilde, y_n, cfg).y
    kappa_cur = curvature(k_nm1, k, y_nm1, y_n, y_second)
    beta = beta_coeff(k, k_nm1, k_nm2, k_nm3)
    y_third = tuple([y_second[i] - beta * (kappa_cur[i] - kappa_prev[i])
                     for i in range(len(y_second))])
    est = max([abs(y_third[i] - y_second[i]) for i in range(len(y_second))])
    return y_second, y_third, est


class TestAttemptStep:
    def test_matches_manual_composition_exactly(self):
        w = _window()
        k = 0.01
        cfg = SolverConfig(tol=0.005, dt0=0.01, t_end=2.0)
        attempt = attempt_step(P, w, k, cfg)
        y_second, y_third, est = _compose(P, w, k, cfg)

        assert attempt.k_n == k
        assert attempt.y_second == y_second
        assert attempt.y_third == y_third
        assert attempt.est == est
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

    def test_degenerate_beta_becomes_halve(self):
        # steps (2, 6, 3), oldest first, and k_n = 3 zero beta's denominator
        points = [(0.0, (1.0,)), (2.0, (1.0,)), (8.0, (1.0,)), (11.0, (1.0,))]
        attempt = attempt_step(P, points, 3.0, SolverConfig(dt0=1.0, t_end=40.0))
        assert attempt.verdict is Verdict.HALVE
        assert attempt.est == math.inf
        assert attempt.y_second is None


class TestAttemptStepPoints:
    CFG = SolverConfig(tol=0.005, dt0=0.01, t_end=2.0)
    POINTS = [(0.0, (1.0,)), (0.01, (1.01,)), (0.02, (1.02,)), (0.03, (1.03,))]

    def _with(self, i, point):
        points = list(self.POINTS)
        points[i] = point
        return points

    def test_needs_exactly_four_points(self):
        for points in (self.POINTS[:2], self.POINTS[:3], self.POINTS + [(0.04, (1.04,))]):
            with pytest.raises(ValueError, match="4"):
                attempt_step(P, points, 0.01, self.CFG)

    def test_times_must_strictly_increase(self):
        with pytest.raises(NonMonotonicTimes):
            attempt_step(P, self._with(2, (0.01, (1.02,))), 0.01, self.CFG)
        with pytest.raises(NonMonotonicTimes):
            attempt_step(P, self._with(0, (math.nan, (1.0,))), 0.01, self.CFG)
        # infinite times increase, but unchecked they gave a silent HALVE:
        # est = inf, and y_third = (nan,)
        with pytest.raises(NonMonotonicTimes):
            attempt_step(P, self._with(3, (math.inf, (1.03,))), 0.01, self.CFG)
        with pytest.raises(NonMonotonicTimes):
            attempt_step(P, self._with(0, (-math.inf, (1.0,))), 0.01, self.CFG)

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_every_state_must_match_the_dimension(self, i):
        # unchecked, a 2-D y_nm2 (i = 1) gave a silent HALVE read from its
        # first component, and a 2-D y_nm1 (i = 2) a bare IndexError
        t, y = self.POINTS[i]
        with pytest.raises(DimensionMismatch):
            attempt_step(P, self._with(i, (t, y + (7.0,))), 0.01, self.CFG)

    @pytest.mark.parametrize("k_n", [0.0, -0.01, math.nan, math.inf])
    def test_step_must_be_positive(self, k_n):
        with pytest.raises(NonPositiveStep):
            attempt_step(P, self.POINTS, k_n, self.CFG)

    def test_int_points_give_the_float_result(self):
        ints = [(0, (0,)), (1, (1,)), (2, (2,)), (3, (3,))]
        floats = [(0.0, (0.0,)), (1.0, (1.0,)), (2.0, (2.0,)), (3.0, (3.0,))]
        cfg = SolverConfig(tol=0.005, dt0=1.0, t_end=40.0)
        assert attempt_step(P, ints, 1, cfg) == attempt_step(P, floats, 1.0, cfg)


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
        # fails at its one rhs call, and the cascade halves k = 0.01 until
        # it falls below k_min = 1e-12 * span: 34 attempts, in the 1-D and
        # 2-D loops and in the generic one (d = 3)
        cfg = SolverConfig(tol=1e-3, dt0=0.01, t_end=1.0)
        k_last = 0.01 / 2.0 ** 34
        assert k_last < cfg.k_min < 2.0 * k_last
        for d in (1, 2, 3):
            attempts = []

            def rhs(t, y):
                if t > 0.03 + 1e-13:
                    attempts.append(t)
                    return (math.nan,) * d
                return y

            identity = [[float(r == c) for c in range(d)] for r in range(d)]
            bad = OdeProblem(d, rhs, lambda t, y: identity)
            with pytest.raises(MinStepReached, match=re.escape(f"step fell to {k_last!r}")):
                solve_filtered_ie23(bad, cfg, (1.0,) * d)
            assert len(attempts) == 34

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
        # the driver and attempt_step share the filter kernel: handing
        # attempt_step the four rows before each accepted step and that
        # row's k reproduces the row bit for bit.  The public formulas,
        # composed by hand, give the same bits on these non-uniform
        # histories too.
        cfg = SolverConfig(tol=tol, dt0=dt0, t_end=2.0)
        traj, _ = solve_filtered_ie23(P, cfg, (1.0,))
        for i in range(4, len(traj)):
            points = [(traj.times[j], traj.state(j)) for j in range(i - 4, i)]
            k = traj.ks[i]
            attempt = attempt_step(P, points, k, cfg)
            assert attempt.verdict is not Verdict.HALVE
            assert traj.times[i - 1] + attempt.k_n == traj.times[i]
            assert attempt.y_third == traj.state(i)
            assert attempt.est == traj.est[i]
            assert _compose(P, points, k, cfg) == (attempt.y_second,
                                                   attempt.y_third, attempt.est)


def _copies(p, n):
    """n uncoupled copies of p as one problem of dimension n * d, with a
    block-diagonal Jacobian and p's est_component."""
    d = p.dimension

    def rhs(t, y):
        out = []
        for c in range(n):
            out.extend(p.rhs(t, y[c * d:(c + 1) * d]))
        return out

    def jac(t, y):
        rows = []
        for c in range(n):
            for row in p.jacobian(t, y[c * d:(c + 1) * d]):
                rows.append([0.0] * (c * d) + list(row) + [0.0] * ((n - 1 - c) * d))
        return rows

    return OdeProblem(n * d, rhs, jac, est_component=p.est_component)


class TestStraightLineLoops:
    # The 1-D and 2-D loops against the generic loop, which runs for copies
    # of the same problem (d = 3 and 4).  Each case has rejected attempts
    # and a last step clamped to the end of the span; van der Pol at
    # mu = 100 recovers from a Newton failure, and the 2-D est_component
    # None case takes the max over both components.
    VDP5 = van_der_pol_problem(5.0).problem
    CASES = {
        "analog-gamma3": (model_analog_problem(3.0).problem, 3, (1.0,),
                          2.5e-4, 1e-3, 3.0, 0),
        "vdp-mu100": (van_der_pol_problem(100.0).problem, 2, (2.0, 0.0),
                      1e-3, 1e-3, 80.0, 1),
        "vdp-mu5-max-norm": (OdeProblem(2, VDP5.rhs, VDP5.jacobian), 2, (2.0, 0.0),
                             3e-3, 1e-3, 12.0, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_generic_loop_bits(self, case):
        p, n, y0, tol, dt0, t_end, newton_failures = self.CASES[case]
        cfg = SolverConfig(tol=tol, dt0=dt0, t_end=t_end)
        traj, stats = solve_filtered_ie23(p, cfg, y0)
        ref, ref_stats = solve_filtered_ie23(_copies(p, n), cfg, y0 * n)
        assert stats.rejected > 0
        assert stats.newton_failures == newton_failures
        ratio = math.log2(traj.ks[-1] / traj.ks[-2])
        assert ratio != round(ratio)     # clamped: off the power-of-two ladder
        assert list(traj.times) == list(ref.times)
        assert list(traj.ks) == list(ref.ks)
        assert list(traj.est) == list(ref.est)
        assert traj.states == [y[:p.dimension] for y in ref.states]
        assert stats == ref_stats
