import dataclasses
import math

import pytest

from filtered_ie23 import (DegenerateBeta, DimensionMismatch, Method,
                           NonFiniteState, NonPositiveStep, OdeProblem,
                           SolverConfig, model_problem, rk3_step,
                           solve_filtered_ie23, quasi_periodic_problem,
                           solve_ie_pre_2, solve_ie_pre_post_3,
                           solve_rk4_reference, van_der_pol_problem)
from filtered_ie23.bench import constant_run
from filtered_ie23.steppers import bootstrap

SPEC = model_problem()
P = SPEC.problem


def _cfg(dt, t_end=2.0, t_begin=0.0):
    return SolverConfig(tol=1.0, dt0=dt, t_begin=t_begin, t_end=t_end, k_max=dt)


def test_method_enum_values_are_cli_names():
    assert Method.IE_PRE_2.value == "ie-pre-2"
    assert Method.IE_PRE_POST_3.value == "ie-pre-post-3"
    assert Method.RK4_REF.value == "rk4-ref"


class TestRk3:
    def test_hand_computed_step(self):
        # y'=y from (0, 1) with h=0.1, Kutta's tableau worked by hand
        assert rk3_step(P, 0.0, (1.0,), 0.1) == (1.1051666666666666,)

    def test_local_order_four(self):
        def err(h):
            return abs(rk3_step(P, 0.0, (1.0,), h)[0] - math.exp(h))

        ratio = err(0.2) / err(0.1)
        assert 13.0 < ratio < 19.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(NonPositiveStep):
            rk3_step(P, 0.0, (1.0,), 0.0)

    def test_bootstrap_iterates_rk3(self):
        times, states = bootstrap(P, 0.0, (1.0,), 0.25)
        assert times == (0.0, 0.25, 0.5, 0.75)
        assert states[0] == (1.0,)
        y = (1.0,)
        for i in range(3):
            y = rk3_step(P, 0.25 * i, y, 0.25)
            assert states[i + 1] == y


class TestThirdOrderConstant:
    def test_startup_rows_are_rk3(self):
        run = solve_ie_pre_post_3(P, _cfg(0.05), (1.0,))
        assert run.trajectory.state(1) == rk3_step(P, 0.0, (1.0,), 0.05)
        assert list(run.trajectory.est[:4]) == [0.0] * 4
        assert list(run.trajectory.ks[:4]) == [0.0, 0.05, 0.05, 0.05]

    def test_frozen_forty_step_error(self):
        run = solve_ie_pre_post_3(P, _cfg(0.05), (1.0,))
        err = run.trajectory.final_error(P.exact)
        assert err == pytest.approx(1.6954053552584725e-03, rel=1e-12, abs=0)

    def test_interior_estimates_are_positive(self):
        run = solve_ie_pre_post_3(P, _cfg(0.05), (1.0,))
        assert all(e > 0.0 for e in run.trajectory.est[4:])

    def test_clamped_final_step(self):
        cfg = SolverConfig(tol=1.0, dt0=0.03, t_begin=0.0, t_end=0.1, k_max=0.03)
        traj = solve_ie_pre_post_3(P, cfg, (1.0,)).trajectory
        assert len(traj) == 5
        assert traj.final_time() == 0.1
        assert list(traj.ks) == [0.0, 0.03, 0.03, 0.03, 0.010000000000000009]
        assert traj.final_error(P.exact) == pytest.approx(
            4.18743070667027e-05, rel=1e-10)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            solve_ie_pre_post_3(P, _cfg(0.5, t_end=1.0), (1.0,))

    def test_degenerate_clamped_final_step(self):
        # after unit steps, a final step r with 3r^3 + 12r^2 + 2r - 6 = 0
        # zeroes beta's denominator
        r = 0.6
        for _ in range(5):
            r -= (((3.0 * r + 12.0) * r + 2.0) * r - 6.0) / ((9.0 * r + 24.0) * r + 2.0)
        cfg = SolverConfig(dt0=1.0, t_end=10.0 + r)
        with pytest.raises(DegenerateBeta):
            solve_ie_pre_post_3(model_problem(-1.0).problem, cfg, (1.0,))

    def test_quasi_periodic_final_state_bits(self):
        # the generic 4-D Newton path, frozen bit for bit
        traj = constant_run(Method.IE_PRE_POST_3, quasi_periodic_problem(),
                            300).trajectory
        assert len(traj) == 301
        assert repr(traj.final_state()) == (
            "(2.1524163730177452, 0.1646491205648053, "
            "-17.596098024761954, -9.771498687364561)")
        assert repr(traj.est[-1]) == "0.0066073080054809274"


class TestSecondOrderConstant:
    def test_startup_rows_are_implicit_euler(self):
        run = solve_ie_pre_2(P, _cfg(0.05), (1.0,))
        y0, y1 = run.trajectory.state(0), run.trajectory.state(1)
        residual = abs(y1[0] - y0[0] - 0.05 * P.rhs(0.05, y1)[0])
        assert residual <= 1e-10 * (1.0 + abs(y1[0]))

    def test_frozen_forty_step_error(self):
        run = solve_ie_pre_2(P, _cfg(0.05), (1.0,))
        err = run.trajectory.final_error(P.exact)
        assert err == pytest.approx(5.086671955347022e-02, rel=1e-12, abs=0)

    def test_estimates_stay_zero(self):
        # the second-order method has no embedded companion
        run = solve_ie_pre_2(P, _cfg(0.05), (1.0,))
        assert list(run.trajectory.est) == [0.0] * len(run.trajectory)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            solve_ie_pre_2(P, _cfg(0.5, t_end=1.0), (1.0,))


class TestRk4Reference:
    def test_accuracy_and_order(self):
        def err(n):
            cfg = _cfg(1.0 / n, t_end=1.0)
            run = solve_rk4_reference(P, cfg, (1.0,))
            return run.trajectory.final_error(P.exact)

        assert err(10) < 1e-5
        assert 14.0 < err(10) / err(20) < 18.0

    def test_clamped_final_step(self):
        cfg = SolverConfig(tol=1.0, dt0=0.3, t_begin=0.0, t_end=1.0, k_max=0.3)
        traj = solve_rk4_reference(P, cfg, (1.0,)).trajectory
        assert traj.final_time() == 1.0
        assert list(traj.ks[1:4]) == [0.3] * 3
        assert traj.ks[4] == pytest.approx(0.1, rel=1e-12)

    def test_nonfinite_state_raises(self):
        # y' = y**2 from 1e200: the first stage overflows
        p = OdeProblem(1, lambda t, y: (y[0] * y[0],))
        with pytest.raises(NonFiniteState):
            solve_rk4_reference(p, _cfg(0.05), (1e200,))

    def test_van_der_pol_final_state_bits(self):
        # 3333 steps of 0.003, then a clamped final step of 0.001; a span
        # this long also catches a reassociated stage sum
        spec = van_der_pol_problem(1.0)
        cfg = SolverConfig(tol=1.0, dt0=0.003, t_begin=0.0, t_end=10.0,
                           k_max=0.003)
        traj = solve_rk4_reference(spec.problem, cfg,
                                   spec.default_initial_state).trajectory
        assert len(traj) == 3335
        assert traj.ks[-1] == pytest.approx(0.001, rel=1e-12, abs=0)
        assert repr(traj.final_state()) == "(-2.0083407825889332, 0.032907065673611506)"

    # a non-autonomous rhs: a stage evaluated at the wrong time changes bits
    @staticmethod
    def _forced(t, y):
        return (y[1] + math.sin(3.0 * t), -y[0] * math.cos(t) - 0.5 * y[1] * y[1])

    def test_planar_loop_matches_generic_loop_bits(self):
        # the 4-D problem of two uncoupled copies runs the generic loop;
        # 33 steps of 0.03 and a clamped final step of 0.01
        f = self._forced
        p2 = OdeProblem(2, f)
        p4 = OdeProblem(4, lambda t, y: f(t, y[:2]) + f(t, y[2:]))
        cfg = SolverConfig(dt0=0.03, t_end=1.0)
        planar = solve_rk4_reference(p2, cfg, (1.0, 0.5)).trajectory
        generic = solve_rk4_reference(p4, cfg, (1.0, 0.5, -0.3, 2.0)).trajectory
        assert len(planar) == len(generic) == 35
        assert planar.ks[-1] == pytest.approx(0.01, rel=1e-9)
        assert list(planar.times) == list(generic.times)
        assert list(planar.ks) == list(generic.ks)
        assert planar.states == [s[:2] for s in generic.states]

    def test_planar_nonfinite_second_component_raises(self):
        # y1' = y1**2 from 1e200 overflows while y0 stays 1
        p = OdeProblem(2, lambda t, y: (0.0, y[1] * y[1]))
        with pytest.raises(NonFiniteState):
            solve_rk4_reference(p, _cfg(0.05), (1.0, 1e200))

    def test_planar_rhs_may_return_a_list(self):
        f = self._forced
        cfg = SolverConfig(dt0=0.03, t_end=1.0)
        runs = [solve_rk4_reference(OdeProblem(2, rhs), cfg, (1.0, 0.5)).trajectory
                for rhs in (f, lambda t, y: list(f(t, y)))]
        assert runs[0].states == runs[1].states


class TestInitialStateCheck:
    SOLVERS = [solve_filtered_ie23, solve_ie_pre_2, solve_ie_pre_post_3,
               solve_rk4_reference]

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("y0", [(1.0, 99.0), ()])
    def test_wrong_length_y0(self, solver, y0):
        with pytest.raises(DimensionMismatch):
            solver(P, _cfg(0.05), y0)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("component", [1, -1])
    def test_est_component_out_of_range(self, solver, component):
        bad = dataclasses.replace(P, est_component=component)
        with pytest.raises(DimensionMismatch):
            solver(bad, _cfg(0.05), (1.0,))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_dimension_zero(self, solver):
        # the adaptive and filtered solvers used to fail on an empty max(),
        # and the RK4 reference returned empty states
        empty = OdeProblem(0, lambda t, y: ())
        with pytest.raises(DimensionMismatch, match="dimension 0"):
            solver(empty, _cfg(0.05), ())


class TestShortRhs:
    """An rhs value with fewer than p.dimension components raises
    DimensionMismatch, naming both lengths, from every solver; these runs
    used to fail with a bare IndexError."""

    SOLVERS = TestInitialStateCheck.SOLVERS

    @staticmethod
    def _problem(d, short_after=-math.inf):
        # y' = -y; rhs drops the last component once t > short_after
        def rhs(t, y):
            return tuple(-c for c in (y[:-1] if t > short_after else y))
        return OdeProblem(d, rhs, lambda t, y: tuple(
            tuple(-1.0 if i == j else 0.0 for j in range(d)) for i in range(d)))

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_short_from_the_start(self, solver, d):
        with pytest.raises(DimensionMismatch,
                           match=f"returned {d - 1} components, need {d}"):
            solver(self._problem(d), _cfg(0.05), (1.0,) * d)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_short_part_way(self, solver, d):
        # past the bootstrap, so the steps' own evaluations hit it
        with pytest.raises(DimensionMismatch,
                           match=f"returned {d - 1} components, need {d}"):
            solver(self._problem(d, short_after=1.0), _cfg(0.05), (1.0,) * d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_index_error_inside_rhs_propagates(self, d):
        def rhs(t, y):
            if t > 1.0:
                raise IndexError("the rhs's own")
            return tuple(-c for c in y)
        for solver in (rk3_step, solve_rk4_reference):
            args = (1.5, (1.0,) * d, 0.05) if solver is rk3_step \
                else (_cfg(0.05), (1.0,) * d)
            with pytest.raises(IndexError, match="the rhs's own"):
                solver(OdeProblem(d, rhs), *args)


def test_nonfinite_startup_raises():
    bad = OdeProblem(1, lambda t, y: (math.nan,))
    with pytest.raises(NonFiniteState):
        solve_ie_pre_post_3(bad, _cfg(0.05), (1.0,))
