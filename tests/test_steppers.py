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
from oracles import digest

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

    @pytest.mark.parametrize("p, y", [
        (P, (1.0, 2.0)),        # used to return a 1-tuple
        (P, ()),
        (van_der_pol_problem(1.0).problem, (1.0,)),    # used to raise IndexError
        (van_der_pol_problem(1.0).problem, (1.0, 2.0, 3.0)),
    ], ids=["long-1d", "empty-1d", "short-2d", "long-2d"])
    def test_state_of_the_wrong_length_raises(self, p, y):
        with pytest.raises(DimensionMismatch, match="rk3_step needs"):
            rk3_step(p, 0.0, y, 0.1)

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


class TestFrozenDigests:
    # Every row of these constant-step runs, bit for bit: the filter
    # kernels at d = 1 and d = 4, on uniform steps (post_filtered_uniform)
    # and with a clamped final step (post_filtered); the RK4 loops at
    # d = 1, 2 and 4; and the generic Newton stage with finite differences.
    # The runs of 859 rows cross the trajectory's block moves.  No rhs calls
    # a libm function, so the digests hold wherever IEEE doubles round to
    # nearest.
    QP = quasi_periodic_problem()
    VDP = van_der_pol_problem(1.0)
    MAX_NORM = dataclasses.replace(QP.problem, est_component=None)
    FD = dataclasses.replace(QP.problem, jacobian=None)
    CASES = {
        "ie-pre-2-model": (solve_ie_pre_2, P, (1.0,), 0.05, 2.0,
                           "67a2fa4c74fa3b377a0fb50cc3ac36edf6fbd2c6727b61da45e62e47be5a0ee1"),
        "ie-pre-2-model-clamped": (solve_ie_pre_2, P, (1.0,), 0.03, 2.0,
                                   "3d69f083f648fdd5c6c7ce197cedc11a376e32cf5f42e749efdc3bd4842eef44"),
        "ie-pre-2-quasi-periodic": (solve_ie_pre_2, QP.problem, QP.default_initial_state,
                                    0.01, 3.0,
                                    "4c65a350ed351e04836648cc29de8d3d351ac310a8e5c650162ae930969c719c"),
        "ie-pre-2-quasi-periodic-clamped": (
            solve_ie_pre_2, QP.problem, QP.default_initial_state, 0.007, 6.0,
            "c7198e2ba45a204517106e3a1ca1cbb90d603fd7eb5f2d101d735b32d53bd145"),
        "ie-pre-post-3-model": (solve_ie_pre_post_3, P, (1.0,), 0.05, 2.0,
                                "8ab43d30ed7a5bf9cc6e7e35f9eb8fd9ee23aaf664565f5387af8785c45a04df"),
        "ie-pre-post-3-model-clamped": (
            solve_ie_pre_post_3, P, (1.0,), 0.03, 2.0,
            "b819b188d005e4c74fdb922c6fea40bbe4875c60add8cf0a7ba79caa5e104135"),
        "ie-pre-post-3-quasi-periodic": (
            solve_ie_pre_post_3, QP.problem, QP.default_initial_state, 0.01, 3.0,
            "7183bf0cac4fc836a09b23818fdbcbbb1b68c857a24d9e15f516f7965b20d368"),
        "ie-pre-post-3-quasi-periodic-clamped": (
            solve_ie_pre_post_3, QP.problem, QP.default_initial_state, 0.007, 6.0,
            "c8dce7766605a849add4e5e39089fe87771569e097800cf36b79d3bb1ffc27dc"),
        "ie-pre-post-3-quasi-periodic-max-norm-clamped": (
            solve_ie_pre_post_3, MAX_NORM, QP.default_initial_state, 0.007, 3.0,
            "1815f77397c2c7f355e64bce921491d6e029d56bbed47dabe861fa4348d4ee9b"),
        "ie-pre-post-3-finite-differences-clamped": (
            solve_ie_pre_post_3, FD, QP.default_initial_state, 0.007, 1.0,
            "d6a26f20953af0327a41ab85ae7a551e1f46fd8276563b021d8b0da748d86783"),
        "rk4-model-clamped": (solve_rk4_reference, P, (1.0,), 0.03, 2.0,
                              "65928b2a23cb140c74e3e733d1e5d0aeb1db42dcd470e4e48996920c82bf25be"),
        "rk4-vdp-clamped": (solve_rk4_reference, VDP.problem, VDP.default_initial_state,
                            0.03, 2.0,
                            "022b7203d7d6d2cc677c23996e96533d9c7099914313e40f9f7b9c6fe3c8a51c"),
        "rk4-quasi-periodic-clamped": (
            solve_rk4_reference, QP.problem, QP.default_initial_state, 0.007, 6.0,
            "1377a7ae20bd01fca5b3d3304b77f57ab3834d6b9581d7dbb9b3e6c7ae3558a6"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case):
        solver, p, y0, dt0, t_end, expected = self.CASES[case]
        traj = solver(p, SolverConfig(dt0=dt0, t_end=t_end), y0).trajectory
        uniform = abs(traj.ks[-1] - dt0) <= 1e-9 * dt0
        assert uniform == ("clamped" not in case)
        assert digest(traj) == expected


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
