import math

import pytest

from filtered_ie23 import make_problem
from filtered_ie23.problems import (REGISTRY, model_analog_problem,
                                    model_problem, quasi_periodic_problem,
                                    van_der_pol_problem)

ALL_NAMES = {"model", "quasi-periodic", "model-analog", "van-der-pol"}


def _fd_derivative(f, t, i, h=1e-6):
    return (f(t + h)[i] - f(t - h)[i]) / (2.0 * h)


class TestRegistry:
    def test_names(self):
        assert set(REGISTRY) == ALL_NAMES

    def test_make_problem_dispatch(self):
        spec = make_problem("model-analog", gamma=2.0)
        assert spec.parameters == {"gamma": 2.0}
        assert spec.default_range == (0.0, 2.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="van-der-pol"):
            make_problem("lorenz")


class TestConsistency:
    """The rhs, jacobian, exact solution, and initial state of each
    problem must agree with one another."""

    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_initial_state_matches_exact(self, name):
        spec = make_problem(name)
        if spec.problem.exact is None:
            pytest.skip("no closed form")
        t0 = spec.default_range[0]
        got = spec.problem.exact(t0)
        assert got == pytest.approx(spec.default_initial_state, abs=1e-14)

    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_exact_solves_the_ode(self, name):
        spec = make_problem(name)
        exact = spec.problem.exact
        if exact is None:
            pytest.skip("no closed form")
        for t in (0.3, 1.1, 1.9):
            f = spec.problem.rhs(t, exact(t))
            for i in range(spec.problem.dimension):
                scale = 1.0 + abs(f[i])
                assert _fd_derivative(exact, t, i) == pytest.approx(
                    f[i], abs=1e-5 * scale)

    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_jacobian_matches_rhs(self, name):
        spec = make_problem(name)
        p = spec.problem
        assert p.jacobian is not None
        t = 0.7
        y = tuple(0.5 + 0.25 * i for i in range(p.dimension))
        jac = p.jacobian(t, y)
        h = 1e-7
        for j in range(p.dimension):
            bumped = list(y)
            bumped[j] += h
            up = p.rhs(t, tuple(bumped))
            bumped[j] -= 2.0 * h
            down = p.rhs(t, tuple(bumped))
            for i in range(p.dimension):
                fd = (up[i] - down[i]) / (2.0 * h)
                assert jac[i][j] == pytest.approx(fd, abs=1e-5)


class TestModel:
    def test_exact_and_parameters(self):
        spec = model_problem(lam=2.0)
        assert spec.parameters == {"lam": 2.0}
        assert spec.problem.exact(1.0)[0] == pytest.approx(math.exp(2.0))
        assert spec.problem.est_component is None
        assert spec.default_range == (0.0, 2.0)


class TestQuasiPeriodic:
    def test_shape_and_estimator_component(self):
        spec = quasi_periodic_problem()
        assert spec.problem.dimension == 4
        assert spec.problem.est_component == 0
        assert spec.default_range == (0.0, 20.0)

    def test_position_component(self):
        spec = quasi_periodic_problem()
        for t in (0.0, 2.5, 17.0):
            want = math.cos(t) + math.cos(math.pi * t)
            assert spec.problem.exact(t)[0] == pytest.approx(want, rel=1e-14)


class TestModelAnalog:
    def test_exact_solution_shape(self):
        spec = model_analog_problem(gamma=4.0)
        exact = spec.problem.exact
        # rises to exp(gamma^2/4) at the midpoint, returns to 1 at gamma
        assert exact(2.0)[0] == pytest.approx(math.exp(4.0), rel=1e-13)
        assert exact(4.0)[0] == pytest.approx(1.0, rel=1e-13)
        assert spec.default_range == (0.0, 4.0)


class TestVanDerPol:
    def test_no_closed_form_and_estimator_component(self):
        spec = van_der_pol_problem(10.0)
        assert spec.problem.exact is None
        assert spec.problem.est_component == 0
        assert spec.parameters == {"mu": 10.0}

    def test_rhs_at_rest_point_of_velocity(self):
        spec = van_der_pol_problem(3.0)
        assert spec.problem.rhs(0.0, (2.0, 0.0)) == (0.0, -2.0)

    def test_final_times_grow_with_mu(self):
        times = {mu: van_der_pol_problem(mu).default_range[1]
                 for mu in (1.0, 2.0, 5.0, 10.0, 100.0, 200.0)}
        assert times == {1.0: 50.0, 2.0: 50.0, 5.0: 100.0, 10.0: 200.0,
                         100.0: 500.0, 200.0: 1500.0}
        # values without a tabulated horizon get the shortest one
        assert van_der_pol_problem(7.0).default_range == (0.0, 50.0)

    def test_rejects_nonpositive_mu(self):
        # a non-finite mu too: mu = inf turns v' into nan at v = 0.  The
        # linear problems take any finite lam or gamma, and no other.
        cases = [(van_der_pol_problem, mu) for mu in (0.0, -1.0, math.inf, math.nan)]
        cases += [(ctor, value) for ctor in (model_problem, model_analog_problem)
                  for value in (math.inf, -math.inf, math.nan)]
        for ctor, value in cases:
            with pytest.raises(ValueError):
                ctor(value)
