import math

import pytest

from filtered_ie23 import (NewtonDiverged, NonPositiveStep, OdeProblem,
                           SingularLinearSystem, SolverConfig,
                           implicit_euler_stage, quasi_periodic_problem)
from filtered_ie23.core import maxnorm
from filtered_ie23.newton import _NEWTON_TOL, _solve_dense

CFG = SolverConfig()


def _linear_1d(lam, with_jac=True):
    return OdeProblem(
        1,
        lambda t, y: (lam * y[0],),
        (lambda t, y: ((lam,),)) if with_jac else None,
    )


def _linear_2d(a, with_jac=True):
    def rhs(t, y):
        return (a[0][0] * y[0] + a[0][1] * y[1],
                a[1][0] * y[0] + a[1][1] * y[1])

    return OdeProblem(2, rhs, (lambda t, y: a) if with_jac else None)


def _uncoupled(d, f, df):
    """d uncoupled copies of y' = f(y), with the diagonal Jacobian df(y).
    d = 1 and d = 2 take the straight-line paths, d = 3 the generic one."""
    def jac(t, y):
        return tuple([tuple([df(c) if i == j else 0.0 for j in range(d)])
                      for i, c in enumerate(y)])

    return OdeProblem(d, lambda t, y: tuple([f(c) for c in y]), jac)


class TestLinearStages:
    def test_scalar_with_jacobian(self):
        # y = y_tilde / (1 - k*lam), and Newton needs one update on a
        # linear problem
        out = implicit_euler_stage(_linear_1d(2.0), 0.5, 0.1, (1.0,), (1.0,), CFG)
        assert out.y[0] == pytest.approx(1.25, rel=1e-14)
        assert out.iterations <= 2
        assert out.residual_norm <= _NEWTON_TOL * (1.0 + maxnorm(out.y))

    def test_scalar_finite_difference_jacobian(self):
        out = implicit_euler_stage(_linear_1d(2.0, with_jac=False),
                                   0.5, 0.1, (1.0,), (1.0,), CFG)
        assert out.y[0] == pytest.approx(1.25, rel=1e-9)

    def test_planar_with_jacobian(self):
        a = ((-1.0, 2.0), (1.0, -3.0))
        out = implicit_euler_stage(_linear_2d(a), 0.5, 0.2, (1.0, -1.0),
                                   (1.0, -1.0), CFG)
        # (I - k A) y = y_tilde solved by hand
        assert out.y[0] == pytest.approx(1.2 / 1.84, rel=1e-12)
        assert out.y[1] == pytest.approx(-1.0 / 1.84, rel=1e-12)

    def test_planar_finite_difference_jacobian(self):
        a = ((-1.0, 2.0), (1.0, -3.0))
        out = implicit_euler_stage(_linear_2d(a, with_jac=False), 0.5, 0.2,
                                   (1.0, -1.0), (1.0, -1.0), CFG)
        assert out.y[0] == pytest.approx(1.2 / 1.84, rel=1e-8)
        assert out.y[1] == pytest.approx(-1.0 / 1.84, rel=1e-8)

    def test_dimension_four_residual_contract(self):
        p = quasi_periodic_problem().problem
        y = p.exact(0.3)
        out = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        f = p.rhs(0.35, out.y)
        residual = maxnorm([out.y[i] - y[i] - 0.05 * f[i] for i in range(4)])
        assert residual <= _NEWTON_TOL * (1.0 + maxnorm(out.y))
        assert residual == pytest.approx(out.residual_norm, abs=1e-15)


class TestNonlinearStage:
    def test_quadratic_rhs_root(self):
        p = OdeProblem(1, lambda t, y: (y[0] * y[0],),
                       lambda t, y: ((2.0 * y[0],),))
        out = implicit_euler_stage(p, 1.0, 0.1, (1.0,), (1.0,), CFG)
        root = (1.0 - math.sqrt(0.6)) / 0.2
        assert out.y[0] == pytest.approx(root, rel=1e-10)

    def test_zero_jacobian_entries_keep_positive_zero(self):
        # the 3-D stage builds I - k*J entry by entry; a 0.0 Jacobian entry
        # off the diagonal must stay +0.0 there, since the solve carries its
        # sign into the update of the middle component, whose guess is -0.0
        def rhs(t, y):
            return (-y[0] * y[0], 0.0, -y[2] ** 3)

        def jac(t, y):
            return ((-2.0 * y[0], 0.0, 0.0), (0.0, 0.0, 0.0),
                    (0.0, 0.0, -3.0 * y[2] ** 2))

        start = (1.0, -0.0, 1.0)
        y = implicit_euler_stage(OdeProblem(3, rhs, jac), 0.1, 0.1, start,
                                 start, CFG).y
        assert math.copysign(1.0, y[1]) == 1.0

    def test_time_only_rhs_matches_closed_form(self):
        # f independent of y: the stage equation is linear with solution
        # y_tilde + k*f(t_next), reached in a single correction
        p = OdeProblem(1, lambda t, y: (3.0 * t * t,), lambda t, y: ((0.0,),))
        y_tilde, k, t_next = (0.125,), 0.25, 0.75
        out = implicit_euler_stage(p, t_next, k, y_tilde, (0.1,), CFG)
        closed = y_tilde[0] + k * 3.0 * t_next * t_next
        assert out.y[0] == pytest.approx(closed, rel=1e-12)
        assert out.iterations <= 2


class TestSolveDense:
    def test_first_of_tied_pivots_wins(self):
        row0, row1 = [2.0, 1.0], [-2.0, 3.0]
        m = [row0, row1]
        assert _solve_dense(m, [1.0, 2.0]) == [0.125, 0.75]
        assert m[0] is row0 and m[1] is row1    # no swap on a tie

    def test_tie_below_a_smaller_pivot(self):
        row0, row1, row2 = [1.0, 2.0, 0.0], [3.0, 0.0, 1.0], [-3.0, 1.0, 1.0]
        m = [row0, row1, row2]
        assert _solve_dense(m, [3.0, 4.0, -1.0]) == [1.0, 1.0, 1.0]
        assert m[0] is row1


class TestFailureModes:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(NonPositiveStep):
            implicit_euler_stage(_linear_1d(1.0), 0.5, 0.0, (1.0,), (1.0,), CFG)

    def test_singular_scalar_matrix(self):
        # k*lam = 1 makes 1 - k*lam vanish
        with pytest.raises(SingularLinearSystem):
            implicit_euler_stage(_linear_1d(1.0), 1.0, 1.0, (1.0,), (1.0,), CFG)

    def test_singular_planar_matrix(self):
        eye = ((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(SingularLinearSystem):
            implicit_euler_stage(_linear_2d(eye), 1.0, 1.0, (1.0, 1.0),
                                 (1.0, 1.0), CFG)

    def test_nonfinite_rhs_diverges(self):
        p = OdeProblem(1, lambda t, y: (math.nan,), lambda t, y: ((0.0,),))
        with pytest.raises(NewtonDiverged):
            implicit_euler_stage(p, 0.5, 0.1, (1.0,), (1.0,), CFG)

    def test_rootless_stage_equation_diverges(self):
        # y - 1 - y^2 has no real root; Newton cycles and hits the cap
        p = OdeProblem(1, lambda t, y: (y[0] * y[0],),
                       lambda t, y: ((2.0 * y[0],),))
        with pytest.raises(NewtonDiverged):
            implicit_euler_stage(p, 1.0, 1.0, (1.0,), (1.0,), CFG)

    def test_singular_dense_matrix(self):
        # k*J = I makes I - k*J vanish on the generic path too
        ones = (1.0,) * 3
        with pytest.raises(SingularLinearSystem):
            implicit_euler_stage(_uncoupled(3, lambda c: c, lambda c: 1.0),
                                 1.0, 1.0, ones, ones, CFG)

    # the 1-D path of the next two cases is tested above

    @pytest.mark.parametrize("d", [2, 3])
    def test_nonfinite_rhs_diverges_on_every_path(self, d):
        ones = (1.0,) * d
        p = _uncoupled(d, lambda c: math.nan, lambda c: 0.0)
        with pytest.raises(NewtonDiverged, match="non-finite residual"):
            implicit_euler_stage(p, 0.5, 0.1, ones, ones, CFG)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_in_one_component_diverges(self, d):
        # the max-norm of the residual drops a NaN that is not first, so
        # every component is checked, not only that norm
        ones = (1.0,) * d
        jac = _uncoupled(d, lambda c: 0.0, lambda c: 0.0).jacobian
        for i in range(d):
            f = tuple([math.nan if c == i else 0.0 for c in range(d)])
            p = OdeProblem(d, lambda t, y, f=f: f, jac)
            with pytest.raises(NewtonDiverged, match="non-finite residual"):
                implicit_euler_stage(p, 0.5, 0.1, ones, ones, CFG)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rootless_stage_equation_diverges_on_every_path(self, d):
        ones = (1.0,) * d
        p = _uncoupled(d, lambda c: c * c, lambda c: 2.0 * c)
        with pytest.raises(NewtonDiverged, match="no convergence in 25 iterations"):
            implicit_euler_stage(p, 1.0, 1.0, ones, ones, CFG)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflowing_update_diverges(self, d):
        # a Jacobian of (1 - 2**-52) * I, against an rhs of 0, leaves the
        # Newton matrix 2**-52 * I: the finite residual 1e300 then sends the
        # first update to -inf
        p = _uncoupled(d, lambda c: 0.0, lambda c: 1.0 - 2.0 ** -52)
        zeros = (0.0,) * d
        with pytest.raises(NewtonDiverged, match="non-finite iterate"):
            implicit_euler_stage(p, 1.0, 1.0, (-1e300,) + zeros[1:], zeros, CFG)

    def test_singular_planar_matrix_after_elimination(self):
        # I - k*J = ((1, 1), (1, 1)): the first pivot is 1, the second 0
        p = _linear_2d(((0.0, -1.0), (-1.0, 0.0)))
        with pytest.raises(SingularLinearSystem):
            implicit_euler_stage(p, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0), CFG)
