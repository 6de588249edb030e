import math
import sys
import threading

import pytest

from filtered_ie23 import (NewtonDiverged, NonPositiveStep, OdeProblem,
                           SingularLinearSystem, SolverConfig,
                           implicit_euler_stage, quasi_periodic_problem)
from filtered_ie23 import newton
from filtered_ie23.core import maxnorm
from filtered_ie23.newton import _NEWTON_TOL, _factor, _substitute

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


# a 3-D problem whose Jacobian has a zero middle row and column, started
# from a middle component of -0.0
ZERO_COLUMN = OdeProblem(
    3, lambda t, y: (-y[0] * y[0], 0.0, -y[2] ** 3),
    lambda t, y: ((-2.0 * y[0], 0.0, 0.0), (0.0, 0.0, 0.0),
                  (0.0, 0.0, -3.0 * y[2] ** 2)))
ZERO_START = (1.0, -0.0, 1.0)


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
        y = implicit_euler_stage(ZERO_COLUMN, 0.1, 0.1, ZERO_START,
                                 ZERO_START, CFG).y
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


class TestFactorSubstitute:
    def test_first_of_tied_pivots_wins(self):
        row0, row1 = [2.0, 1.0], [-2.0, 3.0]
        m = [row0, row1]
        assert _substitute(_factor(m), [1.0, 2.0]) == [0.125, 0.75]
        assert m[0] is row0 and m[1] is row1    # no swap on a tie

    def test_tie_below_a_smaller_pivot(self):
        row0, row1, row2 = [1.0, 2.0, 0.0], [3.0, 0.0, 1.0], [-3.0, 1.0, 1.0]
        m = [row0, row1, row2]
        assert _substitute(_factor(m), [3.0, 4.0, -1.0]) == [1.0, 1.0, 1.0]
        assert m[0] is row1


class TestPlanCache:
    """The generic stage reuses its last factorization of I - k*J while
    k and J repeat; a reused one must give a fresh solve's bits."""

    @pytest.fixture(autouse=True)
    def _cleared_slot(self, monkeypatch):
        monkeypatch.setattr(newton, "_plan_slot", (None, None))

    def test_warm_slot_gives_the_cold_outcome(self, monkeypatch):
        p = quasi_periodic_problem().problem
        y = p.exact(0.3)
        cold = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        warm = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        monkeypatch.setattr(newton, "_plan_slot", (None, None))
        again = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        assert cold == warm == again
        assert newton._plan_slot[0] == (0.05, 4, p.jacobian(0.35, y))

    def test_mutated_jacobian_list_misses(self, monkeypatch):
        # one list, changed in place and returned by every call: a key on
        # the object would reuse the first J's factorization, and give a
        # different answer from a jac that returns a fresh list
        jm = [[0.0] * 3 for _ in range(3)]

        def mutated(t, y):
            for i in range(3):
                jm[i][i] = -2.0 * y[i]
            return jm

        def fresh(t, y):
            return [[-2.0 * y[i] if i == j else 0.0 for j in range(3)]
                    for i in range(3)]

        def rhs(t, y):
            return tuple([-c * c for c in y])

        start = (1.0, 2.0, 3.0)
        outcomes = []
        for jac in (mutated, fresh):
            monkeypatch.setattr(newton, "_plan_slot", (None, None))
            outcomes.append(implicit_euler_stage(OdeProblem(3, rhs, jac), 0.1,
                                                 0.1, start, start, CFG))
        assert outcomes[0].iterations >= 3
        assert outcomes[0] == outcomes[1]

    def test_singular_matrix_is_not_stored(self):
        ones = (1.0,) * 3
        singular = _uncoupled(3, lambda c: c, lambda c: 1.0)
        for _ in range(2):
            with pytest.raises(SingularLinearSystem):
                implicit_euler_stage(singular, 1.0, 1.0, ones, ones, CFG)
        assert newton._plan_slot == (None, None)
        # k = 0.5 leaves I - k*J = I/2, so y = y_tilde + 0.5 y gives 2 y_tilde
        out = implicit_euler_stage(singular, 1.0, 0.5, ones, ones, CFG)
        assert out.y == (2.0, 2.0, 2.0)

    def test_dimension_is_part_of_the_key(self, monkeypatch):
        # one 4x4 Jacobian serves a 3-D and a 4-D problem; the 3-D stage
        # reads its top-left 3x3 block and must not reuse the 4-D plan
        big = ((-1.0, 0.5, 0.0, 0.25), (0.0, -2.0, 0.5, 0.0),
               (0.25, 0.0, -3.0, 0.5), (0.5, 0.25, 0.0, -4.0))

        def linear(d):
            def rhs(t, y):
                return tuple([sum(big[i][j] * y[j] for j in range(d))
                              for i in range(d)])
            return OdeProblem(d, rhs, lambda t, y: big)

        ones = (1.0,) * 4
        implicit_euler_stage(linear(4), 1.0, 0.1, ones, ones, CFG)
        warm = implicit_euler_stage(linear(3), 1.0, 0.1, ones[:3], ones[:3], CFG)
        monkeypatch.setattr(newton, "_plan_slot", (None, None))
        cold = implicit_euler_stage(linear(3), 1.0, 0.1, ones[:3], ones[:3], CFG)
        assert warm == cold

    def test_threads_sharing_the_slot_get_their_own_solves(self):
        # two ks over four threads: the slot changes hands between one
        # thread's lookup and its use, and a thread also hits plans another
        # stored; every outcome must still be the one a thread gets alone
        a = ((-1.0, 2.0, 0.5), (0.25, -3.0, 1.0), (1.0, 0.5, -2.0))
        p = OdeProblem(3, lambda t, y: tuple([sum(a[i][j] * y[j] for j in range(3))
                                              for i in range(3)]),
                       lambda t, y: a)
        ones = (1.0, 1.0, 1.0)
        ks = [0.01, 0.02, 0.01, 0.02]
        alone = [implicit_euler_stage(p, 1.0, k, ones, ones, CFG) for k in ks]
        wrong = []

        def work(i):
            for _ in range(300):
                if implicit_euler_stage(p, 1.0, ks[i], ones, ones, CFG) != alone[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_positive_zero_survives_a_hit_on_negative_zeros(self, monkeypatch):
        # test_zero_jacobian_entries_keep_positive_zero, right after a stage
        # whose stored J held -0.0 where that test's first J holds 0.0: the
        # keys are equal, so that first update reuses the stored plan
        negative = ((-2.0, -0.0, -0.0), (-0.0, -0.0, -0.0), (-0.0, -0.0, -3.0))
        linear = OdeProblem(3, lambda t, y: (-2.0 * y[0], -0.0, -3.0 * y[2]),
                            lambda t, y: negative)
        implicit_euler_stage(linear, 0.1, 0.1, ZERO_START, ZERO_START, CFG)
        stored = newton._plan_slot[0]
        assert stored == (0.1, 3, ZERO_COLUMN.jacobian(0.1, ZERO_START))
        assert math.copysign(1.0, stored[2][0][1]) == -1.0
        factored = []
        factor = newton._factor
        monkeypatch.setattr(newton, "_factor",
                            lambda m: factored.append(1) or factor(m))
        out = implicit_euler_stage(ZERO_COLUMN, 0.1, 0.1, ZERO_START,
                                   ZERO_START, CFG)
        assert len(factored) == out.iterations - 1
        assert math.copysign(1.0, out.y[1]) == 1.0


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
