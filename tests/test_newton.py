import inspect
import math
import sys
import threading
import traceback

import pytest
from hypothesis import example, given, settings, strategies as st

from filtered_ie23 import (DimensionMismatch, NewtonDiverged, NonPositiveStep,
                           OdeProblem, SingularLinearSystem, SolverConfig,
                           SolverError, implicit_euler_stage,
                           quasi_periodic_problem, solve_filtered_ie23,
                           solve_ie_pre_2, solve_ie_pre_post_3)
from filtered_ie23 import newton
from filtered_ie23.newton import _NEWTON_TOL, _fd_jacobian

from oracles import maxnorm, reference_stage, two_pass_factor

CFG = SolverConfig()
EMPTY_SLOT = (None, None, None, None)


def _slot():
    """The plan slot of the generated stages, (k, J, d, plan)."""
    return newton._kernel_globals["_plan_slot"]


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
    """d uncoupled copies of y' = f(y), with the diagonal Jacobian df(y),
    as a fresh tuple of tuples on every call."""
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

    def test_finite_difference_leaves_the_iterate_unmoved(self):
        # y[i] += h; y[i] -= h brought 1e-20 back as 9.998959244540999e-21
        # and 1.1288584381185864e-07 as 1.1288584381185863e-07
        p = _linear_2d(((-1.0, 2.0), (1.0, -3.0)), with_jac=False)
        for start in ([1e-20, 1.1288584381185864e-07], [-0.0, 5e-324], [-3.5, 1e300]):
            y = list(start)
            _fd_jacobian(p, 0.0, y, p.rhs(0.0, tuple(y)))
            assert [c.hex() for c in y] == [c.hex() for c in start]

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


def _hex(x):
    """x with every float as its hex string, so == compares bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


def _two_pass_form(plan, d):
    """A plan from the slot, (p0, ..., f1_0, ..., m0_0, ...), in
    two_pass_factor's form: the updates (i, factor, j) of its nonzero
    multipliers and the row order after its swaps, with rows named by their
    index before the swaps, and U's rows."""
    pivots, factors = plan[:d - 1], iter(plan[d - 1:])
    order, updates = list(range(d)), []
    for c, piv in enumerate(pivots):
        order[c], order[piv] = order[piv], order[c]
        for r in range(c + 1, d):
            factor = next(factors)
            if factor != 0.0:
                updates.append((order[r], factor, order[c]))
    u = list(factors)
    rows = [u[sum(range(d, d - r, -1)):][:d - r] for r in range(d)]
    return updates, (None if order == sorted(order) else order), rows


class TestFactorSubstitute:
    """The generated stage eliminates I - k*J together with the
    right-hand side in one pass, and from d = _REUSE_FROM on stores its
    pivots, multipliers and U in the plan slot.  On a linear stage with
    J = I - M at k = 1 (_matrix_stage), the first update solves M x = -g;
    the stage, cold and then reusing its plan, must give the outcome of
    oracles.py's two-pass elimination and its plan, bit for bit."""

    @pytest.fixture(autouse=True)
    def _cleared_slot(self, monkeypatch):
        monkeypatch.setitem(newton._kernel_globals, "_plan_slot", EMPTY_SLOT)

    def _solve(self, m, y_tilde, y_guess=None):
        """The stage's outcome, and its plan in two_pass_factor's form, or
        None where no update ran."""
        d = len(m)
        _, p, k, y_tilde, y_guess = _matrix_stage(m, y_tilde, y_guess or (0.0,) * d)
        want = _outcome(reference_stage, p, 0.5, k, y_tilde, y_guess)
        got = [_outcome(implicit_euler_stage, p, 0.5, k, y_tilde, y_guess, CFG)
               for _ in range(2)]
        assert got == [want, want]
        jm = p.jacobian(0.5, y_tilde)
        newton_matrix = [[(1.0 if r == c else 0.0) - k * jm[r][c] for c in range(d)]
                         for r in range(d)]
        try:
            updates, order, u = two_pass_factor(newton_matrix)
        except SingularLinearSystem:
            # no plan: the stage either needed no update or raised
            assert _slot() == EMPTY_SLOT
            assert want is SingularLinearSystem or want[1] == 0
            return want, None
        if want[1] == 0:    # -g was zero
            assert _slot() == EMPTY_SLOT
            return want, None
        plan = _two_pass_form(_slot()[3], d)
        assert _hex(plan) == _hex((updates, order, [row[r:] for r, row in enumerate(u)]))
        return want, plan

    def test_first_of_tied_pivots_wins(self):
        # column 0 holds 2.0 and -2.0; row 2 only makes the stage store a plan
        got, (_, order, _) = self._solve(
            ((2.0, 1.0, 0.0), (-2.0, 3.0, 0.0), (0.0, 0.0, 1.0)), (1.0, 2.0, 4.0))
        assert got[0] == [v.hex() for v in (0.125, 0.75, 4.0)]
        assert order is None    # no swap on a tie

    def test_tie_below_a_smaller_pivot(self):
        got, (_, order, _) = self._solve(
            ((1.0, 2.0, 0.0), (3.0, 0.0, 1.0), (-3.0, 1.0, 1.0)), (3.0, 4.0, -1.0))
        assert got[0] == [v.hex() for v in (1.0, 1.0, 1.0)]
        assert order[0] == 1

    def test_two_row_swaps(self):
        # column 0 takes row 2's 4.0, column 1 row 3's 5.0, column 2 keeps
        # its row; row 3's 0.0 in column 0 gives a zero multiplier
        m = ((1.0, 2.0, 3.0, 1.0), (2.0, 1.0, 1.0, 0.0),
             (4.0, 0.0, 1.0, 2.0), (0.0, 5.0, 0.0, 1.0))
        _, (updates, order, _) = self._solve(m, (1.0, -0.0, 2.0, 3.0))
        assert order == [2, 3, 0, 1]
        assert [u[:3:2] for u in updates] == [(1, 2), (0, 2), (0, 3), (1, 3), (1, 0)]

    def test_zero_multiplier_records_no_update(self):
        m = ((2.0, 1.0, 0.0), (0.0, 3.0, 1.0), (1.0, 0.0, 4.0))
        _, (updates, order, _) = self._solve(m, (1.0, 2.0, 3.0))
        assert order is None
        assert [u[0] for u in updates] == [2, 2]

    def test_negative_zero_right_hand_side(self):
        # -g = (0.0, -0.0, -0.0, 1.0): row 1's update is
        # -0.0 - (-0.5 * 0.0) = +0.0 and row 2 has none, so it keeps -0.0;
        # row 3 only makes -g nonzero
        m = ((2.0, 0.0, 0.0, 0.0), (-1.0, 1.0, 0.0, 0.0),
             (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
        got, _ = self._solve(m, (0.0, -0.0, -0.0, 1.0), (-0.0, -0.0, -0.0, 0.0))
        assert [math.copysign(1.0, float.fromhex(v)) for v in got[0]] == [1.0, 1.0, -1.0, 1.0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.integers(3, 5).flatmap(lambda d: st.tuples(
        st.lists(st.lists(st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0,
                                           3.0, 0.1, -2.0 / 3.0]),
                          min_size=d, max_size=d), min_size=d, max_size=d),
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0 / 3.0, 7.0]),
                 min_size=d, max_size=d))))
    def test_matches_the_two_pass_elimination(self, case):
        # entries from a small set, so ties, zero multipliers and singular
        # matrices are common
        m, rhs = case
        newton._kernel_globals["_plan_slot"] = EMPTY_SLOT
        self._solve(m, tuple(rhs))


class TestPlanCache:
    """From dimension 3 on a stage reuses its last factorization of
    I - k*J while k and J repeat; a reused one must give a fresh solve's
    bits."""

    @pytest.fixture(autouse=True)
    def _cleared_slot(self, monkeypatch):
        monkeypatch.setitem(newton._kernel_globals, "_plan_slot", EMPTY_SLOT)

    def test_warm_slot_gives_the_cold_outcome(self, monkeypatch):
        p = quasi_periodic_problem().problem
        y = p.exact(0.3)
        cold = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        warm = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        monkeypatch.setitem(newton._kernel_globals, "_plan_slot", EMPTY_SLOT)
        again = implicit_euler_stage(p, 0.35, 0.05, y, y, CFG)
        assert cold == warm == again
        k, jm, d, _ = _slot()
        assert (k, d) == (0.05, 4) and jm is p.jacobian(0.35, y)

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
            monkeypatch.setitem(newton._kernel_globals, "_plan_slot", EMPTY_SLOT)
            outcomes.append(implicit_euler_stage(OdeProblem(3, rhs, jac), 0.1,
                                                 0.1, start, start, CFG))
            assert _slot() == EMPTY_SLOT
        assert outcomes[0].iterations >= 3
        assert outcomes[0] == outcomes[1]

    def test_singular_matrix_is_not_stored(self):
        ones = (1.0,) * 3
        singular = _uncoupled(3, lambda c: c, lambda c: 1.0)
        for _ in range(2):
            with pytest.raises(SingularLinearSystem):
                implicit_euler_stage(singular, 1.0, 1.0, ones, ones, CFG)
        assert _slot() == EMPTY_SLOT
        # k = 0.5 leaves I - k*J = I/2, so y = y_tilde + 0.5 y gives 2 y_tilde
        out = implicit_euler_stage(singular, 1.0, 0.5, ones, ones, CFG)
        assert out.y == (2.0, 2.0, 2.0)

    def test_dimension_is_part_of_the_key(self, monkeypatch):
        # one 4x4 Jacobian serves a 3-D and a 4-D problem; the 3-D stage
        # reads its top-left 3x3 block and must not reuse the 4-D plan,
        # which it meets with the same J and k
        big = ((-1.0, 0.5, 0.0, 0.25), (0.0, -2.0, 0.5, 0.0),
               (0.25, 0.0, -3.0, 0.5), (0.5, 0.25, 0.0, -4.0))

        def linear(d):
            def rhs(t, y):
                return tuple([sum(big[i][j] * y[j] for j in range(d))
                              for i in range(d)])
            return OdeProblem(d, rhs, lambda t, y: big)

        ones = (1.0,) * 4
        implicit_euler_stage(linear(4), 1.0, 0.1, ones, ones, CFG)
        assert _slot()[:3] == (0.1, big, 4) and _slot()[1] is big
        warm = implicit_euler_stage(linear(3), 1.0, 0.1, ones[:3], ones[:3], CFG)
        assert _slot()[:3] == (0.1, big, 3)
        monkeypatch.setitem(newton._kernel_globals, "_plan_slot", EMPTY_SLOT)
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

    @pytest.mark.parametrize("run_length", [64, 1])
    def test_alternating_patterns_give_cold_stages(self, monkeypatch, run_length):
        # two 4-D Jacobians whose eliminations differ in their multipliers
        # and row swaps, each for run_length stages in a row, alternated at
        # one k and then at another: the first stage of a run finds the
        # other's plan in the slot and from its second update on reuses its
        # own, which the rest of the run reuse from their first update.
        # The rhs is not linear in y, so Newton's iteration with the
        # constant J takes several updates.
        swapped = ((-5.0, -400.0, 10.0, 1.0), (300.0, -2.5, 20.0, 0.0),
                   (10.0, -200.0, -350.0, 2.0), (0.5, 1.0, 3.0, -7.0))
        sparse = ((-3.0, 0.0, 0.0, 1.0), (0.0, -2.0, 0.0, 0.0),
                  (1.0, 0.0, -4.0, 0.0), (0.0, 0.0, 0.5, -1.0))

        def chord(a):
            def rhs(t, y):
                return tuple([sum(a[i][j] * y[j] for j in range(4)) - 0.5 * y[i] ** 3
                              for i in range(4)])
            return OdeProblem(4, rhs, lambda t, y: a)

        problems = [chord(swapped), chord(sparse)]
        start, guess = (1.0, -0.5, 0.25, -0.0), (0.5, 0.5, -0.5, 0.0)
        cases = [(k, p) for k in (0.01, 0.01, 0.02) for p in problems * 2
                 for _ in range(run_length)]
        warm, pivots = [], set()
        for k, p in cases:
            warm.append(_outcome(implicit_euler_stage, p, 0.5, k, start, guess, CFG))
            stored_k, jm, _, plan = _slot()
            assert stored_k == k and jm is p.jacobian(0.5, start)
            pivots.add(plan[:3])
        # the first Jacobian swaps rows 0 and 1, the second none
        assert pivots == {(1, 1, 2), (0, 1, 2)}
        for (k, p), got in zip(cases, warm):
            monkeypatch.setitem(newton._kernel_globals, "_plan_slot", EMPTY_SLOT)
            cold = _outcome(implicit_euler_stage, p, 0.5, k, start, guess, CFG)
            assert got == cold == _outcome(reference_stage, p, 0.5, k, start, guess)
            assert got[1] >= 3


class TestArrayJacobians:
    """A jac that returns numpy arrays reads np.float64 entries and is
    never stored for reuse: every stage and run must give the bits of a jac
    that returns fresh tuples of tuples, whether it returns a new ndarray,
    a tuple of ndarray rows, or one ndarray changed in place."""

    A = ((-2.0, 1.0, 0.0), (0.5, -3.0, 0.25), (0.0, 0.0, -1.0))

    def _rows(self, t, y, cubic):
        # f = (1 + t)*A*y, less y_i**3/3 for the cubic problem; J is
        # s*A with s = 1.5 before t = 0.6 and 1.75 after, less diag(y_i**2),
        # so the linear problem's J repeats its values until t passes 0.6,
        # and Newton's iteration still converges
        s = 1.5 if t < 0.6 else 1.75
        return [[s * v - (y[i] * y[i] if cubic and i == j else 0.0)
                 for j, v in enumerate(row)] for i, row in enumerate(self.A)]

    def _outcomes(self, jac):
        out = []
        for cubic in (False, True):
            def rhs(t, y):
                a = self.A
                return tuple([(1.0 + t) * sum(a[i][c] * y[c] for c in range(3))
                              - (y[i] ** 3 / 3.0 if cubic else 0.0) for i in range(3)])

            p = OdeProblem(3, rhs, lambda t, y: jac(t, y, cubic))
            start, guess = (1.0, -0.5, 0.25), (0.5, 0.5, 0.5)
            newton._kernel_globals["_plan_slot"] = EMPTY_SLOT
            out += [_outcome(implicit_euler_stage, p, t, k, start, guess, CFG)
                    for t, k in [(0.5, 0.1)] * 3 + [(0.75, 0.1), (0.75, 0.2)]]
            cfg = SolverConfig(tol=1e-4, dt0=1e-3, t_end=0.7)
            traj, stats = solve_filtered_ie23(p, cfg, start)
            out += [[c.hex() for c in y] for y in traj.states] + [stats]
        return out

    @pytest.mark.parametrize("form", ["ndarray", "ndarray rows", "ndarray changed in place"])
    def test_outcomes_of_fresh_tuples(self, form):
        np = pytest.importorskip("numpy")
        buffer = np.zeros((3, 3))

        def array_jac(t, y, cubic):
            rows = np.array(self._rows(t, y, cubic))
            if form == "ndarray rows":
                return tuple(rows)
            if form == "ndarray changed in place":
                buffer[...] = rows
                return buffer
            return rows

        want = self._outcomes(
            lambda t, y, cubic: tuple(map(tuple, self._rows(t, y, cubic))))
        assert self._outcomes(array_jac) == want


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

    def test_a_traceback_shows_the_generated_kernel(self):
        # the kernels' source is registered with linecache, so a failure
        # in one shows the generated line that raised, and getsource works
        ones = (1.0,) * 3
        p = _uncoupled(3, lambda c: c * c, lambda c: 2.0 * c)
        with pytest.raises(NewtonDiverged) as info:
            implicit_euler_stage(p, 1.0, 1.0, ones, ones, CFG)
        frames = [frame for frame in traceback.extract_tb(info.value.__traceback__)
                  if frame.filename == "<filtered_ie23.newton stage d=3>"]
        assert [frame.line for frame in frames] == ["raise NewtonDiverged("]
        source = inspect.getsource(newton._stage_kernel(3))
        assert source.startswith("def stage_d3(p, t_next, k_n, y_tilde, y_guess, cfg):")

    def test_singular_planar_matrix_after_elimination(self):
        # I - k*J = ((1, 1), (1, 1)): the first pivot is 1, the second 0
        p = _linear_2d(((0.0, -1.0), (-1.0, 0.0)))
        with pytest.raises(SingularLinearSystem):
            implicit_euler_stage(p, 1.0, 1.0, (1.0, 1.0), (1.0, 1.0), CFG)


class TestStateLengths:
    # every path refuses a state that is too long, whose extra component
    # it would drop or carry into y, and one that is too short; the generic
    # path refuses a problem of dimension 0, whose states are empty
    A = ((-1.0, 2.0), (1.0, -3.0))
    CASES = {
        "1-D long": (_linear_1d(2.0), (1.0, 9.0), (1.0, 9.0)),
        "1-D empty guess": (_linear_1d(2.0), (1.0,), ()),
        "2-D long": (_linear_2d(A), (1.0, -1.0, 9.0), (1.0, -1.0, 9.0)),
        "2-D short tilde": (_linear_2d(A), (1.0,), (1.0, -1.0)),
        "generic long": (quasi_periodic_problem().problem, (1.0, 0.0, 0.0, 0.0, 9.0),
                         (1.0, 0.0, 0.0, 0.0, 9.0)),
        "generic short": (quasi_periodic_problem().problem, (1.0, 0.0, 0.0),
                          (1.0, 0.0, 0.0)),
        "finite differences long guess": (_linear_1d(2.0, with_jac=False), (1.0,),
                                          (1.0, 9.0)),
        "dimension 0": (OdeProblem(0, lambda t, y: ()), (), ()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_dimension_mismatch(self, case):
        p, y_tilde, y_guess = self.CASES[case]
        with pytest.raises(DimensionMismatch, match=(
                f"stage needs {p.dimension} components, "
                f"got {len(y_tilde)} and {len(y_guess)}")):
            implicit_euler_stage(p, 0.5, 0.1, y_tilde, y_guess, CFG)

    @pytest.mark.parametrize("d, with_jac", [(1, True), (2, True), (3, True),
                                             (1, False), (3, False)])
    def test_short_rhs_raises_dimension_mismatch(self, d, with_jac):
        # y' = -y with an rhs one component short, which used to fail with
        # a bare IndexError
        full = _uncoupled(d, lambda c: -c, lambda c: -1.0)
        p = OdeProblem(d, lambda t, y: full.rhs(t, y)[:-1],
                       full.jacobian if with_jac else None)
        ones = (1.0,) * d
        with pytest.raises(DimensionMismatch,
                           match=f"returned {d - 1} components, need {d}"):
            implicit_euler_stage(p, 0.5, 0.1, ones, ones, CFG)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("short", ["rows", "columns"])
    def test_short_jacobian_raises_dimension_mismatch(self, d, short):
        # a J one row or one column short, which used to fail with a bare
        # IndexError or, for rows from d = 3 on, a ValueError
        full = _uncoupled(d, lambda c: -c, lambda c: -1.0)

        def jac(t, y):
            j = full.jacobian(t, y)
            return j[:-1] if short == "rows" else tuple([row[:-1] for row in j])

        p = OdeProblem(d, full.rhs, jac, name="short")
        ones = (1.0,) * d
        with pytest.raises(DimensionMismatch,
                           match=f"jacobian of 'short' is smaller than {d}x{d}"):
            implicit_euler_stage(p, 0.5, 0.1, ones, ones, CFG)

    def test_a_larger_jacobian_gives_its_top_left_block(self):
        # J's rows and columns past d are not read
        a = ((-1.0, 2.0), (1.0, -3.0))
        big = ((-1.0, 2.0, 7.0), (1.0, -3.0, 7.0), (7.0, 7.0, 7.0))
        p = _linear_2d(a)
        want = implicit_euler_stage(p, 0.5, 0.2, (1.0, -1.0), (1.0, -1.0), CFG)
        got = implicit_euler_stage(OdeProblem(2, p.rhs, lambda t, y: big), 0.5, 0.2,
                                   (1.0, -1.0), (1.0, -1.0), CFG)
        assert got == want


@pytest.mark.parametrize("solve", [solve_filtered_ie23, solve_ie_pre_2, solve_ie_pre_post_3])
@pytest.mark.parametrize("d", [1, 2])
def test_the_drivers_call_the_kernel_itself(solve, d):
    # while the drivers' implicit_euler_stage is newton's own, they call
    # _stage_kernel(d) with no implicit_euler_stage frame in between; the
    # counting tests in test_adaptive.py cover a rebound one
    p = _uncoupled(d, lambda c: -c, lambda c: -1.0)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        solve(p, SolverConfig(dt0=0.01, t_end=0.1), (1.0,) * d)
    finally:
        sys.setprofile(None)
    assert newton.implicit_euler_stage.__code__ not in calls
    assert calls.count(newton._stage_kernel(d).__code__) >= 5


def _vec(d, s):
    return st.tuples(*[s] * d)


def _signed_zeros_or(s):
    return st.sampled_from([0.0, -0.0]) | s


def _matrix_stage(m, y_tilde, y_guess):
    """("matrix", problem, k, y_tilde, y_guess): a linear stage at k = 1
    with J = I - m, as one tuple of tuples, so that the Newton matrix
    I - k*J is m whenever 1 - m_ii is exact.  f(y) = J*y sums from +0.0, so
    from a guess of zeros the first right-hand side -g is y_tilde where
    that is not zero."""
    d = len(m)
    jm = tuple([tuple([(1.0 if r == c else 0.0) - m[r][c] for c in range(d)])
                for r in range(d)])

    def rhs(t, y):
        f = []
        for row in jm:
            acc = 0.0
            for c in range(d):
                acc += row[c] * y[c]
            f.append(acc)
        return tuple(f)

    return "matrix", OdeProblem(d, rhs, lambda t, y: jm), 1.0, y_tilde, y_guess


@st.composite
def _stages(draw):
    """(kind, problem, k, y_tilde, y_guess): a stage of dimension 1 to 6
    with an analytic Jacobian, which runs the kernel generated for d.
    States may hold -0.0.  linear and nonlinear stages mostly converge;
    they return J as one tuple of tuples per value, fresh lists or one list
    changed in place, and linear ones may have zero Jacobian rows.  matrix
    ones (_matrix_stage) draw I - k*J from a few values, so that ties, zero
    multipliers and singular matrices are common.  singular ones make
    I - k*J exactly singular, at the first pivot or after the elimination;
    diverging ones have no real root or a NaN right-hand side."""
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 6]))
    kind = draw(st.sampled_from(["linear", "nonlinear", "matrix", "singular", "diverging"]))
    if kind == "matrix":
        entries = st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, 0.1,
                                   -2.0 / 3.0])
        return _matrix_stage(
            draw(_vec(d, _vec(d, entries))),
            draw(_vec(d, st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0 / 3.0, 7.0]))),
            draw(_vec(d, st.sampled_from([0.0, -0.0]))))
    small = st.floats(-0.1, 0.1)
    big = st.floats(0.5, 10.0).flatmap(lambda v: st.sampled_from([v, -v]))
    k = draw(st.floats(1e-6, 10.0))
    y_tilde = draw(_vec(d, _signed_zeros_or(st.floats(-10.0, 10.0))))
    y_guess = draw(_vec(d, _signed_zeros_or(st.floats(-10.0, 10.0))))
    form = draw(st.sampled_from(["tuple", "list", "mutated"]))
    shared = [[0.0] * d for _ in range(d)]
    tuples = {}

    def as_form(rows):
        """J as the drawn form: one tuple of tuples per value of J, fresh
        lists, or one list of lists changed in place."""
        if form == "list":
            return rows
        if form == "tuple":
            rows = tuple(map(tuple, rows))
            return tuples.setdefault(rows, rows)
        for row, new in zip(shared, rows):
            row[:] = new
        return shared

    if kind == "linear" or kind == "singular":
        if kind == "linear":
            a = draw(_vec(d, _vec(d, _signed_zeros_or(st.floats(-50.0, 50.0)))))
            zero_rows = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
            a = tuple([(0.0,) * d if i in zero_rows else row for i, row in enumerate(a)])

            def j_at(t):
                # J moves with t alone, so stages at one t reuse a plan
                return [[(1.0 + t) * v for v in row] for row in a]

            def jac(t, y):
                return as_form(j_at(t))
        else:
            k = 2.0 ** -draw(st.integers(0, 20))
            inv = 1.0 / k
            # k*J = I, or a top-left block that leaves I - k*J with two
            # equal rows, ((1, 1), (1, 1)), and I below it
            if d == 1 or draw(st.booleans()):
                a = tuple([tuple([inv if i == j else 0.0 for j in range(d)])
                           for i in range(d)])
            else:
                a = tuple([tuple([-inv if i + j == 1 else 0.0 for j in range(d)])
                           for i in range(d)])
            # far from any guess, so that the first residual is not 0
            y_tilde, y_guess = draw(_vec(d, big)), draw(_vec(d, small))

            def j_at(t):
                return a

            def jac(t, y):
                return a
        b = draw(_vec(d, _signed_zeros_or(st.floats(-5.0, 5.0))))

        def rhs(t, y):
            j = j_at(t)
            return tuple([sum(j[i][c] * y[c] for c in range(d)) + b[i] for i in range(d)])

        return kind, OdeProblem(d, rhs, jac), k, y_tilde, y_guess
    if kind == "nonlinear":
        a = draw(_vec(d, st.floats(-5.0, 5.0)))
        c = draw(_vec(d, st.floats(-5.0, 5.0)))

        def rhs(t, y):
            return tuple([a[i] * y[i] * y[i] + c[i] * y[(i + 1) % d] for i in range(d)])

        def jac(t, y):
            return as_form([[(2.0 * a[i] * y[i] if i == j else 0.0)
                             + (c[i] if j == (i + 1) % d else 0.0)
                             for j in range(d)] for i in range(d)])

        return kind, OdeProblem(d, rhs, jac), k, y_tilde, y_guess
    if draw(st.booleans()):
        # y - y_tilde - k*c*y**2 = 0 has no real root when 4*k*c*y_tilde > 1
        c = draw(st.floats(1.0, 10.0))
        k = draw(st.floats(0.5, 2.0))
        y_tilde = draw(_vec(d, st.floats(1.0, 10.0)))
        p = _uncoupled(d, lambda v: c * v * v, lambda v: 2.0 * c * v)
    else:
        nan_at = draw(st.integers(0, d - 1))
        f = tuple([math.nan if i == nan_at else 0.0 for i in range(d)])
        p = OdeProblem(d, lambda t, y: f, lambda t, y: ((0.0,) * d,) * d)
    return kind, p, k, y_tilde, y_guess


def _outcome(stage, *args):
    """A stage's result as bits, or the type of the error it raised."""
    try:
        y, iterations, residual_norm = stage(*args)
    except SolverError as exc:
        return type(exc)
    return [c.hex() for c in y], iterations, residual_norm.hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_stages())
# tied pivots, |1 - k*a00| == |k*a10|: the first row must stay the pivot
@example(("linear", _linear_2d(((0.0, 1.5), (1.0, -4.9))), 1.0, (7.5, 3.7), (0.3, -0.7)))
# tied pivots, 2.0 and -2.0, in I - k*J itself
@example(_matrix_stage(((2.0, 1.0), (-2.0, 3.0)), (1.0, 2.0), (0.0, 0.0)))
# a zero middle Jacobian row and -0.0 in the middle of both states: the
# right-hand side -g there is -(0.0 - 0.0) = -0.0, which the update adds to
# the -0.0 guess; k*f - (y - y_tilde) would give +0.0 and a +0.0 result
@example(("linear", OdeProblem(3, lambda t, y: (-2.0 * y[0] + 0.5 * y[2] + 1.0, 0.0,
                                                0.25 * y[0] - 3.0 * y[2]),
                               lambda t, y: ((-2.0, 0.0, 0.5), (0.0, 0.0, 0.0),
                                             (0.25, 0.0, -3.0))),
          0.1, (1.0, -0.0, 2.0), (0.5, -0.0, 1.0)))
# U's first row is (1, 0.0, 0.0) and -g's first entry -0.0: back substitution
# subtracts 0.0 * (a negative delta), which turns it into +0.0, so a solve
# that skipped U's zero entries would give -0.0
@example(("linear", OdeProblem(3, lambda t, y: (0.0, 0.5 * y[0] - 2.0 * y[1] - 3.0,
                                                y[1] - y[2] + 0.5),
                               lambda t, y: ((0.0, 0.0, 0.0), (0.5, -2.0, 0.0),
                                             (0.0, 1.0, -1.0))),
          0.1, (-0.0, 1.0, 1.0), (-0.0, 2.0, 0.5)))
def test_written_out_branches_match_the_generic_elimination(case):
    # the kernel generated for d, written out on float locals, against the
    # generic two-pass elimination of reference_stage; TestFactorSubstitute
    # holds the matrices with ties, swaps, zero multipliers and -0.0.
    # From d = 3 on the stage runs from an empty plan slot, then twice at
    # the same t, where a jac that returns one tuple of tuples per value of
    # J reuses the stored plan, then at a t that moves J, where a list
    # changed in place must miss
    kind, p, k, y_tilde, y_guess = case
    times = (0.5, 0.5, 0.5, 0.75) if p.dimension >= newton._REUSE_FROM else (0.5,)
    want = {t: _outcome(reference_stage, p, t, k, y_tilde, y_guess) for t in set(times)}
    newton._kernel_globals["_plan_slot"] = EMPTY_SLOT
    for t_next in times:
        got = _outcome(implicit_euler_stage, p, t_next, k, y_tilde, y_guess, CFG)
        assert got == want[t_next]
    if kind == "singular":
        assert got is SingularLinearSystem
    elif kind == "diverging":
        # an iterate can land where 1 - 2*k*c*y is exactly 0
        assert got in (NewtonDiverged, SingularLinearSystem)
