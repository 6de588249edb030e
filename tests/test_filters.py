import itertools
import math
import random
from fractions import Fraction

import pytest

from filtered_ie23 import (DegenerateBeta, DimensionMismatch, NonPositiveStep,
                           curvature)
from filtered_ie23.filters import (_beta, _estimate, post_filtered,
                                   post_filtered_uniform, pre_filtered,
                                   step_factors)
from oracles import beta_oracle

UNIFORM_BETA = 5.0 / 11.0


class TestCurvature:
    def test_uniform_grid_is_plain_second_difference(self):
        out = curvature(1.0, 1.0, (1.0, 0.0), (4.0, 1.0), (9.0, 5.0))
        assert out == (2.0, 3.0)

    def test_scales_like_second_derivative_of_quadratic(self):
        # y = a t^2 + b t + c sampled unevenly: curvature = k_prev*k_cur * 2a
        a, b, c = 1.7, -0.3, 2.2
        t0, t1, t2 = 0.4, 1.1, 1.3
        y = lambda t: (a * t * t + b * t + c,)
        out = curvature(t1 - t0, t2 - t1, y(t0), y(t1), y(t2))
        expected = (t1 - t0) * (t2 - t1) * 2.0 * a
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(NonPositiveStep):
            curvature(0.0, 1.0, (0.0,), (0.0,), (0.0,))
        with pytest.raises(NonPositiveStep):
            curvature(1.0, -1.0, (0.0,), (0.0,), (0.0,))

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_steps(self, k):
        # NaN and inf used to pass the k <= 0 test and return (nan,)
        for steps in ((k, 1.0), (1.0, k)):
            with pytest.raises(NonPositiveStep, match=f"got .*{k!r}"):
                curvature(*steps, (1.0,), (2.0,), (3.0,))

    @pytest.mark.parametrize("states", [
        ((1.0,), (1.0,), (1.0, 2.0)),      # used to return (0.0,)
        ((1.0, 2.0), (1.0,), (1.0,)),
        ((1.0,), (1.0, 2.0), (1.0, 2.0)),  # used to raise a bare IndexError
        ((1.0, 2.0), (1.0, 2.0), (1.0,)),
        ((), (1.0,), (1.0,)),
    ])
    def test_states_of_unequal_length_raise(self, states):
        with pytest.raises(DimensionMismatch):
            curvature(1.0, 1.0, *states)


def _alpha(k_n, k_nm1, k_nm2):
    """alpha, read off the pre-filter: y_n = 0 and kappa_prev = -2 give
    -0.5 * alpha * -2 = alpha, exactly."""
    return pre_filtered(step_factors(k_n, k_nm1, k_nm2, 1.0)[0], (0.0,), (-2.0,))[0]


class TestAlpha:
    def test_uniform_grid_gain_is_one(self):
        for k in (1e-3, 0.25, 1.0, 7.5):
            assert _alpha(k, k, k) == 1.0

    def test_quadratic_in_candidate_step(self):
        assert _alpha(2.0, 1.0, 1.0) == 4.0
        assert _alpha(1.0, 2.0, 2.0) == 0.25


class TestBeta:
    def test_uniform_grid_value(self):
        for k in (0.5, 1.0, 2.0):
            assert _beta(k, k, k, k) == UNIFORM_BETA

    def test_known_offgrid_values(self):
        # doubling after three uniform steps, and halving after three
        assert _beta(2.0, 1.0, 1.0, 1.0) == pytest.approx(3.0 / 5.0, rel=1e-14)
        assert _beta(0.5, 1.0, 1.0, 1.0) == pytest.approx(-6.0 / 13.0, rel=1e-14)

    def test_degenerate_history_raises(self):
        assert _beta(3.0, 3.0, 6.0, 2.0) is None
        with pytest.raises(DegenerateBeta):
            beta_oracle(3.0, 3.0, 6.0, 2.0)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(NonPositiveStep):
            beta_oracle(1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("steps", [
        (1e78, 1e78, 1e78, 1e78),       # max(steps) ** 4 overflows
        (1e-10, 1e-10, 1e-10, 1e78),    # it alone does
        (6e76, 6e76, 6e76, 6e76),       # the scale fits, den is inf
        (1e-83, 1e-83, 1e-83, 1e-83),   # den and the scale underflow to 0
    ])
    def test_out_of_range_history_is_degenerate(self, steps):
        # used to raise a bare OverflowError or ZeroDivisionError, or
        # return num / inf = 0.0
        assert _beta(*steps) is None

    def test_large_in_range_history_keeps_its_value(self):
        assert _beta(1e76, 1e76, 1e76, 1e76) == pytest.approx(UNIFORM_BETA, rel=1e-15)

    def test_oracle_uniform_grid_value(self):
        assert beta_oracle(0.7, 0.7, 0.7, 0.7) == UNIFORM_BETA

    def test_oracle_matches_closed_form_off_grid(self):
        for steps in [(1.3, 0.7, 1.9, 0.4), (0.01, 0.02, 0.04, 0.04),
                      (5.0, 2.5, 2.5, 5.0)]:
            want = beta_oracle(*steps)
            got = _beta(*steps)
            assert got == pytest.approx(want, rel=1e-12)


class TestStepFactors:
    @staticmethod
    def _grids(n):
        rng = random.Random(20261020)
        for _ in range(n):
            yield tuple(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(4))

    def test_factors_match_exact_arithmetic(self):
        # alpha / 2 and both weights against Fraction values: three and two
        # roundings, so within 4 units of 2**-53 relative
        for steps in self._grids(500):
            k_n, k_nm1, k_nm2, _ = map(Fraction, steps)
            half_a, _, v_next, v_prev = step_factors(*steps)
            exact = (k_n * k_n / (2 * k_nm1 * k_nm2), 2 * k_nm1 / (k_n + k_nm1),
                     2 * k_n / (k_n + k_nm1))
            for got, want in zip((half_a, v_next, v_prev), exact):
                assert abs(Fraction(got) - want) <= 4 * 2 ** -53 * want, steps

    def test_beta_matches_the_oracle(self):
        checked = 0
        for steps in self._grids(200):
            beta = step_factors(*steps)[1]
            if beta is not None:
                assert beta == pytest.approx(beta_oracle(*steps), rel=1e-10), steps
                checked += 1
        assert checked > 150

    @pytest.mark.parametrize("k", [1e-3, 0.25, 1.0, 7.5])
    def test_uniform_grid_values(self, k):
        assert step_factors(k, k, k, k) == (0.5, _beta(k, k, k, k), 1.0, 1.0)

    def test_never_raises_for_positive_finite_steps(self):
        # alpha's k_nm1 * k_nm2 and beta's scale underflow to 0 at the small
        # end, and the products overflow at the large one
        extremes = (5e-324, 1e-170, 1e-83, 1.0, 1e77, 1e200, 1.7e308)
        for steps in itertools.product(extremes, repeat=4):
            beta = step_factors(*steps)[1]
            assert beta is None or math.isfinite(beta), steps
        assert math.isnan(step_factors(1e-170, 1e-170, 1e-170, 1e-170)[0])


# the kernel on y = t^2 over the uniform grid 0, 1, 2, 3 in component 0
# and zeros in component 1: the trailing curvature is (2, 0)
Y_NM2, Y_NM1, Y_N = (1.0, 0.0), (4.0, 0.0), (9.0, 0.0)
KAPPA_PREV = curvature(1.0, 1.0, Y_NM2, Y_NM1, Y_N)


def _post_filtered(y_second, component=None):
    _, beta, v_next, v_prev = step_factors(1.0, 1.0, 1.0, 1.0)
    return post_filtered(beta, v_next, v_prev, Y_NM1, Y_N, KAPPA_PREV, y_second, component)


class TestFilters:
    def test_pre_filter_uniform_arithmetic(self):
        # gain 1 removes half of the trailing curvature
        assert pre_filtered(step_factors(1.0, 1.0, 1.0, 1.0)[0], Y_N, KAPPA_PREV) == (8.0, 0.0)

    def test_post_filter_uniform_arithmetic(self):
        # y_second = (27, -22) gives kappa_cur = (13, -22) against
        # kappa_prev = (2, 0), and beta = 5/11 moves it by (-5, 10)
        assert _post_filtered((27.0, -22.0))[0] == (22.0, -12.0)


class TestErrorEstimate:
    def test_maxnorm_over_components(self):
        assert _post_filtered((27.0, -22.0))[1] == 10.0

    def test_single_component_projection(self):
        assert _post_filtered((27.0, -22.0), component=0)[1] == 5.0
        assert _post_filtered((27.0, -22.0), component=1)[1] == 10.0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_maxnorm_keeps_the_rule_of_max(self, d):
        # NaN, -0.0 and 0.0 in every position: a NaN counts only when it
        # comes first, as in max()
        values = [math.nan, 0.0, -0.0, 1.0, -1.0, math.inf]
        for y_third in itertools.product(values, repeat=d):
            for y_second in [(0.0,) * d, (-0.0,) * d, (1.0,) * d]:
                expected = max([abs(y_third[i] - y_second[i]) for i in range(d)])
                got = _estimate(y_second, y_third, None)
                assert repr(got) == repr(expected), (y_second, y_third)


class TestUniformClosedForm:
    def test_agrees_with_general_post_filter(self):
        # post_filtered_uniform is post_filtered at beta = 5/11 rewritten
        # as one closed form; the two round differently, by a few ulps of
        # the largest intermediate, |y_second - 3 y_n + 3 y_nm1 - y_nm2|
        # <= 8 * scale
        rng = random.Random(7)
        for _ in range(200):
            k = 10.0 ** rng.uniform(-4, 0)
            y_nm2, y_nm1, y_n, y_second = (
                tuple(rng.uniform(-2.0, 2.0) for _ in range(3)) for _ in range(4))
            kappa_prev = curvature(k, k, y_nm2, y_nm1, y_n)
            _, beta, v_next, v_prev = step_factors(k, k, k, k)
            general = post_filtered(beta, v_next, v_prev, y_nm1, y_n, kappa_prev,
                                    y_second, None)
            uniform = post_filtered_uniform(y_nm2, y_nm1, y_n, y_second, None)
            ulps = 4 * math.ulp(8.0 * max(map(abs, y_nm2 + y_nm1 + y_n + y_second)))
            for a, b in zip(general[0], uniform[0]):
                assert abs(a - b) <= ulps
            assert abs(general[1] - uniform[1]) <= ulps


# One step of the kernel is linear in (y_{n-2}, y_{n-1}, y_n) in two limits
# of y' = lambda*y with z = lambda*k: at z = 0 the implicit stage returns
# y_tilde, and as z -> -inf it returns 0.  Fed the three unit vectors as the
# components of one state, the kernel returns the map's last row directly.
UNIT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _step_map(k_n, k_nm1, k_nm2, k_nm3, stiff):
    y_nm2, y_nm1, y_n = UNIT
    half_a, beta, v_next, v_prev = step_factors(k_n, k_nm1, k_nm2, k_nm3)
    kappa_prev = curvature(k_nm2, k_nm1, y_nm2, y_nm1, y_n)
    y_tilde = pre_filtered(half_a, y_n, kappa_prev)
    y_second = (0.0, 0.0, 0.0) if stiff else y_tilde
    y_third, _ = post_filtered(beta, v_next, v_prev, y_nm1, y_n, kappa_prev, y_second, None)
    return (UNIT[1], UNIT[2], y_third)


def _matmul(a, b):
    return tuple(tuple(sum(a[i][m] * b[m][j] for m in range(3)) for j in range(3))
                 for i in range(3))


def _roots(coeffs):
    """Durand-Kerner roots of the monic polynomial coeffs, highest first."""
    n = len(coeffs) - 1

    def poly(x):
        return sum(c * x ** (n - i) for i, c in enumerate(coeffs))

    z = [(0.4 + 0.9j) ** i for i in range(n)]
    for _ in range(200):
        new = []
        for i, zi in enumerate(z):
            den = 1.0
            for j, zj in enumerate(z):
                if j != i:
                    den *= zi - zj
            new.append(zi - poly(zi) / den)
        z = new
    return z


def _radius_per_step(pattern, stiff):
    """Spectral radius, per step, of the kernel's map over one period of a
    repeated step pattern; at z = 0 the constant mode (root 1) is dropped."""
    period = len(pattern)
    m = UNIT
    for j in range(period):
        steps = [pattern[(j - i) % period] for i in range(4)]   # k_n .. k_nm3
        m = _matmul(_step_map(*steps, stiff), m)
    # characteristic polynomial x^3 - c1 x^2 + c2 x - c3
    c1 = m[0][0] + m[1][1] + m[2][2]
    c2 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    c3 = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
          - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
          + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    coeffs = [1.0, -c1, c2, -c3]
    if not stiff:
        # constants pass through unchanged, so x = 1 is a root; divide it out
        q1 = 1.0 - c1
        q0 = c2 + q1
        assert abs(q0 - c3) < 1e-12
        coeffs = [1.0, q1, q0]
    return max(abs(r) for r in _roots(coeffs)) ** (1.0 / period)


class TestStepPatternStability:
    """Growth per step of the third-order value on repeated step patterns.

    A radius above 1 means the pattern amplifies: uniform steps and
    (k, 2k) damp in both limits, (k, k, 2k, 2k) and (2k, k, k) do not.
    """

    @pytest.mark.parametrize("pattern, nonstiff, stiff", [
        ((1.0,), 0.426, 0.968),
        ((1.0, 2.0), 0.418, 0.977),
        ((1.0, 1.0, 2.0, 2.0), 1.436, 1.706),
        ((2.0, 1.0, 1.0), 1.072, 1.980),
    ])
    def test_spectral_radius(self, pattern, nonstiff, stiff):
        assert _radius_per_step(pattern, stiff=False) == pytest.approx(nonstiff, abs=1e-3)
        assert _radius_per_step(pattern, stiff=True) == pytest.approx(stiff, abs=1e-3)
