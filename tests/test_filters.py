import math
import random

import pytest

from filtered_ie23 import (DegenerateBeta, DimensionMismatch, NonPositiveStep,
                           alpha_coeff, beta_coeff, beta_oracle, curvature,
                           error_estimate, post_filter, pre_filter,
                           window_from_points)
from filtered_ie23.filters import post_filtered, post_filtered_uniform

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


class TestAlpha:
    def test_uniform_grid_gain_is_one(self):
        for k in (1e-3, 0.25, 1.0, 7.5):
            assert alpha_coeff(k, k, k) == 1.0

    def test_quadratic_in_candidate_step(self):
        assert alpha_coeff(2.0, 1.0, 1.0) == 4.0
        assert alpha_coeff(1.0, 2.0, 2.0) == 0.25

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(NonPositiveStep):
            alpha_coeff(1.0, 0.0, 1.0)


class TestBeta:
    def test_uniform_grid_value(self):
        for k in (0.5, 1.0, 2.0):
            coeffs = beta_coeff(k, k, k, k)
            assert coeffs.beta == UNIFORM_BETA
            assert coeffs.beta == coeffs.beta_num / coeffs.beta_den
            # the numerator/denominator pair is 10k^4 / 22k^4
            assert coeffs.beta_num == 10.0 * k ** 4
            assert coeffs.beta_den == 22.0 * k ** 4

    def test_known_offgrid_values(self):
        # doubling after three uniform steps, and halving after three
        assert beta_coeff(2.0, 1.0, 1.0, 1.0).beta == pytest.approx(3.0 / 5.0, rel=1e-14)
        assert beta_coeff(0.5, 1.0, 1.0, 1.0).beta == pytest.approx(-6.0 / 13.0, rel=1e-14)

    def test_degenerate_history_raises(self):
        with pytest.raises(DegenerateBeta):
            beta_coeff(3.0, 3.0, 6.0, 2.0)
        with pytest.raises(DegenerateBeta):
            beta_oracle(3.0, 3.0, 6.0, 2.0)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(NonPositiveStep):
            beta_coeff(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(NonPositiveStep):
            beta_oracle(1.0, 1.0, 1.0, 0.0)

    def test_oracle_uniform_grid_value(self):
        assert beta_oracle(0.7, 0.7, 0.7, 0.7) == UNIFORM_BETA

    def test_oracle_matches_closed_form_off_grid(self):
        for steps in [(1.3, 0.7, 1.9, 0.4), (0.01, 0.02, 0.04, 0.04),
                      (5.0, 2.5, 2.5, 5.0)]:
            want = beta_oracle(*steps)
            got = beta_coeff(*steps).beta
            assert got == pytest.approx(want, rel=1e-12)


def _quadratic_window():
    # y = t^2 on the uniform grid 0,1,2,3
    return window_from_points(
        [(0.0, (0.0,)), (1.0, (1.0,)), (2.0, (4.0,)), (3.0, (9.0,))]
    )


class TestFilters:
    def test_pre_filter_uniform_arithmetic(self):
        w = _quadratic_window()
        # curvature of the last three points is 2; gain 1 removes half of it
        assert pre_filter(w, alpha_coeff(1.0, 1.0, 1.0)) == (8.0,)

    def test_post_filter_uniform_arithmetic(self):
        w = _quadratic_window()
        # y_next = 20 gives kappa_cur = 6 against kappa_prev = 2
        assert post_filter((20.0,), w, 1.0, 0.5) == (18.0,)

    def test_filters_ignore_oldest_window_slot(self):
        w = _quadratic_window()
        shifted = window_from_points(
            [(-5.0, (99.0,)), (1.0, (1.0,)), (2.0, (4.0,)), (3.0, (9.0,))]
        )
        assert pre_filter(w, 1.0) == pre_filter(shifted, 1.0)
        assert post_filter((20.0,), w, 1.0, 0.5) == post_filter((20.0,), shifted, 1.0, 0.5)


class TestErrorEstimate:
    def test_maxnorm_over_components(self):
        assert error_estimate((1.0, 2.0), (1.5, 1.0)) == 1.0

    def test_single_component_projection(self):
        assert error_estimate((1.0, 2.0), (1.5, 1.0), component=0) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            error_estimate((1.0,), (1.0, 2.0))


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
            general = post_filtered(k, k, k, k, y_nm1, y_n, kappa_prev, y_second, None)
            uniform = post_filtered_uniform(y_nm2, y_nm1, y_n, y_second, None)
            ulps = 4 * math.ulp(8.0 * max(map(abs, y_nm2 + y_nm1 + y_n + y_second)))
            for a, b in zip(general[0], uniform[0]):
                assert abs(a - b) <= ulps
            assert abs(general[1] - uniform[1]) <= ulps
