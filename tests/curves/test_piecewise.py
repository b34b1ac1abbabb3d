"""Unit tests for the exact piecewise-linear curve algebra."""

import math

import numpy as np
import pytest

from repro.curves.piecewise import PiecewiseLinearCurve as P
from repro.errors import CurveError


class TestConstruction:
    def test_zero_curve(self):
        z = P.zero()
        assert z(0) == 0 and z(100) == 0

    def test_constant(self):
        c = P.constant(3.5)
        assert c(0) == 3.5 and c(10) == 3.5

    def test_line(self):
        f = P.line(2.0)
        assert f(0) == 0 and f(3) == 6.0

    def test_affine(self):
        f = P.affine(1.0, 0.5)
        assert f(0) == 1.0 and f(4) == 3.0

    def test_rate_latency(self):
        f = P.rate_latency(2.0, 3.0)
        assert f(0) == 0 and f(3) == 0 and f(5) == 4.0

    def test_rate_latency_zero_latency_is_line(self):
        assert P.rate_latency(2.0, 0.0) == P.line(2.0)

    def test_rate_latency_rejects_negative_latency(self):
        with pytest.raises(CurveError):
            P.rate_latency(1.0, -1.0)

    def test_from_breakpoints_sorts(self):
        f = P.from_breakpoints([(2.0, 4.0), (0.0, 0.0)], 1.0)
        assert f(1.0) == 2.0

    def test_requires_x_start_at_zero(self):
        with pytest.raises(CurveError):
            P([1.0], [0.0], 1.0)

    def test_rejects_unsorted_x(self):
        with pytest.raises(CurveError):
            P([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], 1.0)

    def test_rejects_duplicate_x(self):
        with pytest.raises(CurveError):
            P([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], 1.0)

    def test_rejects_nan(self):
        with pytest.raises(CurveError):
            P([0.0], [math.nan], 1.0)

    def test_rejects_infinite_slope(self):
        with pytest.raises(CurveError):
            P([0.0], [0.0], math.inf)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(CurveError):
            P([0.0, 1.0], [0.0], 1.0)

    def test_immutable_breakpoints(self):
        f = P.line(1.0)
        with pytest.raises(ValueError):
            f.x[0] = 5.0


class TestEvaluation:
    def test_negative_time_is_zero(self):
        f = P.affine(1.0, 1.0)
        assert f(-1.0) == 0.0

    def test_vectorized(self):
        f = P.rate_latency(1.0, 1.0)
        out = f(np.array([-1.0, 0.5, 1.0, 3.0]))
        assert np.allclose(out, [0.0, 0.0, 0.0, 2.0])

    def test_scalar_returns_float(self):
        assert isinstance(P.line(1.0)(2), float)

    def test_interpolation_inside_segment(self):
        f = P([0.0, 2.0], [0.0, 4.0], 0.0)
        assert f(1.0) == 2.0

    def test_extrapolation_with_final_slope(self):
        f = P([0.0, 1.0], [0.0, 1.0], 3.0)
        assert f(2.0) == 4.0


class TestQueries:
    def test_slopes(self):
        f = P([0.0, 1.0, 3.0], [0.0, 2.0, 3.0], 0.25)
        assert np.allclose(f.slopes(), [2.0, 0.5, 0.25])

    def test_is_concave_convex(self):
        assert P([0.0, 1.0], [0.0, 2.0], 0.5).is_concave()
        assert P([0.0, 1.0], [0.0, 0.5], 2.0).is_convex()
        assert not P([0.0, 1.0], [0.0, 2.0], 0.5).is_convex()

    def test_narrow_spike_keeps_shape(self):
        # a 1e-12-wide steep segment (as min/max of near-identical
        # curves leaves) stays within tolerance of a convex line
        f = P([0.0, 1.0, 1.0 + 1e-12, 3.0], [0.0, 1.0, 1.0 + 5e-12, 3.0], 1.0)
        assert f.is_convex()

    def test_narrow_segments_cannot_hide_a_kink(self):
        # slopes 0, 1, then ~1.2 and ~1.5 over ~1.7e-12 each, then 0.25:
        # each narrow kink is let out, but 1 -> 0.25 is a real concave
        # kink (an exact_deconvolve output)
        f = P([0.0, 0.899999999999, 1.1999999999986668,
               1.2000000000003332, 1.2000000000019997],
              [0.0, 0.0, 0.2999999999999998, 0.30000000000200006,
               0.3000000000044997], 0.25)
        assert not f.is_convex()
        assert not f.is_concave()

    def test_line_is_both(self):
        assert P.line(1.0).is_concave() and P.line(1.0).is_convex()

    def test_is_nondecreasing(self):
        assert P.affine(1.0, 0.0).is_nondecreasing()
        assert not P([0.0, 1.0], [1.0, 0.0], 0.0).is_nondecreasing()

    def test_value_at_zero_and_rate(self):
        f = P.affine(2.0, 0.3)
        assert f.value_at_zero() == 2.0
        assert f.long_term_rate() == 0.3

    def test_simplified_drops_collinear(self):
        f = P([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1.0)
        assert f.simplified().n_breakpoints == 1


class TestArithmetic:
    def test_add_curves(self):
        f = P.affine(1.0, 0.5) + P.line(1.0)
        assert f(0) == 1.0 and f(2) == 4.0

    def test_add_scalar(self):
        f = P.line(1.0) + 2.0
        assert f(0) == 2.0 and f(1) == 3.0

    def test_radd(self):
        f = 2.0 + P.line(1.0)
        assert f(0) == 2.0

    def test_sub(self):
        f = P.line(2.0) - P.line(0.5)
        assert f(4) == 6.0

    def test_neg(self):
        f = -P.affine(1.0, 1.0)
        assert f(1.0) == -2.0

    def test_scalar_multiply(self):
        f = P.affine(1.0, 1.0) * 3.0
        assert f(1.0) == 6.0
        g = 3.0 * P.affine(1.0, 1.0)
        assert g(1.0) == 6.0

    def test_add_preserves_breakpoints(self):
        a = P([0.0, 1.0], [0.0, 1.0], 0.0)
        b = P([0.0, 2.0], [0.0, 1.0], 0.0)
        s = a + b
        # breakpoints at 1 and 2 both present
        assert s(1.0) == pytest.approx(1.5)
        assert s(2.0) == pytest.approx(2.0)
        assert s(3.0) == pytest.approx(2.0)

    def test_equality_after_simplification(self):
        a = P([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1.0)
        assert a == P.line(1.0)

    def test_inequality(self):
        assert P.line(1.0) != P.line(2.0)


class TestMinMax:
    def test_min_of_crossing_lines(self):
        a = P.affine(1.0, 0.0)     # constant 1
        b = P.line(0.5)            # crosses at t=2
        m = a.minimum(b)
        assert m(1.0) == 0.5
        assert m(2.0) == 1.0
        assert m(4.0) == 1.0
        assert m.final_slope == 0.0

    def test_max_of_crossing_lines(self):
        a = P.affine(1.0, 0.0)
        b = P.line(0.5)
        m = a.maximum(b)
        assert m(1.0) == 1.0
        assert m(4.0) == 2.0

    def test_min_finds_crossing_beyond_breakpoints(self):
        a = P.affine(10.0, 0.1)
        b = P.line(1.0)  # crosses at t = 10/0.9
        m = a.minimum(b)
        tcross = 10.0 / 0.9
        assert m(tcross - 1) == pytest.approx(b(tcross - 1))
        assert m(tcross + 1) == pytest.approx(a(tcross + 1))

    def test_token_bucket_shape(self):
        # min(t, 1 + 0.2 t) is the paper's source constraint
        m = P.line(1.0).minimum(P.affine(1.0, 0.2))
        assert m(0.0) == 0.0
        assert m(1.0) == 1.0
        assert m(1.25) == pytest.approx(1.25)
        assert m(2.0) == pytest.approx(1.4)

    def test_positive_part(self):
        f = (P.line(1.0) - P.affine(2.0, 0.5)).positive_part()
        assert f(0.0) == 0.0
        assert f(4.0) == 0.0   # crossing at t=4
        assert f(6.0) == pytest.approx(1.0)

    def test_min_against_identical(self):
        f = P.affine(1.0, 0.5)
        assert f.minimum(f) == f


class TestShifts:
    def test_shift_right_rate_latency(self):
        f = P.line(1.0).shift_right(2.0)
        assert f(1.0) == 0.0
        assert f(3.0) == 1.0

    def test_shift_right_zero_is_identity(self):
        f = P.affine(1.0, 1.0)
        assert f.shift_right(0.0) is f

    def test_shift_right_negative_raises(self):
        with pytest.raises(CurveError):
            P.line(1.0).shift_right(-1.0)

    def test_shift_right_preserves_jump(self):
        f = P.affine(2.0, 1.0).shift_right(1.0)
        assert f(0.5) == 0.0
        assert f(1.0 + 1e-6) == pytest.approx(2.0, abs=1e-4)

    def test_shift_left_x_affine(self):
        # b(I + d) of a token bucket: burst inflation
        f = P.affine(1.0, 0.5).shift_left_x(2.0)
        assert f(0.0) == pytest.approx(2.0)   # 1 + 0.5*2
        assert f.final_slope == 0.5

    def test_shift_left_x_zero_is_identity(self):
        f = P.affine(1.0, 1.0)
        assert f.shift_left_x(0.0) is f

    def test_shift_left_x_drops_knee(self):
        # peak-limited bucket: knee at 1.25; shifting past it leaves affine
        b = P.line(1.0).minimum(P.affine(1.0, 0.2))
        out = b.shift_left_x(2.0)
        assert out(0.0) == pytest.approx(1.4)
        assert out(1.0) == pytest.approx(1.6)

    def test_shift_left_x_negative_raises(self):
        with pytest.raises(CurveError):
            P.line(1.0).shift_left_x(-0.1)


class TestPseudoInverse:
    def test_line(self):
        f = P.line(2.0)
        assert f.pseudo_inverse(4.0) == 2.0

    def test_vectorized(self):
        f = P.line(1.0)
        out = f.pseudo_inverse(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_below_initial_value(self):
        f = P.affine(1.0, 1.0)
        assert f.pseudo_inverse(0.5) == 0.0

    def test_flat_segment_takes_left_edge(self):
        f = P([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], 1.0)
        assert f.pseudo_inverse(1.0) == pytest.approx(1.0)

    def test_beyond_breakpoints(self):
        f = P([0.0, 1.0], [0.0, 1.0], 2.0)
        assert f.pseudo_inverse(3.0) == pytest.approx(2.0)

    def test_unreachable_value_is_inf(self):
        f = P.constant(1.0)
        assert f.pseudo_inverse(2.0) == math.inf

    def test_requires_nondecreasing(self):
        f = P([0.0, 1.0], [1.0, 0.0], 0.0)
        with pytest.raises(CurveError):
            f.pseudo_inverse(0.5)

    def test_galois_inequality(self):
        # f(f^{-1}(v)) >= v for continuous nondecreasing f
        f = P([0.0, 1.0, 3.0], [0.0, 2.0, 2.5], 0.5)
        for v in [0.0, 0.5, 2.0, 2.25, 3.0]:
            t = f.pseudo_inverse(v)
            assert f(t) >= v - 1e-9


class TestConvolution:
    def test_concave_pair_is_min_with_offsets(self):
        a = P.affine(1.0, 0.5)
        b = P.affine(3.0, 0.1)
        c = a.convolve(b)
        for t in [0.0, 1.0, 5.0, 20.0]:
            assert c(t) == pytest.approx(min(a(t) + 3.0, b(t) + 1.0))

    def test_rate_latency_pair(self):
        c = P.rate_latency(2.0, 1.0).convolve(P.rate_latency(1.0, 2.0))
        assert c(3.0) == 0.0
        assert c(5.0) == pytest.approx(2.0)
        assert c.final_slope == 1.0

    def test_convex_with_line(self):
        c = P.line(1.0).convolve(P.rate_latency(2.0, 1.0))
        # latency 1, then rate min(1,2)=1
        assert c(1.0) == 0.0
        assert c(2.0) == pytest.approx(1.0)

    def test_mixed_raises(self):
        concave = P.line(1.0).minimum(P.affine(1.0, 0.2))
        convex = P.rate_latency(1.0, 1.0)
        with pytest.raises(CurveError):
            concave.convolve(convex)

    def test_convolution_dominated_by_operands(self):
        a = P.affine(1.0, 0.5)
        b = P.affine(2.0, 0.3)
        c = a.convolve(b)
        for t in [0.0, 1.0, 10.0]:
            assert c(t) <= a(t) + b.value_at_zero() + 1e-9
            assert c(t) <= b(t) + a.value_at_zero() + 1e-9

    def test_brute_force_agreement_convex(self):
        f = P.rate_latency(1.5, 2.0)
        g = P.rate_latency(0.5, 1.0)
        c = f.convolve(g)
        ss = np.linspace(0, 10, 2001)
        for t in [0.5, 3.0, 7.0, 10.0]:
            brute = min(f(s) + g(t - s) for s in ss[ss <= t])
            assert c(t) == pytest.approx(brute, abs=1e-6)


class TestDeviations:
    def test_hdev_affine_vs_line(self):
        # token bucket vs unit server: delay = sigma/C
        assert P.affine(2.0, 0.5).horizontal_deviation(P.line(1.0)) == \
            pytest.approx(2.0)

    def test_hdev_affine_vs_rate_latency(self):
        # sigma/R + T
        d = P.affine(1.0, 0.2).horizontal_deviation(P.rate_latency(0.5, 2.0))
        assert d == pytest.approx(1.0 / 0.5 + 2.0)

    def test_hdev_unstable_is_inf(self):
        d = P.affine(1.0, 2.0).horizontal_deviation(P.line(1.0))
        assert d == math.inf

    def test_hdev_saturating_service_is_inf(self):
        d = P.affine(1.0, 0.1).horizontal_deviation(P.constant(0.5))
        assert d == math.inf

    def test_hdev_zero_when_service_dominates(self):
        d = P.line(0.5).horizontal_deviation(P.line(1.0))
        assert d == 0.0

    def test_hdev_peak_limited_aggregate(self):
        # three fresh sources at a unit server: 2 sigma/(1-rho)
        b = P.line(1.0).minimum(P.affine(1.0, 0.2))
        agg = b + b + b
        assert agg.horizontal_deviation(P.line(1.0)) == \
            pytest.approx(2.0 / 0.8)

    def test_vdev_affine_vs_line(self):
        # backlog of token bucket at unit server = sigma
        assert P.affine(2.0, 0.5).vertical_deviation(P.line(1.0)) == \
            pytest.approx(2.0)

    def test_vdev_unstable_is_inf(self):
        assert P.affine(1.0, 2.0).vertical_deviation(P.line(1.0)) == \
            math.inf

    def test_hdev_brute_force(self):
        alpha = P.line(1.0).minimum(P.affine(2.0, 0.3)) + \
            P.affine(0.5, 0.1)
        beta = P.rate_latency(0.9, 1.5)
        d = alpha.horizontal_deviation(beta)
        ts = np.linspace(0, 40, 8001)
        brute = max(float(beta.pseudo_inverse(alpha(t))) - t for t in ts)
        assert d == pytest.approx(brute, abs=1e-3)
        assert d >= brute - 1e-9  # never underestimates


class TestFirstCrossing:
    def test_busy_period_of_burst(self):
        # affine(1, 0.5) crosses t at t=2
        assert P.affine(1.0, 0.5).first_crossing_below(P.line(1.0)) == \
            pytest.approx(2.0)

    def test_zero_when_always_below(self):
        assert P.line(0.5).first_crossing_below(P.line(1.0)) == 0.0

    def test_inf_when_never_crossing(self):
        assert P.affine(1.0, 2.0).first_crossing_below(P.line(1.0)) == \
            math.inf

    def test_crossing_beyond_breakpoints(self):
        f = P([0.0, 1.0], [1.0, 2.0], 0.1)  # rises then slope 0.1 < 1
        t = f.first_crossing_below(P.line(1.0))
        assert f(t) == pytest.approx(t, abs=1e-9)

    def test_starts_at_zero_with_rise(self):
        # G(t) = 3 min(t, 1 + 0.2 t) crosses t at 7.5
        b = P.line(1.0).minimum(P.affine(1.0, 0.2))
        agg = b * 3.0
        assert agg.first_crossing_below(P.line(1.0)) == pytest.approx(7.5)


class TestRepr:
    def test_repr_contains_points(self):
        assert "final_slope" in repr(P.affine(1.0, 0.5))
