import csv

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chamferkit import (
    PointCloud,
    TransformSpec,
    chamfer,
    chamfer_gradient,
    finite_diff_gradient,
    match_brute,
    transform,
    transform_derivative,
    weight_z,
)
from chamferkit.cli import main
from chamferkit.gradients import default_curve_specs, sample_curves

from testutil import is_smooth_config, max_rel_coord_err, smooth_pair, uniform_cloud

SQRT2 = float(np.sqrt(2.0))


class TestWeightZ:
    def test_spot_values(self):
        assert abs(weight_z(0.0, 1.0) - SQRT2) < 1e-12
        assert abs(weight_z(1.0, 1.0) - 2 / np.sqrt(3.0)) < 1e-12
        assert abs(weight_z(2.0, 1.0) - 4 / np.sqrt(24.0)) < 1e-12

    def test_zero_limit_is_exact(self):
        for alpha in (0.5, 1.0, 2.0, 5.0, 17.0):
            assert weight_z(0.0, alpha) == np.sqrt(2.0 * alpha)

    def test_matches_raw_formula_away_from_zero(self):
        rng = np.random.default_rng(40)
        d = rng.uniform(0.01, 50.0, 500)
        alpha = 1.7
        raw = 2 * alpha * d / np.sqrt((1 + alpha * d * d) ** 2 - 1)
        np.testing.assert_allclose(weight_z(d, alpha), raw, rtol=1e-12)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            alpha = float(rng.uniform(0.05, 10.0))
            d1, d2 = np.sort(rng.uniform(0.0, 30.0, 2))
            if d1 == d2:
                continue
            assert weight_z(d1, alpha) > weight_z(d2, alpha)

    def test_asymptote_where_alpha_d2_overflows(self):
        # alpha*d^2 is past the float64 range at both points; the weight is 2/d
        assert weight_z(1e155) == pytest.approx(2e-155, rel=1e-15)
        assert weight_z(1e150, 1e10) == pytest.approx(2e-150, rel=1e-15)
        d = np.array([1e153, 1e154, 1.3e154, 1.4e154, 1e155, 1e300, np.inf])
        w = weight_z(d)
        assert (np.diff(w) < 0).all() and w[-1] == 0.0
        np.testing.assert_allclose(w[:-1], 2.0 / d[:-1], rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_z(1.0, 0.0)
        with pytest.raises(ValueError):
            weight_z(1.0, -2.0)
        with pytest.raises(ValueError):
            weight_z(-1.0, 1.0)


class TestTransformDerivative:
    def test_l2_is_2d(self):
        d = np.linspace(0, 5, 50)
        np.testing.assert_array_equal(transform_derivative(TransformSpec("l2"), d), 2 * d)

    def test_l1_subgradient(self):
        spec = TransformSpec("l1")
        assert transform_derivative(spec, 0.0) == 0.0
        assert transform_derivative(spec, 0.5) == 1.0

    def test_hyper_beta2_is_weight_z_bitwise(self):
        d = np.linspace(0, 10, 200)
        for alpha in (0.5, 1.0, 3.0):
            spec = TransformSpec("hyper", alpha, 2.0)
            np.testing.assert_array_equal(
                transform_derivative(spec, d), weight_z(d, alpha)
            )

    def test_hyper_beta2_bits_pinned(self):
        # the one hyper formula keeps the bits of the weight curve at beta = 2,
        # from d = 0 through subnormal d to where alpha*d*d overflows
        d = np.array([0.0, 5e-324, 1e-160, 1.0, 2.0, 1e150, 1e160])
        for alpha in (1e-10, 0.5, 1.0, 3.7, 1e150):
            with np.errstate(over="ignore", divide="ignore"):
                u = alpha * d * d
                expected = np.where(
                    np.isinf(u), 2.0 / d, np.sqrt(2.0 * alpha) / np.sqrt(1.0 + u / 2.0)
                )
            spec = TransformSpec("hyper", alpha, 2.0)
            got = transform_derivative(spec, d)
            assert got.tobytes() == expected.tobytes()
            for x, e in zip(d, expected):
                assert np.float64(transform_derivative(spec, float(x))).tobytes() == e.tobytes()

    def test_hyper_finite_at_tiny_d_and_huge_alpha(self):
        # beta < 2: d**(beta/2 - 1) is about 2e253 here and sqrt(alpha) 1e69,
        # so their product overflows unless the weight curve, about
        # 2*sqrt(alpha/u) at this u ~ 4e48, damps it first; the slope is
        # then beta/d to within 1/u
        spec = TransformSpec("hyper", 1e138, 0.3)
        d = 1e-298
        u = 1e138 * d**0.3
        expected = 0.3 / d * np.sqrt(u / (u + 2.0))
        assert transform_derivative(spec, d) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha,beta,d,expected",
        [
            # (beta/2) d**(beta/2 - 1) sqrt(2 alpha) / sqrt(1 + alpha d**beta / 2),
            # evaluated with 60-digit mpmath
            (1e150, 6.0, 1e-160, 4.2426406871192850093e-245),
            (1e100, 6.5, 1e-150, 1.4534441853748633348e-287),
        ],
    )
    def test_hyper_slope_where_the_power_is_subnormal(self, alpha, beta, d, expected):
        # d**(beta/2 - 1) alone is subnormal or 0 here, the slope is not;
        # taking it whole lost five digits in the first case and all of
        # them in the second
        got = transform_derivative(TransformSpec("hyper", alpha, beta), d)
        assert abs(got - expected) <= 1e-15 * expected

    def test_zero_distance_tangent_when_coefficients_underflow(self):
        # alpha*beta (exp) and beta/2 (hyper) round to 0 here; the vertical
        # tangent at d = 0 came out as 0 * inf = nan
        assert transform_derivative(TransformSpec("exp", 1e-300, 1e-300), 0.0) == np.inf
        assert transform_derivative(TransformSpec("hyper", 1.0, 5e-324), 0.0) == np.inf
        slope = transform_derivative(TransformSpec("exp", 1e-300, 1e-300), np.array([0.0, 1.0]))
        assert slope.tolist() == [np.inf, 0.0]

    def test_zero_distance_limits_by_beta(self):
        # vertical tangent below beta=2, finite limit at 2, flat above
        assert transform_derivative(TransformSpec("hyper", 1.0, 1.0), 0.0) == np.inf
        assert transform_derivative(TransformSpec("hyper", 1.0, 2.0), 0.0) == SQRT2
        assert transform_derivative(TransformSpec("hyper", 1.0, 3.0), 0.0) == 0.0
        assert transform_derivative(TransformSpec("exp", 2.0, 1.0), 0.0) == 2.0
        assert transform_derivative(TransformSpec("exp", 1.0, 2.0), 0.0) == 0.0

    def test_divergence_and_vanishing_near_zero(self):
        assert transform_derivative(TransformSpec("hyper", 1.0, 1.0), 1e-8) > 1e3
        # the half-power decay of the beta=3 derivative reaches 1e-6 only
        # below d ~ 1e-12, so the vanishing check samples at 1e-13
        assert transform_derivative(TransformSpec("hyper", 1.0, 3.0), 1e-13) < 1e-6
        samples = transform_derivative(
            TransformSpec("hyper", 1.0, 3.0), np.logspace(-13, -2, 12)[::-1].copy()
        )
        # decreasing d, decreasing derivative, heading to 0
        assert (np.diff(np.logspace(-13, -2, 12)[::-1]) < 0).all()
        assert (np.diff(samples) < 0).all()

    def test_tail_times_d_approaches_beta(self):
        for alpha in (0.5, 1.0, 2.0):
            for beta in (1.0, 2.0, 3.0):
                spec = TransformSpec("hyper", alpha, beta)
                v = 1e6 * transform_derivative(spec, 1e6)
                assert abs(v - beta) / beta < 0.01

    @pytest.mark.parametrize(
        "spec,d,expected",
        [
            (TransformSpec("exp", 1.0, 4.0), 1e103, 0.0),
            (TransformSpec("exp", 1.0, 3.0), 1e103, 0.0),
            (TransformSpec("hyper", 1.0, 8.0), 1e103, 8e-103),
            (TransformSpec("hyper", 1.0, 3.0), 1e103, 3e-103),
            (TransformSpec("hyper", 1e10, 2.0), 1e150, 2e-150),
        ],
    )
    def test_finite_where_the_power_overflows(self, spec, d, expected):
        # alpha * d**beta overflows; exp's derivative is then 0 and
        # hyper's is beta/d to far below one ulp
        assert transform_derivative(spec, d) == pytest.approx(expected, rel=1e-15)
        assert transform_derivative(spec, np.inf) == 0.0

    def test_matches_scalar_finite_difference(self):
        # pointwise oracle for every kind on a mid-range distance grid
        rng = np.random.default_rng(42)
        specs = [
            TransformSpec("l1"),
            TransformSpec("l2"),
            TransformSpec("exp", 0.8, 1.0),
            TransformSpec("exp", 1.2, 2.0),
            TransformSpec("hyper", 0.7, 1.0),
            TransformSpec("hyper", 1.0, 2.0),
            TransformSpec("hyper", 1.5, 3.0),
        ]
        # modest distances: the saturating transforms approach 1 at large
        # d, where a difference quotient drowns in cancellation
        h = 1e-6
        for spec in specs:
            for d in rng.uniform(0.05, 1.2, 20):
                fd = (transform(spec, d + h) - transform(spec, d - h)) / (2 * h)
                assert transform_derivative(spec, float(d)) == pytest.approx(fd, rel=1e-6)

    def test_outlier_down_weighting_direction(self):
        # far matches get less pull under hyper, more under l2
        rng = np.random.default_rng(43)
        hyper = TransformSpec("hyper", 1.0, 2.0)
        l2 = TransformSpec("l2")
        for _ in range(200):
            d_near, d_far = np.sort(rng.uniform(0.001, 40.0, 2))
            if d_near == d_far:
                continue
            assert transform_derivative(hyper, d_far) < transform_derivative(hyper, d_near)
            assert transform_derivative(l2, d_far) > transform_derivative(l2, d_near)


class TestChamferGradient:
    def test_zero_at_identity_l2(self):
        rng = np.random.default_rng(44)
        c = uniform_cloud(rng, 50)
        field = chamfer_gradient(c, c, TransformSpec("l2"))
        np.testing.assert_array_equal(field.vectors, np.zeros((50, 3)))
        assert field.loss_value == 0.0

    def test_single_pair_hand_values(self):
        a = PointCloud([[1.0, 0, 0]])
        b = PointCloud([[0.0, 0, 0]])
        l2 = chamfer_gradient(a, b, TransformSpec("l2"))
        np.testing.assert_allclose(l2.vectors, [[4.0, 0, 0]], rtol=1e-15)
        hyper = chamfer_gradient(a, b, TransformSpec("hyper", 1.0, 2.0))
        np.testing.assert_allclose(
            hyper.vectors, [[2 * weight_z(1.0, 1.0), 0, 0]], rtol=1e-12
        )

    def test_field_shape_and_finiteness(self):
        rng = np.random.default_rng(45)
        a = uniform_cloud(rng, 33)
        b = uniform_cloud(rng, 71)
        for spec in (TransformSpec("l1"), TransformSpec("hyper", 2.0, 1.0)):
            field = chamfer_gradient(a, b, spec)
            assert field.vectors.shape == a.points.shape
            assert np.isfinite(field.vectors).all()
            assert np.isfinite(field.loss_value)

    def test_agrees_with_finite_differences(self):
        rng = np.random.default_rng(46)
        specs = [
            TransformSpec("l1"),
            TransformSpec("l2"),
            TransformSpec("exp", 1.0, 2.0),
            TransformSpec("hyper", 1.0, 2.0),
        ]
        for spec in specs:
            for _ in range(3):
                a, b = smooth_pair(rng, 8, 64)
                analytic = chamfer_gradient(a, b, spec)
                fd = finite_diff_gradient(a, b, spec)
                assert max_rel_coord_err(analytic.vectors, fd.vectors) < 1e-4
                assert analytic.loss_value == pytest.approx(fd.loss_value, rel=1e-12)

    # l1 and l2, and exp and hyper with alpha and beta drawn from ranges
    # around the defaults, so that beta is almost never 2
    @seed(20261024)
    @settings(max_examples=90, deadline=5000, database=None)
    @given(
        st.one_of(
            st.sampled_from([TransformSpec("l1"), TransformSpec("l2")]),
            st.builds(
                TransformSpec,
                st.sampled_from(["exp", "hyper"]),
                st.floats(0.3, 5.0),
                st.floats(0.7, 4.0),
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_finite_differences_property(self, spec, pair_seed):
        a, b = smooth_pair(np.random.default_rng(pair_seed), 8, 24)
        assert is_smooth_config(a, b)
        analytic = chamfer_gradient(a, b, spec).vectors
        assert max_rel_coord_err(analytic, finite_diff_gradient(a, b, spec).vectors) < 1e-4

    def test_step_halving_improves_agreement(self):
        rng = np.random.default_rng(47)
        a, b = smooth_pair(rng, 16, 48)
        spec = TransformSpec("hyper", 1.0, 2.0)
        analytic = chamfer_gradient(a, b, spec).vectors
        err_h = np.abs(finite_diff_gradient(a, b, spec, h=1e-3).vectors - analytic).max()
        err_half = np.abs(finite_diff_gradient(a, b, spec, h=5e-4).vectors - analytic).max()
        assert err_half < err_h

    def test_coincident_kink_flagged_not_smooth(self):
        c = PointCloud([[0, 0, 0], [1, 0, 0]])
        assert not is_smooth_config(c, c)

    def test_near_tie_flagged_not_smooth(self):
        a = PointCloud([[1.0, 0, 0]])
        b = PointCloud([[0.0, 0, 0], [2.0 + 1e-9, 0, 0]])
        assert not is_smooth_config(a, b)
        b_clear = PointCloud([[0.0, 0, 0], [2.1, 0, 0]])
        assert is_smooth_config(a, b_clear)

    def test_backward_scatter_bits_equal_2d_add_at(self):
        # 300 target rows share 7 movable points, so each gradient element
        # takes many backward terms; a scatter per coordinate must add them
        # in the order one 2-D np.add.at over the rows does
        rng = np.random.default_rng(50)
        a, b = uniform_cloud(rng, 7), uniform_cloud(rng, 300)
        match = match_brute(a, b)
        assert np.bincount(match.bwd_idx).max() > 1
        A, B = a.points, b.points
        d_f, d_b = np.sqrt(match.fwd_sq), np.sqrt(match.bwd_sq)
        for spec in (TransformSpec("l2"), TransformSpec("hyper", 1.0, 2.0), TransformSpec("l1")):
            coef_f = np.where(d_f > 0, transform_derivative(spec, d_f) / d_f, 0.0) / len(A)
            coef_b = np.where(d_b > 0, transform_derivative(spec, d_b) / d_b, 0.0) / len(B)
            expected = np.zeros_like(A)
            expected += coef_f[:, None] * (A - B[match.fwd_idx])
            np.add.at(expected, match.bwd_idx, coef_b[:, None] * (A[match.bwd_idx] - B))
            got = chamfer_gradient(a, b, spec, match=match).vectors
            assert got.tobytes() == expected.tobytes()

    def test_fd_step_validation(self):
        a = PointCloud([[0, 0, 0]])
        for h in (0.0, -1e-5, np.nan, np.inf):
            with pytest.raises(ValueError, match="step h"):
                finite_diff_gradient(a, a, TransformSpec("l2"), h=h)

    def test_descent_direction(self):
        # a small step along -grad must reduce the loss on a smooth config
        rng = np.random.default_rng(49)
        a, b = smooth_pair(rng, 32, 64)
        for spec in (TransformSpec("l2"), TransformSpec("hyper", 1.0, 2.0)):
            field = chamfer_gradient(a, b, spec)
            stepped = PointCloud(a.points - 1e-4 * field.vectors)
            assert chamfer(stepped, b, spec).value < field.loss_value


class TestSampleCurves:
    def test_default_family_is_seven_specs(self):
        specs = default_curve_specs()
        assert [(s.kind, s.alpha, s.beta) for s in specs] == [
            ("l1", 1.0, 2.0),
            ("l2", 1.0, 2.0),
            ("exp", 1.0, 1.0),
            ("exp", 1.0, 2.0),
            ("hyper", 1.0, 1.0),
            ("hyper", 1.0, 2.0),
            ("hyper", 1.0, 3.0),
        ]

    def test_row_count_and_grouping(self):
        grid = np.linspace(0, 2, 25)
        rows = sample_curves(default_curve_specs(), grid)
        assert len(rows) == 7 * 25

    def test_l2_grad_column_exact(self):
        grid = np.linspace(0, 3, 40)
        rows = [r for r in sample_curves(default_curve_specs(), grid) if r.kind == "l2"]
        for r, d in zip(rows, grid):
            assert r.grad == 2 * d

    def test_normalized_column_semantics(self):
        grid = np.linspace(0, 2, 50)
        rows = sample_curves(default_curve_specs(), grid)
        h2 = [r for r in rows if r.kind == "hyper" and r.beta == 2.0]
        assert h2[0].grad_normalized == 1.0
        values = [r.grad_normalized for r in h2]
        assert all(v <= 1 + 1e-12 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        for r in rows:
            if not (r.kind == "hyper" and r.beta == 2.0):
                assert r.grad_normalized is None

    def test_normalize_off(self):
        rows = sample_curves([TransformSpec("hyper", 1.0, 2.0)], [0.0, 1.0], normalize=False)
        assert all(r.grad_normalized is None for r in rows)

    def test_beta1_grad_blows_up_near_zero(self):
        rows = sample_curves([TransformSpec("hyper", 1.0, 1.0)], [0.0, 1e-6, 1.0])
        assert rows[0].grad == np.inf
        assert rows[1].grad > 1e2

    def test_grid_validation(self):
        spec = [TransformSpec("l2")]
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_curves(spec, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            sample_curves(spec, [-1.0, 0.0])
        with pytest.raises(ValueError, match="non-empty"):
            sample_curves(spec, [])

    def test_csv_round_trip(self, tmp_path, capsys):
        rows = sample_curves(default_curve_specs(), np.linspace(0, 2, 10))
        path = tmp_path / "curves.csv"
        assert main(["curves", "--steps", "10", "--out", str(path)]) == 0
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["kind", "alpha", "beta", "d", "value", "grad", "grad_normalized"]
        assert len(parsed) == 1 + len(rows)
        for raw, row in zip(parsed[1:], rows):
            assert raw[0] == row.kind
            assert float(raw[3]) == row.d
            assert float(raw[4]) == row.value
            if row.grad_normalized is None:
                assert raw[6] == ""
            else:
                assert float(raw[6]) == row.grad_normalized
