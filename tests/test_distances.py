import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chamferkit import (
    PointCloud,
    TransformSpec,
    acosh1p,
    chamfer,
    chamfer_poincare,
    clip_to_ball,
    match_brute,
    pair_sq,
    poincare_distance,
    transform,
    transform_derivative,
    weight_z,
)
from chamferkit import matching
from chamferkit.distances import MAX_ALPHA, MAX_BETA

from testutil import ball_cloud, mixed_cloud, naive_chamfer, snapped_cloud, uniform_cloud

ALL_KINDS = [
    TransformSpec("l1"),
    TransformSpec("l2"),
    TransformSpec("exp", alpha=0.7, beta=1.0),
    TransformSpec("exp", alpha=1.0, beta=2.0),
    TransformSpec("hyper", alpha=1.0, beta=2.0),
    TransformSpec("hyper", alpha=2.0, beta=1.0),
    TransformSpec("hyper", alpha=0.5, beta=3.0),
]


class TestTransformSpec:
    def test_defaults(self):
        spec = TransformSpec("hyper")
        assert spec.alpha == 1.0 and spec.beta == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transform kind"):
            TransformSpec("l3")

    def test_positivity_enforced_for_parametric_kinds(self):
        for kind in ("exp", "hyper"):
            with pytest.raises(ValueError):
                TransformSpec(kind, alpha=0.0)
            with pytest.raises(ValueError):
                TransformSpec(kind, alpha=-1.0)
            with pytest.raises(ValueError):
                TransformSpec(kind, beta=0.0)
            with pytest.raises(ValueError):
                TransformSpec(kind, alpha=np.inf)

    def test_alpha_range_keeps_values_finite(self):
        # sqrt(2 * alpha), the hyper weight at d = 0, overflows beyond 9e307
        d = np.array([0.0, 1e-300, 1.0, 1e150])
        for kind in ("exp", "hyper"):
            with pytest.raises(ValueError, match=r"at most 1e\+150"):
                TransformSpec(kind, alpha=np.nextafter(MAX_ALPHA, np.inf))
            spec = TransformSpec(kind, alpha=MAX_ALPHA)
            assert np.isfinite(transform(spec, d)).all()
            assert np.isfinite(transform_derivative(spec, d)).all()
        assert np.isfinite(weight_z(d, MAX_ALPHA)).all()

    def test_beta_range(self):
        for kind in ("exp", "hyper"):
            for beta in (np.nextafter(MAX_BETA, np.inf), 1e308, np.inf, np.nan, 0.0, -1.0):
                with pytest.raises(ValueError, match=r"beta must be positive and at most 1e\+150"):
                    TransformSpec(kind, beta=beta)
            assert TransformSpec(kind, alpha=MAX_ALPHA, beta=MAX_BETA).beta == MAX_BETA

    # A nonzero distance between two accepted points is at least 2.2e-162,
    # the root of the least subnormal square, and at most sqrt(12) *
    # MAX_ABS_COORD. Below that range a slope can exceed the float range
    # itself: exp with beta = 1/32 has a slope of about 1e311 at d = 1e-323.
    @seed(20261020)
    @settings(max_examples=200, deadline=2000, database=None)
    @given(
        st.sampled_from(["exp", "hyper"]),
        st.floats(0.0, MAX_ALPHA, exclude_min=True),
        st.floats(0.0, MAX_BETA, exclude_min=True),
        st.lists(st.one_of(st.just(0.0), st.floats(2.2e-162, 3.47e150)), min_size=1, max_size=16),
    )
    def test_parameter_range_keeps_values_finite(self, kind, alpha, beta, distances):
        # every accepted spec and distance gives a finite value and slope,
        # without a warning, but for the documented vertical tangent at 0
        spec = TransformSpec(kind, alpha, beta)
        d = np.array(distances)
        value = transform(spec, d)
        slope = transform_derivative(spec, d)
        assert np.isfinite(value).all() and (value >= 0).all()
        tangent = (d == 0) & (beta < (1.0 if kind == "exp" else 2.0))
        assert (slope[tangent] == np.inf).all()
        assert np.isfinite(slope[~tangent]).all() and (slope[~tangent] >= 0).all()

    def test_l1_l2_ignore_parameters(self):
        TransformSpec("l1", alpha=-5.0)  # no error: parameters unused


class TestTransform:
    def test_zero_maps_to_zero_all_kinds(self):
        for spec in ALL_KINDS:
            assert transform(spec, 0.0) == 0.0

    def test_spot_values(self):
        assert transform(TransformSpec("hyper", 1.0, 2.0), 1.0) == pytest.approx(
            1.3169578969248166, abs=1e-12
        )
        assert transform(TransformSpec("hyper", 0.5, 2.0), 2.0) == pytest.approx(
            1.7627471740390861, abs=1e-12
        )
        assert transform(TransformSpec("l2"), 3.0) == 9.0
        assert transform(TransformSpec("l1"), 3.0) == 3.0
        assert transform(TransformSpec("exp", 1.0, 1.0), 1.0) == pytest.approx(
            1.0 - np.exp(-1.0), rel=1e-15
        )

    def test_exp_bounded_and_saturating(self):
        spec = TransformSpec("exp", alpha=1.0, beta=1.0)
        d = np.linspace(0, 30, 400)
        v = transform(spec, d)
        assert (np.diff(v) > 0).all()
        assert v.max() < 1.0
        # far out the curve is indistinguishable from its asymptote
        assert transform(spec, 1e6) == 1.0
        assert transform(spec, np.array([40.0, 1e3, 1e6])).max() <= 1.0

    def test_negative_distance_rejected(self):
        for spec in ALL_KINDS:
            with pytest.raises(ValueError, match="non-negative"):
                transform(spec, -0.5)

    def test_array_input_matches_scalar(self):
        spec = TransformSpec("hyper", 1.3, 2.0)
        d = np.array([0.0, 0.5, 2.0])
        out = transform(spec, d)
        assert out.shape == (3,)
        for i, x in enumerate(d):
            assert out[i] == transform(spec, float(x))

    def test_strictly_increasing_random_triples(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            alpha = float(rng.uniform(0.05, 8.0))
            beta = float(rng.uniform(0.2, 4.0))
            d1, d2 = np.sort(rng.uniform(0.0, 10.0, size=2))
            if d1 == d2:
                continue
            spec = TransformSpec("hyper", alpha, beta)
            assert transform(spec, d1) < transform(spec, d2)

    def test_small_distance_series_agreement(self):
        # sqrt(2a)*d*(1 - a*d^2/12) approximates the hyper curve near zero
        for alpha in (0.5, 1.0, 2.0, 5.0):
            spec = TransformSpec("hyper", alpha, 2.0)
            d = np.logspace(-10, -4, 200)
            series = np.sqrt(2 * alpha) * d * (1 - alpha * d * d / 12.0)
            np.testing.assert_allclose(transform(spec, d), series, rtol=1e-8)

    def test_acosh1p_matches_library_away_from_zero(self):
        # only away from zero: below u ~ 0.1 the plain arccosh(1 + u)
        # loses digits to cancellation, which is what acosh1p avoids (the
        # small-u regime is checked against the series expansion instead)
        u = np.logspace(-1, 6, 100)
        np.testing.assert_allclose(acosh1p(u), np.arccosh(1.0 + u), rtol=1e-14)

    def test_acosh1p_beyond_the_square_overflow(self):
        # u * (u + 2) overflows from about 1.3e154; the log form takes over
        expected = math.acosh(1.0 + 1e160)
        assert abs(acosh1p(1e160) - expected) <= 1e-15 * expected
        assert acosh1p(np.inf) == np.inf
        u = np.array([1e150, np.nextafter(1e150, np.inf), 1e200, 1e308])
        expected = [math.acosh(1.0 + x) for x in u]
        np.testing.assert_allclose(acosh1p(u), expected, rtol=1e-15)

    def test_near_elements_keep_their_bits_beside_far_ones(self):
        # the far forms run only when some element needs them; a near
        # element's bits must not depend on whether one does, and every
        # element must carry the bits of both branches taken everywhere
        def both_branches(u):
            big = u > 1e150
            near = np.where(big, 0.0, u)
            return np.where(big, np.log(2.0) + np.log1p(u), np.log1p(near + np.sqrt(near * (near + 2.0))))

        u = np.concatenate([[0.0, 5e-324], np.logspace(-300, 150, 400)])
        alone = acosh1p(u)
        assert alone.tobytes() == both_branches(u).tobytes()
        for far in (np.nextafter(1e150, np.inf), 1e200, np.inf):
            mixed = np.insert(u, 7, far)
            got = acosh1p(mixed)
            assert np.delete(got, 7).tobytes() == alone.tobytes()
            assert got.tobytes() == both_branches(mixed).tobytes()
        spec = TransformSpec("hyper", 1.0, 2.0)
        d = np.concatenate([[0.0, 5e-324], np.logspace(-160, 75, 400)])
        for fn in (transform, transform_derivative):
            alone = fn(spec, d)
            for far in (1e76, 1e155):  # u beyond 1e150; u overflows
                got = fn(spec, np.insert(d, 7, far))
                assert np.delete(got, 7).tobytes() == alone.tobytes()
                assert got[7] == fn(spec, far)

    def test_acosh1p_rejects_negative_u(self):
        with pytest.raises(ValueError, match="u >= 0"):
            acosh1p(-1.0)

    @pytest.mark.parametrize(
        "alpha,beta,d",
        [(1.0, 3.0, 1e103), (1.0, 8.0, 1e103), (0.5, 3.0, 3.5e150), (1e10, 2.0, 3.5e150)],
    )
    def test_hyper_where_the_power_overflows(self, alpha, beta, d):
        # alpha * d**beta overflows; arccosh(1 + u) = log(2) + log(u) there
        spec = TransformSpec("hyper", alpha, beta)
        expected = math.log(2.0) + math.log(alpha) + beta * math.log(d)
        assert transform(spec, d) == pytest.approx(expected, rel=1e-15)
        assert transform(spec, np.inf) == np.inf

    def test_hyper_continuous_across_the_overflow(self):
        # d**3 is finite at the first distance and overflows at the second;
        # the two branches must differ by exactly the curve's own growth
        spec = TransformSpec("hyper", 1.0, 3.0)
        below, above = 5.6e102, 5.65e102
        with np.errstate(over="ignore"):
            assert np.isfinite(np.float64(below) ** 3) and np.isinf(np.float64(above) ** 3)
        step = transform(spec, above) - transform(spec, below)
        assert step == pytest.approx(3.0 * math.log(above / below), abs=1e-12)

    @pytest.mark.parametrize("beta", [3.0, 4.0])
    def test_exp_saturates_where_the_power_overflows(self, beta):
        spec = TransformSpec("exp", 1.0, beta)
        assert transform(spec, 1e103) == 1.0
        assert transform(spec, np.inf) == 1.0


class TestPoincareDistance:
    def test_coincident_zero(self):
        assert poincare_distance([0.3, 0.1, 0], [0.3, 0.1, 0]) == 0.0

    def test_origin_closed_form(self):
        # from the origin the geodesic reduces to 2*artanh(r)
        assert poincare_distance([0, 0, 0], [0.5, 0, 0]) == pytest.approx(
            np.log(3.0), abs=1e-12
        )
        r = 0.77
        assert poincare_distance([0, 0, 0], [0, r, 0]) == pytest.approx(
            2 * np.arctanh(r), rel=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rng.uniform(-0.5, 0.5, 3)
            q = rng.uniform(-0.5, 0.5, 3)
            assert poincare_distance(p, q) == poincare_distance(q, p)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="unit ball"):
            poincare_distance([1, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="unit ball"):
            poincare_distance([0, 0, 0], [0.8, 0.8, 0])

    def test_equals_chamfer_pair_terms_bit_for_bit(self):
        # a shell at norms 0.99-0.999, where 1 - |p|^2 amplifies any
        # difference in how the pair term is formed
        rng = np.random.default_rng(34)
        clouds = []
        for n in (300, 200):
            pts = ball_cloud(rng, n).points.copy()
            shell = pts[: n // 3]
            shell *= (rng.uniform(0.99, 0.999, len(shell)) / np.linalg.norm(shell, axis=1))[:, None]
            clouds.append(PointCloud(pts))
        a, b = clouds
        rep = chamfer_poincare(a, b)
        m = rep.match
        fwd = [poincare_distance(a.points[i], b.points[j]) for i, j in enumerate(m.fwd_idx)]
        bwd = [poincare_distance(a.points[i], b.points[j]) for j, i in enumerate(m.bwd_idx)]
        assert float(np.mean(fwd)) == rep.d1
        assert float(np.mean(bwd)) == rep.d2

    @pytest.mark.parametrize(
        "point,inside",
        [
            # |p|^2 summed as p @ p and as (x*x + y*y) + z*z round apart here
            ([-0.1735546202432566, 0.9388976414256076, 0.2972373003471302], False),
            ([0.3921070758562997, 0.307654486358466, -0.866949109283198], True),
        ],
    )
    def test_boundary_point_judged_as_chamfer_poincare_judges_it(self, point, inside):
        origin = PointCloud([[0.0, 0.0, 0.0]])
        for distance in (
            lambda: poincare_distance(point, [0.0, 0.0, 0.0]),
            lambda: poincare_distance([0.0, 0.0, 0.0], point),
            lambda: chamfer_poincare(PointCloud([point]), origin).d1,
            lambda: chamfer_poincare(origin, PointCloud([point])).d1,
        ):
            if inside:
                assert distance() == poincare_distance(point, [0.0, 0.0, 0.0])
            else:
                with pytest.raises(ValueError, match="unit ball"):
                    distance()


def near_unit_points(draw_dirs, ulps):
    """Rows of draw_dirs scaled to norm 1 + k * 2**-53, k from ulps, row by row."""
    v = np.array(draw_dirs, dtype=np.float64)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (1.0 + np.array(ulps, dtype=np.float64) * 2.0**-53)[:, None]


_directions = st.lists(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda t: sum(x * x for x in t) > 0.01),
    min_size=1,
    max_size=12,
)
_max_norms = st.one_of(
    st.integers(1, 64).map(lambda k: 1.0 - k * 2.0**-53),
    st.floats(0.5, 1.0, exclude_max=True),
)


class TestUnitBallProperty:
    """The one unit-ball test, on norms within a few ulp of 1."""

    @seed(20261021)
    @settings(max_examples=150, deadline=2000, database=None)
    @given(_directions, st.data())
    def test_entry_points_accept_alike_and_agree(self, dirs, data):
        ulps = data.draw(st.lists(st.integers(-8, 8), min_size=len(dirs), max_size=len(dirs)))
        pts = near_unit_points(dirs, ulps)
        q = np.array([0.25, -0.5, 0.125])
        for p in pts:
            try:
                single = poincare_distance(p, q)
            except ValueError:
                single = None
            try:
                pair = chamfer_poincare(PointCloud([p]), PointCloud([q])).d1
            except ValueError:
                pair = None
            assert single == pair

    @seed(20261022)
    @settings(max_examples=150, deadline=2000, database=None)
    @given(_directions, st.data(), _max_norms)
    def test_clip_to_ball_output_passes_the_ball_test(self, dirs, data, max_norm):
        ulps = data.draw(st.lists(st.integers(-8, 8), min_size=len(dirs), max_size=len(dirs)))
        scale = data.draw(st.sampled_from([1.0, 0.5, 3.0, 1e100]))
        cloud = PointCloud(near_unit_points(dirs, ulps) * scale)
        out = clip_to_ball(cloud, max_norm)
        rep = chamfer_poincare(out, out)
        assert rep.value == 0.0
        norms = np.linalg.norm(out.points, axis=1)
        assert (norms <= max_norm * (1.0 + 2.0**-50)).all()
        over = np.linalg.norm(cloud.points, axis=1) > max_norm
        np.testing.assert_array_equal(out.points[~over], cloud.points[~over])


class TestClipToBall:
    def test_radial_scaling(self):
        c = PointCloud([[2, 0, 0], [0.1, 0, 0]])
        out = clip_to_ball(c, 0.9)
        np.testing.assert_allclose(out.points[0], [0.9, 0, 0], rtol=1e-15)
        np.testing.assert_array_equal(out.points[1], [0.1, 0, 0])

    def test_all_norms_bounded(self):
        rng = np.random.default_rng(22)
        c = PointCloud(rng.normal(scale=2.0, size=(200, 3)))
        out = clip_to_ball(c, 0.97)
        assert (np.linalg.norm(out.points, axis=1) <= 0.97 + 1e-15).all()

    def test_inside_cloud_is_returned_as_is(self):
        c = PointCloud([[0.5, 0, 0], [0, -0.9, 0], [0.1, 0.2, 0.3]])
        assert clip_to_ball(c, 0.9) is c

    def test_invalid_max_norm(self):
        c = PointCloud([[0, 0, 0]])
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                clip_to_ball(c, bad)

    def test_largest_max_norm_output_is_accepted(self):
        # scaled onto radius 1 - 2**-53, 367 of these rows rounded to |p|^2 >= 1
        rng = np.random.default_rng(35)
        c = PointCloud(rng.standard_normal((2000, 3)) * 3.0)
        out = clip_to_ball(c, 0.9999999999999999)
        assert chamfer_poincare(out, out).value == 0.0
        assert (np.linalg.norm(out.points, axis=1) <= 1.0).all()


class TestChamfer:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(23)
        c = uniform_cloud(rng, 100)
        for spec in ALL_KINDS:
            assert chamfer(c, c, spec).value == 0.0

    def test_single_pair_hyper(self):
        a = PointCloud([[0, 0, 0]])
        b = PointCloud([[1, 0, 0]])
        rep = chamfer(a, b, TransformSpec("hyper", 1.0, 2.0))
        assert rep.value == pytest.approx(2.6339157938496336, abs=1e-10)
        assert rep.d1 == pytest.approx(rep.d2)

    def test_hand_enumeration_l1_l2(self):
        a = PointCloud([[0, 0, 0], [2, 0, 0]])
        b = PointCloud([[1, 0, 0]])
        assert chamfer(a, b, TransformSpec("l2")).value == pytest.approx(2.0, abs=1e-15)
        assert chamfer(a, b, TransformSpec("l1")).value == pytest.approx(2.0, abs=1e-15)

    def test_report_parts_sum(self):
        rng = np.random.default_rng(24)
        a = uniform_cloud(rng, 37)
        b = uniform_cloud(rng, 53)
        for spec in ALL_KINDS:
            rep = chamfer(a, b, spec)
            assert rep.value == rep.d1 + rep.d2
            assert rep.value >= 0

    def test_symmetry(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            a = mixed_cloud(rng, int(rng.integers(2, 120)))
            b = mixed_cloud(rng, int(rng.integers(2, 120)))
            for spec in ALL_KINDS:
                ab = chamfer(a, b, spec)
                ba = chamfer(b, a, spec)
                assert ab.value == pytest.approx(ba.value, rel=1e-12)
                assert ab.d1 == pytest.approx(ba.d2, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(26)
        a = uniform_cloud(rng, 64)
        b = uniform_cloud(rng, 80)
        for _ in range(5):
            v = rng.uniform(-30, 30, 3)
            a2 = PointCloud(a.points + v)
            b2 = PointCloud(b.points + v)
            for spec in ALL_KINDS:
                assert chamfer(a2, b2, spec).value == pytest.approx(
                    chamfer(a, b, spec).value, rel=1e-10
                )

    def test_matches_min_over_transformed_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(12):
            a = mixed_cloud(rng, int(rng.integers(1, 100)))
            b = mixed_cloud(rng, int(rng.integers(1, 100)))
            for spec in ALL_KINDS:
                expected = naive_chamfer(a, b, spec)
                got = chamfer(a, b, spec).value
                assert got == pytest.approx(expected, rel=1e-12)

    def test_precomputed_match_reused(self):
        rng = np.random.default_rng(28)
        a = uniform_cloud(rng, 30)
        b = uniform_cloud(rng, 40)
        m = match_brute(a, b)
        rep = chamfer(a, b, TransformSpec("l2"), match=m)
        assert rep.match is m
        assert rep.value == chamfer(a, b, TransformSpec("l2")).value


def ball_scores(a: PointCloud, b: PointCloud) -> np.ndarray:
    """Full (n, m) matrix of the ball score 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))."""
    A, B = a.points, b.points
    inv_a = 1.0 / (1.0 - (A * A).sum(axis=1))
    inv_b = 1.0 / (1.0 - (B * B).sum(axis=1))
    diff = A[:, None, :] - B[None, :, :]
    return 2.0 * (diff * diff).sum(axis=2) * (inv_a[:, None] * inv_b[None, :])


def assert_equals_ball_oracle(rep, a: PointCloud, b: PointCloud, u: np.ndarray):
    A, B = a.points, b.points
    m = rep.match
    np.testing.assert_array_equal(m.fwd_idx, u.argmin(axis=1))
    np.testing.assert_array_equal(m.bwd_idx, u.argmin(axis=0))
    assert np.array_equal(m.fwd_sq, pair_sq(A, B[m.fwd_idx]))
    assert np.array_equal(m.bwd_sq, pair_sq(A[m.bwd_idx], B))
    assert rep.d1 == float(np.mean(acosh1p(u.min(axis=1))))
    assert rep.d2 == float(np.mean(acosh1p(u.min(axis=0))))


class TestChamferPoincare:
    def test_identity_zero(self):
        rng = np.random.default_rng(29)
        c = ball_cloud(rng, 50)
        assert chamfer_poincare(c, c).value == 0.0

    def test_single_pair_hand_value(self):
        a = PointCloud([[0, 0, 0]])
        b = PointCloud([[0.5, 0, 0]])
        assert chamfer_poincare(a, b).value == pytest.approx(2 * np.log(3.0), abs=1e-12)

    def test_two_target_hand_value(self):
        # both b-points equidistant from the origin: d1 = ln3, d2 = ln3
        a = PointCloud([[0, 0, 0]])
        b = PointCloud([[0.5, 0, 0], [0, 0.5, 0]])
        assert chamfer_poincare(a, b).value == pytest.approx(2 * np.log(3.0), abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            a = ball_cloud(rng, int(rng.integers(1, 60)))
            b = ball_cloud(rng, int(rng.integers(1, 60)))
            dm = np.empty((len(a), len(b)))
            for j in range(len(a)):
                for k in range(len(b)):
                    dm[j, k] = poincare_distance(a.points[j], b.points[k])
            expected = dm.min(axis=1).mean() + dm.min(axis=0).mean()
            assert chamfer_poincare(a, b).value == pytest.approx(expected, rel=1e-12)

    def test_domain_violation_rejected(self):
        inside = PointCloud([[0.1, 0, 0]])
        outside = PointCloud([[0.0, 0, 0], [1.2, 0, 0]])
        with pytest.raises(ValueError, match="unit ball"):
            chamfer_poincare(inside, outside)
        with pytest.raises(ValueError, match="unit ball"):
            chamfer_poincare(outside, inside)

    def test_not_translation_invariant(self):
        # the counterexample the Euclidean kinds cannot produce
        a = PointCloud([[0.0, 0, 0]])
        b = PointCloud([[0.2, 0, 0]])
        base = chamfer_poincare(a, b).value
        shift = np.array([0.7, 0, 0])
        moved = chamfer_poincare(
            PointCloud(a.points + shift), PointCloud(b.points + shift)
        ).value
        assert abs(moved - base) > 0.1

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a = ball_cloud(rng, 40)
        b = ball_cloud(rng, 30)
        assert chamfer_poincare(a, b).value == pytest.approx(
            chamfer_poincare(b, a).value, rel=1e-12
        )

    @pytest.mark.parametrize("shift", [0.0, 0.0625])
    def test_tied_scan_over_chunks_matches_full_matrix(self, monkeypatch, shift):
        # snapped clouds tie exactly: duplicates, and lattice points of
        # equal norm at equal distance
        rng = np.random.default_rng(32)
        a = PointCloud(snapped_cloud(rng, 60).points * 0.5)
        b = PointCloud(a.points[rng.permutation(len(a))] + [shift, 0.0, 0.0])
        rows_per_chunk = 7
        monkeypatch.setattr(matching, "_CHUNK_BYTES", rows_per_chunk * len(b) * 3 * 8)
        assert len(a) >= 3 * rows_per_chunk

        u = ball_scores(a, b)
        assert ((u == u.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        assert ((u == u.min(axis=0, keepdims=True)).sum(axis=0) > 1).any()
        assert_equals_ball_oracle(chamfer_poincare(a, b), a, b, u)

    @pytest.mark.parametrize("rows_per_chunk", [1, 7])
    def test_near_boundary_scan_over_chunks_matches_full_matrix(self, monkeypatch, rows_per_chunk):
        # a shell at norms 0.99-0.999 scales its scores by up to 1/(1-0.998)
        rng = np.random.default_rng(33)
        clouds = []
        for n, shell in ((61, 20), (47, 15)):
            v = rng.standard_normal((shell, 3))
            v *= (rng.uniform(0.99, 0.999, shell) / np.linalg.norm(v, axis=1))[:, None]
            pts = np.vstack([ball_cloud(rng, n - shell).points, v])
            clouds.append(PointCloud(pts[rng.permutation(n)]))
        a, b = clouds
        monkeypatch.setattr(matching, "_CHUNK_BYTES", rows_per_chunk * len(b) * 3 * 8)
        rep = chamfer_poincare(a, b)
        assert_equals_ball_oracle(rep, a, b, ball_scores(a, b))
        assert rep.value == rep.d1 + rep.d2
