import numpy as np
import pytest

from chamferkit import (
    MAX_ABS_COORD,
    PointCloud,
    as_point,
    bounding_box,
    displace_outliers,
    gen_shape,
    jitter_cloud,
)
from chamferkit.cloud import BoundingBox, check_coord_range, partial_view_crop


class TestPointCloud:
    def test_basic_construction(self):
        c = PointCloud([[0, 0, 0], [1, 2, 3]])
        assert len(c) == 2
        np.testing.assert_array_equal(c.points, [[0, 0, 0], [1, 2, 3]])

    def test_points_are_float64_and_readonly(self):
        c = PointCloud([[0, 0, 0]])
        assert c.points.dtype == np.float64
        with pytest.raises(ValueError):
            c.points[0, 0] = 1.0

    def test_input_array_not_aliased(self):
        src = np.zeros((2, 3))
        c = PointCloud(src)
        src[0, 0] = 99.0
        assert c.points[0, 0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            PointCloud(np.empty((0, 3)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="expected an"):
            PointCloud([[1, 2], [3, 4]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            PointCloud([[0, 0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            PointCloud([[np.inf, 0, 0]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coordinate_range_is_an_invariant(self, sign):
        c = PointCloud([[0, 0, 0], [sign * MAX_ABS_COORD, 0, -MAX_ABS_COORD]])
        assert abs(c.points).max() == 1e150
        with pytest.raises(ValueError, match="beyond the supported 1e\\+150"):
            PointCloud([[0, 0, 0], [0, sign * 1e151, 0]])

    def test_equality(self):
        a = PointCloud([[1, 2, 3]])
        assert a == PointCloud([[1, 2, 3]])
        assert a != PointCloud([[1, 2, 4]])
        assert a != PointCloud([[1, 2, 3], [1, 2, 3]])


class TestAsPoint:
    def test_accepts_sequences(self):
        np.testing.assert_array_equal(as_point([1, 2, 3]), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(as_point(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_rejects_wrong_arity_and_nan(self):
        with pytest.raises(ValueError):
            as_point([1, 2])
        with pytest.raises(ValueError):
            as_point([1, 2, np.nan])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coordinate_range(self, sign):
        np.testing.assert_array_equal(as_point([0, sign * 1e150, 0]), [0, sign * 1e150, 0])
        with pytest.raises(ValueError, match="non-finite"):
            as_point([0, sign * np.inf, 0])
        with pytest.raises(ValueError, match="point has a coordinate of magnitude 1e\\+151, beyond the supported 1e\\+150"):
            as_point([0, 0, sign * 1e151])


class TestBoundingBox:
    def test_extent_and_diagonal(self):
        box = BoundingBox([0, 0, 0], [1, 2, 2])
        np.testing.assert_array_equal(box.extent, [1, 2, 2])
        assert box.diagonal == pytest.approx(3.0)

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox([1, 0, 0], [0, 1, 1])

    def test_bounding_box_of_cloud(self):
        box = bounding_box(PointCloud([[0, 5, -1], [2, 1, 3]]))
        np.testing.assert_array_equal(box.min_corner, [0, 1, -1])
        np.testing.assert_array_equal(box.max_corner, [2, 5, 3])


class TestGenShape:
    def test_sphere_norms(self):
        c = gen_shape("sphere-surface", 100, seed=7)
        assert len(c) == 100
        norms = np.linalg.norm(c.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_determinism(self):
        for kind in ("sphere-surface", "box-surface", "plane-grid", "l-bracket"):
            a = gen_shape(kind, 200, seed=13)
            b = gen_shape(kind, 200, seed=13)
            np.testing.assert_array_equal(a.points, b.points)

    def test_seed_changes_cloud(self):
        a = gen_shape("sphere-surface", 50, seed=1)
        b = gen_shape("sphere-surface", 50, seed=2)
        assert (a.points != b.points).any()

    def test_plane_grid_constant_z(self):
        c = gen_shape("plane-grid", 16, seed=0)
        assert len(c) == 16
        assert (c.points[:, 2] == c.points[0, 2]).all()

    def test_box_surface_on_faces(self):
        c = gen_shape("box-surface", 300, seed=3)
        on_face = (c.points == 0.0) | (c.points == 1.0)
        assert on_face.any(axis=1).all()
        assert (c.points >= 0).all() and (c.points <= 1).all()

    def test_l_bracket_on_plates(self):
        c = gen_shape("l-bracket", 300, seed=4)
        on_plate = (c.points[:, 2] == 0.0) | (c.points[:, 1] == 0.0)
        assert on_plate.all()

    def test_bad_args(self):
        with pytest.raises(ValueError, match="unknown shape kind"):
            gen_shape("torus", 10, seed=0)
        with pytest.raises(ValueError, match="at least 1"):
            gen_shape("sphere-surface", 0, seed=0)


class TestCheckCoordRange:
    def test_limit_accepted(self):
        check_coord_range("cloud", np.array([[MAX_ABS_COORD, -MAX_ABS_COORD, -0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(MAX_ABS_COORD, np.inf)])
    def test_nan_and_beyond_rejected(self, bad):
        for row in ([[bad, 0, 0]], [[0, 0, 0], [1, bad, 1]]):
            with pytest.raises(ValueError, match="beyond the supported 1e\\+150"):
                check_coord_range("cloud", np.array(row))


class TestPartialViewCrop:
    def test_two_point_example(self):
        c = PointCloud([[0, 0, 0], [10, 0, 0]])
        out = partial_view_crop(c, [0, 0, 0], 1)
        np.testing.assert_array_equal(out.points, [[10, 0, 0]])

    def test_duplicate_nearest_removes_lower_index(self):
        c = PointCloud([[5, 5, 5], [1, 0, 0], [1, 0, 0], [9, 9, 9]])
        out = partial_view_crop(c, [1, 0, 0], 1)
        # index 1 goes; the identical point at index 2 stays
        np.testing.assert_array_equal(out.points, [[5, 5, 5], [1, 0, 0], [9, 9, 9]])

    def test_sphere_crop_count_and_radius(self):
        c = gen_shape("sphere-surface", 2048, seed=11)
        vp = [0.0, 0.0, 2.0]
        out = partial_view_crop(c, vp, 512)
        assert len(out) == 1536
        dist_kept = np.linalg.norm(out.points - vp, axis=1)
        dist_all = np.linalg.norm(c.points - vp, axis=1)
        removed_max = np.sort(dist_all)[511]
        assert (dist_kept >= removed_max).all()

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(42)
        for n in (2, 17, 256, 4096):
            pts = rng.uniform(size=(n, 3))
            if n >= 16:
                pts[: n // 4] = np.round(pts[: n // 4] * 4) / 4  # force ties
            c = PointCloud(pts)
            vp = rng.uniform(size=3)
            k = int(rng.integers(1, n))
            sq = ((c.points - vp) ** 2).sum(axis=1)
            order = sorted(range(n), key=lambda i: (sq[i], i))
            keep = np.ones(n, dtype=bool)
            keep[order[:k]] = False
            expected = c.points[keep]
            out = partial_view_crop(c, vp, k)
            np.testing.assert_array_equal(out.points, expected)

    def test_preserves_relative_order(self):
        c = PointCloud([[3, 0, 0], [1, 0, 0], [2, 0, 0], [4, 0, 0]])
        out = partial_view_crop(c, [0, 0, 0], 2)
        np.testing.assert_array_equal(out.points, [[3, 0, 0], [4, 0, 0]])

    def test_viewpoint_within_coordinate_range(self):
        c = PointCloud([[0, 0, 0], [1, 0, 0], [-1, 0, 0]])
        out = partial_view_crop(c, [MAX_ABS_COORD, 0, 0], 1)
        # all three squared distances round to 1e300, so the lowest index goes
        np.testing.assert_array_equal(out.points, [[1, 0, 0], [-1, 0, 0]])
        for vp in ([1e308, 0, 0], [0, -2 * MAX_ABS_COORD, 0]):
            with pytest.raises(ValueError, match="beyond the supported 1e\\+150"):
                partial_view_crop(c, vp, 1)

    def test_cloud_within_coordinate_range(self):
        # squaring 1e200 would overflow and rank both far points as inf, so
        # such a cloud cannot be built; at the limit every rank is finite
        with pytest.raises(ValueError, match="cloud has a coordinate of magnitude 2e\\+200"):
            PointCloud([[1e200, 0, 0], [0, 0, 0], [2e200, 0, 0]])
        c = PointCloud([[MAX_ABS_COORD, 0, 0], [0, 0, 0], [-MAX_ABS_COORD, 0, 0]])
        out = partial_view_crop(c, [MAX_ABS_COORD, 0, 0], 2)
        np.testing.assert_array_equal(out.points, [[-MAX_ABS_COORD, 0, 0]])

    def test_bad_k(self):
        c = PointCloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError):
            partial_view_crop(c, [0, 0, 0], 0)
        with pytest.raises(ValueError):
            partial_view_crop(c, [0, 0, 0], 2)
        with pytest.raises(ValueError, match="^a one-point cloud cannot be cropped"):
            partial_view_crop(PointCloud([[0, 0, 0]]), [0, 0, 0], 1)


class TestJitterAndOutliers:
    def test_jitter_deterministic_and_scaled(self):
        c = gen_shape("sphere-surface", 64, seed=0)
        a = jitter_cloud(c, 0.1, seed=3)
        b = jitter_cloud(c, 0.1, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        assert jitter_cloud(c, 0.0, seed=3) == c

    def test_jitter_rejects_negative_sigma(self):
        c = gen_shape("sphere-surface", 8, seed=0)
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                jitter_cloud(c, sigma, seed=3)

    def test_displace_outliers_count_and_distance(self):
        c = gen_shape("sphere-surface", 128, seed=1)
        out, idx = displace_outliers(c, 0.05, 20.0, seed=9)
        assert len(idx) == round(0.05 * 128)
        moved = np.linalg.norm(out.points[idx] - c.points[idx], axis=1)
        np.testing.assert_allclose(moved, 20.0, rtol=1e-12)
        untouched = np.setdiff1d(np.arange(128), idx)
        np.testing.assert_array_equal(out.points[untouched], c.points[untouched])

    def test_displace_outliers_validation(self):
        c = gen_shape("sphere-surface", 16, seed=1)
        with pytest.raises(ValueError):
            displace_outliers(c, 0.0, 1.0, seed=0)
        for distance in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="distance"):
                displace_outliers(c, 0.5, distance, seed=0)
