import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from chamferkit import (
    MAX_ABS_COORD,
    MatchResult,
    PointCloud,
    gen_shape,
    match_brute,
    match_indexed,
    pair_sq,
)
from chamferkit import matching
from chamferkit.matching import _TIE_CHUNK_ROWS, _TIE_K, _TIE_RTOL

from testutil import mixed_cloud, snapped_cloud, sorted_nearest, uniform_cloud


def assert_matches_equal(m1, m2):
    np.testing.assert_array_equal(m1.fwd_idx, m2.fwd_idx)
    np.testing.assert_array_equal(m1.bwd_idx, m2.bwd_idx)
    # squared distances must agree to the bit, not just approximately
    np.testing.assert_array_equal(m1.fwd_sq, m2.fwd_sq)
    np.testing.assert_array_equal(m1.bwd_sq, m2.bwd_sq)


class TestPairSq:
    @pytest.mark.parametrize("scale", [1.0, 1e149, 1e-160, 1e-310])
    def test_bits_equal_length3_sum(self, scale):
        # the oracle sums (dx*dx + dy*dy) + dz*dz, the order every matcher
        # and the tie pass take; at 1e-160 the squares are subnormal or 0
        rng = np.random.default_rng(24)
        a = rng.uniform(-1.0, 1.0, (400, 3)) * scale
        b = rng.uniform(-1.0, 1.0, (400, 3)) * scale
        a[::7, 0] = -0.0
        b[::5, 2] = -0.0
        b[::11] = a[::11]
        idx = rng.integers(0, len(b), (len(a), 5))
        for q, t in ((a, b), (a[:, None, :], b[idx]), (a[3], b)):
            diff = q - t
            oracle = (diff * diff).sum(axis=-1)
            got = pair_sq(q, t)
            assert got.shape == oracle.shape
            assert got.tobytes() == oracle.tobytes()


class TestMatchBrute:
    def test_identity_matching(self):
        c = PointCloud([[0, 0, 0], [1, 0, 0]])
        m = match_brute(c, c)
        np.testing.assert_array_equal(m.fwd_idx, [0, 1])
        np.testing.assert_array_equal(m.bwd_idx, [0, 1])
        assert (m.fwd_sq == 0).all() and (m.bwd_sq == 0).all()

    def test_hand_enumeration(self):
        a = PointCloud([[0, 0, 0]])
        b = PointCloud([[1, 0, 0], [0, 2, 0]])
        m = match_brute(a, b)
        np.testing.assert_array_equal(m.fwd_idx, [0])
        np.testing.assert_array_equal(m.fwd_sq, [1.0])
        np.testing.assert_array_equal(m.bwd_idx, [0, 0])
        np.testing.assert_array_equal(m.bwd_sq, [1.0, 4.0])

    def test_duplicate_targets_tie_to_smallest_index(self):
        b_pts = np.ones((6, 3)) * 9
        b_pts[3] = (1, 0, 0)
        b_pts[5] = (1, 0, 0)
        m = match_brute(PointCloud([[1, 0, 0]]), PointCloud(b_pts))
        assert m.fwd_idx[0] == 3

    def test_equidistant_tie_to_smallest_index(self):
        # query at the midpoint of two distinct points
        b = PointCloud([[2, 0, 0], [0, 0, 0]])
        m = match_brute(PointCloud([[1, 0, 0]]), b)
        assert m.fwd_idx[0] == 0

    def test_matches_python_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            a = mixed_cloud(rng, int(rng.integers(1, 60)))
            b = mixed_cloud(rng, int(rng.integers(1, 60)))
            m = match_brute(a, b)
            np.testing.assert_array_equal(m.fwd_idx, sorted_nearest(a, b))
            np.testing.assert_array_equal(m.bwd_idx, sorted_nearest(b, a))

    def test_sq_recomputable_and_minimal(self):
        rng = np.random.default_rng(8)
        a = uniform_cloud(rng, 80)
        b = uniform_cloud(rng, 90)
        m = match_brute(a, b)
        np.testing.assert_array_equal(m.fwd_sq, pair_sq(a.points, b.points[m.fwd_idx]))
        np.testing.assert_array_equal(m.bwd_sq, pair_sq(a.points[m.bwd_idx], b.points))
        diff = a.points[:, None, :] - b.points[None, :, :]
        sq = (diff * diff).sum(axis=2)
        assert (m.fwd_sq[:, None] <= sq).all()
        assert (m.bwd_sq[None, :] <= sq).all()
        assert (m.fwd_sq >= 0).all() and np.isfinite(m.fwd_sq).all()

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e149])
    @pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
    def test_equals_full_matrix_oracle(self, monkeypatch, rows_per_chunk, scale):
        # snapped clouds with duplicated rows tie in both directions; 60 and
        # 50 query rows leave a partial last chunk at 7 rows per chunk, and
        # at 1e-160 the squared distances are subnormal or 0
        rng = np.random.default_rng(37)
        a_pts = snapped_cloud(rng, 45).points
        b_pts = snapped_cloud(rng, 40).points
        a = PointCloud(np.vstack([a_pts, a_pts[rng.integers(0, 45, 15)]]) * scale)
        b = PointCloud(np.vstack([b_pts, b_pts[rng.integers(0, 40, 10)]]) * scale)
        for q, t in ((a, b), (b, a), (PointCloud(a.points[:1]), b), (a, PointCloud(b.points[:1]))):
            rows = rows_per_chunk or len(q)
            monkeypatch.setattr(matching, "_CHUNK_BYTES", rows * len(t) * 3 * 8)
            diff = q.points[:, None, :] - t.points[None, :, :]
            sq = (diff * diff).sum(axis=2)
            if len(q) > 1 and len(t) > 1:
                assert ((sq == sq.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
                assert ((sq == sq.min(axis=0, keepdims=True)).sum(axis=0) > 1).any()
            oracle = MatchResult(sq.argmin(axis=1), sq.min(axis=1), sq.argmin(axis=0), sq.min(axis=0))
            assert_matches_equal(match_brute(q, t), oracle)

    def test_chunked_path_consistent(self):
        # force many row chunks by exceeding the scratch budget
        rng = np.random.default_rng(9)
        a = uniform_cloud(rng, 4096)
        b = uniform_cloud(rng, 3000)
        m = match_brute(a, b)
        np.testing.assert_array_equal(m.fwd_sq, pair_sq(a.points, b.points[m.fwd_idx]))
        sample = rng.integers(0, len(a), 64)
        for j in sample:
            sq_row = pair_sq(a.points[j], b.points)
            assert m.fwd_sq[j] == sq_row.min()
            assert m.fwd_idx[j] == sq_row.argmin()


class TestMatchIndexed:
    def test_single_point_clouds(self):
        a = PointCloud([[0, 0, 0]])
        b = PointCloud([[3, 4, 0]])
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))

    def test_random_pairs_equal_brute(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            a = mixed_cloud(rng, int(rng.integers(1, 300)))
            b = mixed_cloud(rng, int(rng.integers(1, 300)))
            assert_matches_equal(match_indexed(a, b), match_brute(a, b))

    def test_tie_heavy_clouds_equal_brute(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = snapped_cloud(rng, int(rng.integers(50, 400)), grid=0.5)
            b = snapped_cloud(rng, int(rng.integers(50, 400)), grid=0.5)
            assert_matches_equal(match_indexed(a, b), match_brute(a, b))

    def test_all_identical_points(self):
        a = PointCloud(np.zeros((5, 3)))
        b = PointCloud(np.ones((7, 3)))
        m = match_indexed(a, b)
        assert (m.fwd_idx == 0).all() and (m.bwd_idx == 0).all()
        assert (m.fwd_sq == 3.0).all()

    def test_large_pair_equal_brute(self):
        rng = np.random.default_rng(12)
        a = uniform_cloud(rng, 8192)
        b = uniform_cloud(rng, 8192)
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))

    def test_worker_env_var_is_ignored(self, monkeypatch):
        rng = np.random.default_rng(13)
        a = snapped_cloud(rng, 500, grid=0.25)
        b = snapped_cloud(rng, 500, grid=0.25)
        expected = match_indexed(a, b)
        monkeypatch.setenv("CHAMFERKIT_WORKERS", "many")
        assert_matches_equal(match_indexed(a, b), expected)

    def test_sphere_to_cropped_sphere(self):
        full = gen_shape("sphere-surface", 1024, seed=3)
        partial = PointCloud(full.points[256:])
        assert_matches_equal(match_indexed(partial, full), match_brute(partial, full))


def tied_rows(queries: PointCloud, target: PointCloud, k: int) -> np.ndarray:
    """Queries whose k nearest targets all lie within the tie radius."""
    dist, _ = cKDTree(target.points).query(queries.points, k=k)
    return np.flatnonzero(dist[:, -1] <= dist[:, 0] * (1.0 + _TIE_RTOL))


@pytest.fixture
def tie_passes(monkeypatch):
    """The k of every tie pass match_indexed runs, in call order."""
    ks = []
    inner = matching._resolve_ties

    def spy(*args):
        ks.append(args[-1])
        inner(*args)

    monkeypatch.setattr(matching, "_resolve_ties", spy)
    return ks


class TestTieResolution:
    def test_shifted_3d_lattice_takes_a_second_pass(self):
        # interior cell centres are equidistant from 8 lattice corners,
        # more than the first pass fetches, so those rows take a second pass
        axis = np.arange(6.0)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        rng = np.random.default_rng(14)
        a = PointCloud(lattice[rng.permutation(len(lattice))])
        b = PointCloud((lattice + 0.5)[rng.permutation(len(lattice))])
        assert len(tied_rows(a, b, _TIE_K)) > 0
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))

    def test_duplicates_beyond_candidate_count(self):
        rng = np.random.default_rng(15)
        base = snapped_cloud(rng, 40, grid=0.5).points
        repeated = np.repeat(base, _TIE_K + 2, axis=0)
        target = PointCloud(repeated[rng.permutation(len(repeated))])
        queries = PointCloud(np.vstack([base, uniform_cloud(rng, 60).points]))
        assert len(tied_rows(queries, target, _TIE_K)) > 0
        assert_matches_equal(match_indexed(queries, target), match_brute(queries, target))

    def test_tied_rows_spanning_several_chunks(self):
        n = 4096
        side = int(np.sqrt(n))
        grid = gen_shape("plane-grid", n, seed=0).points
        half = 0.5 / (side - 1)
        rng = np.random.default_rng(16)
        a = PointCloud(grid[rng.permutation(n)])
        b = PointCloud((grid + [half, half, 0.0])[rng.permutation(n)])
        assert len(tied_rows(a, b, 2)) > _TIE_CHUNK_ROWS
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))

    @pytest.mark.parametrize("scale", [1e149, 1e-160])
    def test_scaled_shifted_grid_equals_brute(self, scale):
        # 4-way ties at the largest and a tiny scale, where the tie radii
        # square to subnormals or 0 and the candidates' gathered-column
        # scores must still carry pair_sq's bits
        n = 4096
        side = int(np.sqrt(n))
        grid = gen_shape("plane-grid", n, seed=0).points
        half = 0.5 / (side - 1)
        rng = np.random.default_rng(24)
        a = PointCloud(grid[rng.permutation(n)] * scale)
        b = PointCloud((grid + [half, half, 0.0])[rng.permutation(n)] * scale)
        assert len(tied_rows(a, b, 4)) > _TIE_CHUNK_ROWS
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))
        assert_matches_equal(match_indexed(b, a), match_brute(b, a))

    @pytest.mark.parametrize("scale", [1.0, 2.0**480])
    def test_mirrored_candidates_tie_by_rounding(self, scale):
        # each query has two nearest targets whose offsets are the same
        # three coordinates in reverse order: equidistant exactly, but the
        # canonical sums round apart, so the tie pass must score them in
        # pair_sq's order to pick brute's winner (differences are exact,
        # as every target lies within a factor 2 of its query)
        rng = np.random.default_rng(25)
        n = 600
        centres = 4.0 + 16.0 * np.arange(n)[:, None] * np.ones(3)
        offsets = rng.uniform(-1.0, 1.0, (n, 3))
        queries = PointCloud(centres * scale)
        target = PointCloud(np.vstack([centres + offsets, centres + offsets[:, ::-1]]) * scale)
        fwd_sq = pair_sq(queries.points, target.points[:n])
        assert (fwd_sq != pair_sq(queries.points, target.points[n:])).sum() > n // 10
        assert_matches_equal(match_indexed(queries, target), match_brute(queries, target))

    def test_duplicates_64_times_take_a_counted_pass(self, tie_passes):
        # every query ties with all 64 copies of its nearest point: the k=2
        # query, the first pass (whose 5th candidate is still a copy) and a
        # second pass sized by the count inside the tie radius
        rng = np.random.default_rng(17)
        base = uniform_cloud(rng, 40).points
        repeated = np.repeat(base, 64, axis=0)
        target = PointCloud(repeated[rng.permutation(len(repeated))])
        queries = PointCloud(np.vstack([base, uniform_cloud(rng, 60).points]))
        assert_matches_equal(match_indexed(queries, target), match_brute(queries, target))
        assert tie_passes == [_TIE_K, 65]
        assert_matches_equal(match_indexed(target, queries), match_brute(target, queries))

    def test_sphere_centre_ties_with_every_target(self, tie_passes):
        target = gen_shape("sphere-surface", 3000, seed=18)
        queries = PointCloud([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert_matches_equal(match_indexed(queries, target), match_brute(queries, target))
        assert tie_passes[-1] > len(target)  # so the last pass fetched all of it

    def test_one_point_target_never_ties(self, tie_passes):
        rng = np.random.default_rng(19)
        target = PointCloud([[0.25, 0.5, 0.75]])
        queries = PointCloud(np.vstack([target.points, uniform_cloud(rng, 50).points]))
        assert_matches_equal(match_indexed(queries, target), match_brute(queries, target))
        assert_matches_equal(match_indexed(target, queries), match_brute(target, queries))
        assert tie_passes == []

    def test_padded_partial_against_sphere(self):
        # 256 points inside the sphere, each repeated 8 times
        rng = np.random.default_rng(20)
        full = gen_shape("sphere-surface", 4096, seed=21)
        base = gen_shape("sphere-surface", 256, seed=22).points * 0.9
        partial = PointCloud(base[rng.permutation(np.resize(np.arange(256), 2048))])
        assert_matches_equal(match_indexed(full, partial), match_brute(full, partial))
        assert_matches_equal(match_indexed(partial, full), match_brute(partial, full))

    def test_deep_pass_spanning_several_chunks(self, monkeypatch, tie_passes):
        # 13 rows per first-pass chunk, so the k=65 pass takes one row per chunk
        monkeypatch.setattr(matching, "_TIE_CHUNK_ROWS", 13)
        rng = np.random.default_rng(22)
        base = uniform_cloud(rng, 30).points
        repeated = np.repeat(base, 64, axis=0)
        target = PointCloud(repeated[rng.permutation(len(repeated))])
        queries = PointCloud(np.vstack([base, uniform_cloud(rng, 50).points]))
        assert_matches_equal(match_indexed(queries, target), match_brute(queries, target))
        # 80 tied rows: 7 first-pass chunks of 13, each sending its rows on
        assert tie_passes == [_TIE_K] + [65] * 7

    @pytest.mark.parametrize("scale", [1e-140, 1e-160, 1e-200, 1e-310])
    def test_tiny_scales_equal_brute(self, scale):
        # tie radii whose squares are subnormal or 0, where a kd query
        # bounded by the radius alone would find no candidate at all
        rng = np.random.default_rng(23)
        a = PointCloud(snapped_cloud(rng, 300, grid=0.25).points * scale)
        b = PointCloud(snapped_cloud(rng, 200, grid=0.25).points * scale)
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))
        assert_matches_equal(match_indexed(b, a), match_brute(b, a))

    @seed(20241223)
    @settings(max_examples=60, deadline=2000, database=None)
    @given(
        st.integers(1, 120),
        st.integers(1, 120),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_snapped_clouds_property(self, n, m, grid, cloud_seed):
        rng = np.random.default_rng(cloud_seed)
        a = snapped_cloud(rng, n, grid=grid)
        b = snapped_cloud(rng, m, grid=grid)
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))


class TestIndexedEqualsBruteProperty:
    @seed(20261021)
    @settings(max_examples=120, deadline=2000, database=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.floats(-320.0, 149.0),
        st.sampled_from(["uniform", "snapped", "duplicated"]),
        st.integers(0, 2**32 - 1),
    )
    def test_same_indices_and_bits(self, n, m, exponent, layout, cloud_seed):
        # scales from subnormal coordinates, where most squared distances
        # are 0, to the top of the coordinate range
        rng = np.random.default_rng(cloud_seed)
        scale = 10.0**exponent

        def cloud(k):
            pts = rng.uniform(-1.0, 1.0, (k, 3))
            if layout != "uniform":
                pts = np.round(pts * 4.0) / 4.0
            if layout == "duplicated":
                pts = pts[rng.permutation(np.resize(np.arange(k), 4 * k))]
            return PointCloud(pts * scale)

        a, b = cloud(n), cloud(m)
        assert_matches_equal(match_indexed(a, b), match_brute(a, b))
        assert_matches_equal(match_indexed(b, a), match_brute(b, a))


class TestCoordinateRange:
    def test_limit_is_accepted_and_agrees(self):
        a = PointCloud([[MAX_ABS_COORD, 0, 0], [0, 0, 0]])
        b = PointCloud([[-MAX_ABS_COORD, -MAX_ABS_COORD, -MAX_ABS_COORD], [1, 1, 1]])
        m = match_indexed(a, b)
        assert_matches_equal(m, match_brute(a, b))
        assert np.isfinite(m.fwd_sq).all() and np.isfinite(m.bwd_sq).all()

    @pytest.mark.parametrize("big", [1e200, -1e155, 2 * MAX_ABS_COORD])
    def test_beyond_limit_rejected_by_both(self, big):
        # neither matcher can be handed such a cloud: it cannot be built
        with pytest.raises(ValueError, match="supported"):
            PointCloud([[big, 0, 0], [0, 0, 0]])

