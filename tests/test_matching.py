from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule
from scipy.spatial import cKDTree

from chamferkit import (
    MAX_ABS_COORD,
    MatchResult,
    PointCloud,
    TransformSpec,
    chamfer,
    evaluate,
    gen_shape,
    match_brute,
    match_indexed,
    pair_sq,
)
from chamferkit import evaluation, matching
from chamferkit.matching import _TIE_CHUNK_ROWS, _TIE_K, _TIE_RTOL

from testutil import (
    assert_same_match,
    mixed_cloud,
    shifted_grid_pair,
    snapped_cloud,
    sorted_nearest,
    uniform_cloud,
)


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
            assert_same_match(match_brute(q, t), oracle)

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
        assert_same_match(match_indexed(a, b), match_brute(a, b))

    def test_random_pairs_equal_brute(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            a = mixed_cloud(rng, int(rng.integers(1, 300)))
            b = mixed_cloud(rng, int(rng.integers(1, 300)))
            assert_same_match(match_indexed(a, b), match_brute(a, b))

    def test_tie_heavy_clouds_equal_brute(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = snapped_cloud(rng, int(rng.integers(50, 400)), grid=0.5)
            b = snapped_cloud(rng, int(rng.integers(50, 400)), grid=0.5)
            assert_same_match(match_indexed(a, b), match_brute(a, b))

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
        assert_same_match(match_indexed(a, b), match_brute(a, b))

    def test_worker_env_var_is_ignored(self, monkeypatch):
        rng = np.random.default_rng(13)
        a = snapped_cloud(rng, 500, grid=0.25)
        b = snapped_cloud(rng, 500, grid=0.25)
        expected = match_indexed(a, b)
        monkeypatch.setenv("CHAMFERKIT_WORKERS", "many")
        assert_same_match(match_indexed(a, b), expected)

    def test_sphere_to_cropped_sphere(self):
        full = gen_shape("sphere-surface", 1024, seed=3)
        partial = PointCloud(full.points[256:])
        assert_same_match(match_indexed(partial, full), match_brute(partial, full))


class TestTreeCache:
    def test_each_cloud_builds_its_tree_once(self, monkeypatch, kd_work):
        # chamfer, evaluate and the reverse match_indexed all take the trees
        # the clouds kept from the first match; every row of a shifted grid
        # ties 4 ways, so the tie passes query the kept trees too
        matches = []

        def recording(x, y):
            matches.append((x, y, match_indexed(x, y)))
            return matches[-1][2]

        monkeypatch.setattr(evaluation, "match_indexed", recording)
        a, b = shifted_grid_pair(32, 28)
        matches.append((a, b, chamfer(a, b, TransformSpec("hyper")).match))
        report = evaluate(a, b)
        matches.append((b, a, match_indexed(b, a)))
        assert sorted(map(id, kd_work.builds)) == sorted([id(a.points), id(b.points)])
        assert len(matches) == 3
        for x, y, got in matches:
            assert_same_match(got, match_brute(x, y))
        assert report == evaluate(PointCloud(a.points), PointCloud(b.points))


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


@pytest.fixture
def bounded_chunks(monkeypatch):
    """For each bounded chunk match_indexed fetches outside a tie pass, in
    call order, the mask of its rows the fetch set."""
    masks, passes = [], []
    fetch, resolve = matching._fetch_ties, matching._resolve_ties

    def in_pass(*args):
        passes.append(args[-1])
        try:
            resolve(*args)
        finally:
            passes.pop()

    def spy(*args):
        done, tied = fetch(*args)
        if not passes:
            masks.append(done.tolist())
        return done, tied

    monkeypatch.setattr(matching, "_resolve_ties", in_pass)
    monkeypatch.setattr(matching, "_fetch_ties", spy)
    return masks


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
        assert_same_match(match_indexed(a, b), match_brute(a, b))

    def test_duplicates_beyond_candidate_count(self):
        rng = np.random.default_rng(15)
        base = snapped_cloud(rng, 40, grid=0.5).points
        repeated = np.repeat(base, _TIE_K + 2, axis=0)
        target = PointCloud(repeated[rng.permutation(len(repeated))])
        queries = PointCloud(np.vstack([base, uniform_cloud(rng, 60).points]))
        assert len(tied_rows(queries, target, _TIE_K)) > 0
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))

    def test_tied_rows_spanning_several_chunks(self):
        a, b = shifted_grid_pair(64, 16)
        assert len(tied_rows(a, b, 2)) > _TIE_CHUNK_ROWS
        assert_same_match(match_indexed(a, b), match_brute(a, b))

    @pytest.mark.parametrize("scale", [1e149, 1e-160])
    def test_scaled_shifted_grid_equals_brute(self, scale):
        # 4-way ties at the largest and a tiny scale, where the tie radii
        # square to subnormals or 0 and the candidates' gathered-column
        # scores must still carry pair_sq's bits
        a, b = shifted_grid_pair(64, 24, scale)
        assert len(tied_rows(a, b, 4)) > _TIE_CHUNK_ROWS
        assert_same_match(match_indexed(a, b), match_brute(a, b))
        assert_same_match(match_indexed(b, a), match_brute(b, a))

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
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))

    def test_duplicates_64_times_take_a_counted_pass(self, tie_passes):
        # every query ties with all 64 copies of its nearest point: the k=2
        # query, the first pass (whose 5th candidate is still a copy) and a
        # second pass sized by the count inside the tie radius
        rng = np.random.default_rng(17)
        base = uniform_cloud(rng, 40).points
        repeated = np.repeat(base, 64, axis=0)
        target = PointCloud(repeated[rng.permutation(len(repeated))])
        queries = PointCloud(np.vstack([base, uniform_cloud(rng, 60).points]))
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        assert tie_passes == [_TIE_K, 65]
        assert_same_match(match_indexed(target, queries), match_brute(target, queries))

    def test_sphere_centre_ties_with_every_target(self, tie_passes):
        target = gen_shape("sphere-surface", 3000, seed=18)
        queries = PointCloud([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        assert tie_passes[-1] > len(target)  # so the last pass fetched all of it

    def test_one_point_target_never_ties(self, tie_passes):
        rng = np.random.default_rng(19)
        target = PointCloud([[0.25, 0.5, 0.75]])
        queries = PointCloud(np.vstack([target.points, uniform_cloud(rng, 50).points]))
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        assert_same_match(match_indexed(target, queries), match_brute(target, queries))
        assert tie_passes == []

    def test_padded_partial_against_sphere(self):
        # 256 points inside the sphere, each repeated 8 times
        rng = np.random.default_rng(20)
        full = gen_shape("sphere-surface", 4096, seed=21)
        base = gen_shape("sphere-surface", 256, seed=22).points * 0.9
        partial = PointCloud(base[rng.permutation(np.resize(np.arange(256), 2048))])
        assert_same_match(match_indexed(full, partial), match_brute(full, partial))
        assert_same_match(match_indexed(partial, full), match_brute(partial, full))

    def test_deep_pass_spanning_several_chunks(self, monkeypatch, tie_passes):
        # 13 rows per first-pass chunk, so the k=65 pass takes one row per chunk
        monkeypatch.setattr(matching, "_TIE_CHUNK_ROWS", 13)
        rng = np.random.default_rng(22)
        base = uniform_cloud(rng, 30).points
        repeated = np.repeat(base, 64, axis=0)
        target = PointCloud(repeated[rng.permutation(len(repeated))])
        queries = PointCloud(np.vstack([base, uniform_cloud(rng, 50).points]))
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        # 80 tied rows in 7 chunks of 13: the first takes the k=2 query and a
        # k=5 pass, and sends its rows on; each later chunk takes a bounded
        # k=5 query, which sends the rows inside its bound straight on. One
        # row of the 6th chunk has a tie radius beyond the bound, so it takes
        # the k=2 query, a k=5 pass and the deep pass after the others
        assert tie_passes == [_TIE_K] + [65] * 6 + [_TIE_K, 65, 65]

    @pytest.mark.parametrize("lift", [100.0, 5e-5])
    def test_bounded_chunk_whose_rows_all_fall_back(self, monkeypatch, bounded_chunks, lift):
        # 4 rows at the centre of a unit square tie 4 ways, so the next chunk
        # of 4 takes one k=5 query bounded just beyond their tie radius. Two
        # more targets lie far from the square, so no list holds all of them.
        # Lifted off the square, the chunk's rows lie beyond the bound (100),
        # or inside it but not inside the list's free (5e-5): none is
        # settled, all take the k=2 path
        monkeypatch.setattr(matching, "_TIE_CHUNK_ROWS", 4)
        corners = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        target = PointCloud(corners + [[0.5, 0.5, 10.0], [0.0, 0.0, 10.0]])
        queries = PointCloud([[0.5, 0.5, 0.0]] * 4 + [[0.5, 0.5, lift]] * 4)
        bound = np.sqrt(0.5) * (1.0 + _TIE_RTOL) ** 3
        d0 = np.sqrt(0.5 + lift * lift)
        assert d0 >= bound * (1.0 - _TIE_RTOL)
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        # the first bounded chunk is the forward one
        assert bounded_chunks[0] == [False] * 4

    def test_bounded_chunk_holding_the_whole_target_settles(self, monkeypatch, bounded_chunks, kd_work):
        # as above, against the 4 corners alone: each list holds the whole
        # target, so nothing lies outside it, and the chunk's rows, inside
        # the bound but not inside bound * (1 - _TIE_RTOL), are settled from
        # their lists with no k=2 query, though their tie radii exceed reach
        monkeypatch.setattr(matching, "_TIE_CHUNK_ROWS", 4)
        lift = 5e-5
        target = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        queries = PointCloud([[0.5, 0.5, 0.0]] * 4 + [[0.5, 0.5, lift]] * 4)
        bound = np.sqrt(0.5) * (1.0 + _TIE_RTOL) ** 3
        d0 = np.sqrt(0.5 + lift * lift)
        assert bound * (1.0 - _TIE_RTOL) <= d0 < bound
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        assert bounded_chunks == [[True] * 4]
        # k=2 only for the first chunk of each direction, 4 rows each
        assert sum(rows for k, rows, _ in kd_work.queries if k == 2) == 8

    def test_bounded_chunks_of_a_shifted_grid_settle_every_row(self, bounded_chunks):
        # the tie radii of a shifted grid differ by rounding alone, so a row's
        # radius can lie ulps above the previous chunk's largest; the bound
        # still fits it, and no row of a bounded chunk falls back
        a, b = shifted_grid_pair(128, 1)
        assert_same_match(match_indexed(a, b), match_brute(a, b))
        assert len(bounded_chunks) > 1 and all(all(mask) for mask in bounded_chunks)

    def test_bounded_chunk_that_sets_every_row_makes_no_empty_query(self, bounded_chunks, kd_work):
        # each bounded chunk of a shifted grid sets all of its rows, which
        # leaves none for the k=2 query
        a, b = shifted_grid_pair(64, 26)
        assert_same_match(match_indexed(a, b), match_brute(a, b))
        assert len(bounded_chunks) > 1 and all(all(mask) for mask in bounded_chunks)
        assert all(rows for _, rows, _ in kd_work.queries)

    @pytest.mark.parametrize("scale", [1.0, 1e-152, 1e-160])
    def test_shifted_grid_work_is_bounded_at_every_scale(self, kd_work, scale):
        # every row of a shifted grid ties 4 ways; below about 1e-150 the
        # distances square to subnormals or 0, where a list settles only
        # once it holds every target within the underflow margin, a few
        # dozen of them. A match fetches a bounded number of candidates per
        # row at every scale, and never climbs towards k = len(T)
        a, b = shifted_grid_pair(32, 27, scale)
        assert_same_match(match_indexed(a, b), match_brute(a, b))
        assert sum(k * rows for k, rows, _ in kd_work.queries) <= 20 * len(a) * _TIE_K

    def test_bounded_chunk_sends_spilled_rows_to_the_counted_pass(self, monkeypatch, tie_passes, kd_work):
        # the corners of a unit square twice over: its centre ties 8 ways,
        # beyond the 5 candidates fetched. In each direction the first chunk
        # takes the k=2 query, a k=5 pass and the counted pass (k=11, capped
        # at the 8 targets, 2 rows a query); the second, bounded, goes from
        # its one k=5 query straight to the counted pass
        monkeypatch.setattr(matching, "_TIE_CHUNK_ROWS", 4)
        corners = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        target = PointCloud(corners * 2)
        queries = PointCloud([[0.5, 0.5, 0.0]] * 8)
        assert_same_match(match_indexed(queries, target), match_brute(queries, target))
        assert tie_passes == [_TIE_K, 11, 11] * 2
        # 16 rows over both directions: each fetched at k=5 once, and only the
        # 4 rows of each first chunk at k=2
        fetched = {k: sum(rows for kk, rows, _ in kd_work.queries if kk == k) for k in (2, _TIE_K)}
        assert fetched == {2: 8, _TIE_K: 16}

    @seed(20261020)
    @settings(max_examples=40, deadline=4000, database=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["grid", "uniform", "copies", "tiny"]), st.integers(1, 30)),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_chunks_switching_k_equal_brute(self, blocks, cloud_seed):
        # 7 rows per chunk, so that tied and untied runs of a drawn mix of
        # blocks switch chunks between the bounded k=5 and the k=2 query:
        # grid rows tie 4 ways with the shifted grid, 8 ways where half of
        # it is doubled; copies of target rows sit at distance 0; tiny rows
        # tie at 1e-155, where the squares are subnormal or 0
        rng = np.random.default_rng(cloud_seed)
        axis = np.arange(8) / 8
        grid = np.stack(np.meshgrid(axis, axis, [0.0], indexing="ij"), -1).reshape(-1, 3)
        shifted = grid + [1 / 16, 1 / 16, 0.0]
        target = np.vstack([shifted, shifted[:32], rng.uniform(0, 1, (20, 3)), shifted * 1e-155])
        target = PointCloud(target[rng.permutation(len(target))])
        make = {
            "grid": lambda n: grid[rng.integers(0, len(grid), n)],
            "uniform": lambda n: rng.uniform(0, 1, (n, 3)),
            "copies": lambda n: target.points[rng.integers(0, len(target), n)],
            "tiny": lambda n: grid[rng.integers(0, len(grid), n)] * 1e-155,
        }
        queries = PointCloud(np.vstack([make[kind](n) for kind, n in blocks]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "_TIE_CHUNK_ROWS", 7)
            assert_same_match(match_indexed(queries, target), match_brute(queries, target))
            assert_same_match(match_indexed(target, queries), match_brute(target, queries))

    @pytest.mark.parametrize("scale", [1e-140, 1e-160, 1e-200, 1e-310])
    def test_tiny_scales_equal_brute(self, scale):
        # tie radii whose squares are subnormal or 0, where a kd query
        # bounded by the radius alone would find no candidate at all
        rng = np.random.default_rng(23)
        a = PointCloud(snapped_cloud(rng, 300, grid=0.25).points * scale)
        b = PointCloud(snapped_cloud(rng, 200, grid=0.25).points * scale)
        assert_same_match(match_indexed(a, b), match_brute(a, b))
        assert_same_match(match_indexed(b, a), match_brute(b, a))

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
        assert_same_match(match_indexed(a, b), match_brute(a, b))


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
        assert_same_match(match_indexed(a, b), match_brute(a, b))
        assert_same_match(match_indexed(b, a), match_brute(b, a))


class TestMatcherAcrossCalls:
    @seed(20261026)
    @settings(max_examples=160, deadline=5000, database=None)
    @given(
        st.sampled_from(["uniform", "shifted lattice", "8 copies", "few points"]),
        st.sampled_from(["translate", "walk", "one point"]),
        st.sampled_from([1e-11, 1e-3, 1e-2, 1e-1]),
        st.sampled_from([1e-160, 1e-155, 1e-149, 1.0, 1e149]),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_each_call_equals_brute(self, layout, motion, step, scale, calls, cloud_seed):
        # axis-aligned translation and a single moving point make the move
        # bounds tight: the L1 move equals the Euclidean one in the first,
        # and the largest move is the only move in the second. Cell centres
        # of the lattice tie with 8 corners and queries at a point copied 8
        # times tie with every copy, more than a candidate list holds; a
        # target of fewer than _TIE_K points pads every list; at 1e-149 a
        # step of 1e-11 moves a point by about 1e-160, whose square
        # underflows; at 1e-160 most squared distances round to 0 and tie
        rng = np.random.default_rng(cloud_seed)
        n, m = (int(k) for k in rng.integers(1, 120, 2))
        points = rng.uniform(0.0, 1.0, (n, 3))
        if layout == "uniform":
            target = rng.uniform(0.0, 1.0, (m, 3))
        elif layout == "shifted lattice":
            axis = np.arange(4.0) / 4.0
            target = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
            points = target[rng.permutation(len(target))] + 0.125
        elif layout == "8 copies":
            base = rng.uniform(0.0, 1.0, (m // 8 + 1, 3))
            target = np.repeat(base, 8, axis=0)[rng.permutation(8 * len(base))]
            points = np.vstack([base, points])
        else:
            target = rng.uniform(0.0, 1.0, (int(rng.integers(1, _TIE_K)), 3))
        target = PointCloud(target * scale)
        matcher = matching._Matcher(target)
        returned = []
        for _ in range(calls):
            cloud = PointCloud(points * scale)
            expected = match_brute(cloud, target)
            returned.append((matcher.match(cloud), expected))
            assert_same_match(*returned[-1])
            if motion == "translate":
                points = points + np.eye(3)[rng.integers(3)] * step
            elif motion == "walk":
                points = points + rng.uniform(-step, step, points.shape)
            else:
                points = points.copy()
                points[rng.integers(len(points))] += rng.uniform(-step, step, 3)
        # a later call must not change what an earlier one returned
        for got, expected in returned:
            assert_same_match(got, expected)

    @seed(20261102)
    @settings(max_examples=150, deadline=2000, database=None)
    @given(
        st.sampled_from([1e-320, 1e-160, 1.0, 1e149]),
        st.sampled_from([1.0, 1e-3, 1e-9, 0.0]),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_move_bound_never_below_the_move(self, scale, step, n, cloud_seed):
        # subnormal coordinates, moves whose squares underflow, moves along
        # one axis (where the L1 and Euclidean moves agree) and rows that do
        # not move; the move is taken exactly, from the coordinates' values
        rng = np.random.default_rng(cloud_seed)
        prev = rng.uniform(-1.0, 1.0, (n, 3)) * scale
        delta = rng.uniform(-1.0, 1.0, (n, 3)) * (step * scale)
        delta[rng.random(n) < 0.3, 1:] = 0.0
        A = prev + delta
        bound = matching._move_bound(A, prev)
        # the L1 term, summed by coordinate, must carry the bits of the
        # length-3 reduction
        l1 = np.abs(A - prev).sum(axis=1)
        reference = np.minimum(np.sqrt(pair_sq(A, prev)) + 1e-160, l1) * (1.0 + 1e-15)
        assert bound.tobytes() == reference.tobytes()
        for row in range(n):
            move_sq = sum((Fraction(x) - Fraction(p)) ** 2 for x, p in zip(A[row], prev[row]))
            assert Fraction(bound[row]) ** 2 >= move_sq

    def test_rescoring_in_several_chunks(self, monkeypatch):
        # 7 rows per chunk, so the lists of 300 walking points are rescored
        # over many chunks; every 5th point jumps past its list's radius, so
        # the rows a chunk scores are not a contiguous run of the stale ones
        monkeypatch.setattr(matching, "_TIE_CHUNK_ROWS", 7)
        rng = np.random.default_rng(27)
        target = uniform_cloud(rng, 250)
        points = rng.uniform(0.0, 1.0, (300, 3))
        step = np.where(np.arange(300) % 5 == 0, 0.3, 0.02)[:, None]
        matcher = matching._Matcher(target)
        for _ in range(6):
            cloud = PointCloud(points)
            assert_same_match(matcher.match(cloud), match_brute(cloud, target))
            points = points + rng.uniform(-1.0, 1.0, points.shape) * step

    def test_keep_rule_floor(self):
        # below about 1.5e-154 squared distances are subnormal: the point's
        # squares to the two targets are 3 and 5 units of 5e-324, so lo - move
        # stays above hi + move after a step of 3e-163, yet both squares are
        # then 4 units, a tie that goes to target 0; only the keep test's
        # underflow margin stops the row keeping target 1
        target = PointCloud([[9e-162, 0.0, 0.0], [0.0, 0.0, 0.0]])
        matcher = matching._Matcher(target)
        for x, nearest in ((4e-162, 1), (4.3e-162, 0)):
            cloud = PointCloud([[x, 0.0, 0.0]])
            got = matcher.match(cloud)
            assert_same_match(got, match_brute(cloud, target))
            assert got.fwd_idx.tolist() == [nearest]

    def test_keep_rule_takes_the_underflow_margin_twice(self):
        # u = 2**-1074. Target 1 lies at (-a, -a, -a), each square just
        # under u/2, and target 0 at (b, b, b), each square just over 1.5 u,
        # so from the origin they square to 0 and 6 u. A step of 9e-165
        # along the diagonal rounds every square the other way, to 3 u for
        # both targets, a tie that goes to target 0. hi grew from 0 and lo
        # fell from sqrt(6 u), about 5.4e-162, by the step alone: a margin
        # of _UNDERFLOW_ATOL, once, keeps target 1; only twice that sends
        # the point to its list
        u = 2.0**-1074
        a = np.sqrt(u) / np.sqrt(2.0) * (1.0 - 1e-3)
        b = np.sqrt(u) * np.sqrt(1.5) * (1.0 + 1e-3)
        target = PointCloud([[b, b, b], [-a, -a, -a]])
        matcher = matching._Matcher(target)
        for x, nearest in ((0.0, 1), (9e-165, 0)):
            cloud = PointCloud([[x, x, x]])
            got = matcher.match(cloud)
            assert_same_match(got, match_brute(cloud, target))
            assert got.fwd_idx.tolist() == [nearest]
        assert got.fwd_sq.tolist() == [3 * u]

    def test_runner_up_capped_by_list_radius(self):
        # the point's list holds its 5 nearest targets, one ahead at 0.35 and
        # four behind, out to r = 0.4; the 6th target lies ahead at 0.401.
        # After a step of 0.2 the list still settles the point, but its
        # runner-up in the list is 0.56 away while the 6th target may be only
        # r - 0.2 away, so the point may not keep its match through the next
        # step of 0.2, which takes it past the 6th target
        target = PointCloud([[x, 0.0, 0.0] for x in (0.35, -0.36, -0.37, -0.38, -0.4, 0.401)])
        matcher = matching._Matcher(target)
        for x in (0.0, 0.2, 0.4):
            cloud = PointCloud([[x, 0.0, 0.0]])
            assert_same_match(matcher.match(cloud), match_brute(cloud, target))
        assert matcher.match(cloud).fwd_idx.tolist() == [5]

    def test_free_margin_covers_moves_lost_to_rounding(self):
        # the point's list holds four near targets and one ahead at about
        # 1.5, just off the axis; the 6th target lies on the axis, 2e-15
        # farther. 100 steps of 1e-16 toward it each round free back to the
        # same double, then one step brings the point within 1e-6 of the 6th
        # target, which is then about 3e-15 nearer than the listed one.
        # free, after that cancellation, lies about 1e-14 above its exact
        # value and above both distances; only free's margin of 1.5e-9,
        # fixed at the query, keeps the list from settling the point
        near = [[0.01, y, 0.0] for y in (0.1, 0.2, 0.3, 0.4)]
        target = PointCloud(near + [[1.51 - 2e-15, 1e-10, 0.0], [1.51, 0.0, 0.0]])
        matcher = matching._Matcher(target)
        for i, x in enumerate([*(0.01 + 1e-16 * np.arange(101)), 1.51 - 1e-6]):
            cloud = PointCloud([[x, 0.0, 0.0]])
            got = matcher.match(cloud)
            assert_same_match(got, match_brute(cloud, target))
            if i == 0:
                assert matcher._fwd.cand[:, 0].tolist() == [0, 1, 2, 3, 4]
        assert got.fwd_idx.tolist() == [5]

    def test_keep_margin_covers_moves_lost_to_rounding(self):
        # the point starts 1e-14 nearer target 0 than target 1, both about
        # 1.5 away, and steps 100 times by 1e-16 toward target 1, which ends
        # 1e-14 nearer. Each step rounds hi + move and lo - move back to the
        # same doubles, so hi < lo holds throughout; only the keep test's
        # margin sends the point to its list
        target = PointCloud([[-(1.5 - 5e-15), 0.0, 0.0], [1.5 + 5e-15, 0.0, 0.0]])
        matcher = matching._Matcher(target)
        for x in 1e-16 * np.arange(101):
            cloud = PointCloud([[x, 0.0, 0.0]])
            got = matcher.match(cloud)
            assert_same_match(got, match_brute(cloud, target))
        assert got.fwd_idx.tolist() == [1]


@seed(20261104)
@settings(max_examples=150, stateful_step_count=12, deadline=5000, database=None)
class MatcherMoves(RuleBasedStateMachine):
    """One _Matcher against one target through any sequence of moves.

    After every call the result equals match_brute's bit for bit, and no
    earlier result has changed. Lattice cell centres and 3 copies of each
    target point tie; a target of fewer than _TIE_K points pads every
    list; at 1e-160 squared distances are subnormal or 0, and at 1e149
    they reach about 1e299.
    """

    @initialize(
        layout=st.sampled_from(["uniform", "shifted lattice", "3 copies", "few points"]),
        scale=st.sampled_from([1e-160, 1.0, 1e149]),
        cloud_seed=st.integers(0, 2**32 - 1),
    )
    def build(self, layout, scale, cloud_seed):
        self.rng = rng = np.random.default_rng(cloud_seed)
        n, m = (int(k) for k in rng.integers(1, 60, 2))
        points, target = rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (m, 3))
        if layout == "shifted lattice":
            axis = np.arange(4.0) / 2.0 - 1.0
            target = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
            points = target[rng.permutation(len(target))] + 0.25
        elif layout == "3 copies":
            target = target[rng.permutation(np.resize(np.arange(m), 3 * m))]
        elif layout == "few points":
            target = target[: rng.integers(1, _TIE_K)]
        self.target = PointCloud(target * scale)
        self.points = points * scale
        self.matcher = matching._Matcher(self.target)
        self.returned = []
        self.match()

    def match(self):
        cloud = PointCloud(self.points)
        self.returned.append((self.matcher.match(cloud), match_brute(cloud, self.target)))
        for got, expected in self.returned:
            assert_same_match(got, expected)

    def move(self, rows, to):
        self.points = self.points.copy()
        self.points[rows] = np.clip(to, -MAX_ABS_COORD, MAX_ABS_COORD)
        self.match()

    @rule(
        share=st.sampled_from([0.1, 0.5, 1.0]),
        step=st.sampled_from([1e-15, 1e-9, 1e-3, 0.3]),
        along_axis=st.booleans(),
    )
    def translate(self, share, step, along_axis):
        # along an axis the L1 move equals the Euclidean one, so the move
        # bound is tight; steps are relative to the cloud's extent
        rows = self.rng.random(len(self.points)) < share
        v = np.eye(3)[self.rng.integers(3)] if along_axis else self.rng.uniform(-1.0, 1.0, 3)
        self.move(rows, self.points[rows] + v * (step * np.abs(self.points).max()))

    @rule(onto=st.sampled_from(["target", "cloud"]), count=st.integers(1, 6))
    def snap(self, onto, count):
        # onto a target point, a distance of 0 that ties with its copies,
        # or onto another row, which the backward direction sees as a tie
        source = self.target.points if onto == "target" else self.points
        rows = self.rng.integers(0, len(self.points), count)
        self.move(rows, source[self.rng.integers(0, len(source), count)])

    @rule(past=st.booleans(), margin=st.sampled_from([1e-15, 1e-9, 1e-3]))
    def jump(self, past, margin):
        # toward the nearest target outside the row's candidate list, by
        # its distance r (the list radius) times 1 + margin or 1 - margin,
        # so an unlisted target becomes the row's nearest or nearly so;
        # where the list holds every target, toward the farthest of them
        row = int(self.rng.integers(len(self.points)))
        p, T = self.points[row], self.target.points
        outside = np.setdiff1d(np.arange(len(T)), self.matcher._fwd.cand[:, row])
        dist = np.sqrt(pair_sq(T, np.broadcast_to(p, T.shape)))
        j = outside[dist[outside].argmin()] if len(outside) else dist.argmax()
        self.move([row], p + (T[j] - p) * (1.0 + margin if past else 1.0 - margin))

    @rule(size=st.sampled_from([1e-160, 1e149]), spread=st.sampled_from([1.0, 0.5]))
    def rescale(self, size, spread):
        # the whole cloud shrinks or grows to an extent near size
        extent = np.abs(self.points).max()
        if extent:
            self.move(slice(None), self.points / extent * (size * spread))
        else:
            self.match()

    @rule()
    def stay(self):
        self.match()


TestMatcherMoves = MatcherMoves.TestCase


class TestCoordinateRange:
    def test_limit_is_accepted_and_agrees(self):
        a = PointCloud([[MAX_ABS_COORD, 0, 0], [0, 0, 0]])
        b = PointCloud([[-MAX_ABS_COORD, -MAX_ABS_COORD, -MAX_ABS_COORD], [1, 1, 1]])
        m = match_indexed(a, b)
        assert_same_match(m, match_brute(a, b))
        assert np.isfinite(m.fwd_sq).all() and np.isfinite(m.bwd_sq).all()

    @pytest.mark.parametrize("big", [1e200, -1e155, 2 * MAX_ABS_COORD])
    def test_beyond_limit_rejected_by_both(self, big):
        # neither matcher can be handed such a cloud: it cannot be built
        with pytest.raises(ValueError, match="supported"):
            PointCloud([[big, 0, 0], [0, 0, 0]])

