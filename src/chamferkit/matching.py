"""Bidirectional nearest-neighbor matching between two clouds.

Two interchangeable routes: an exhaustive O(n*m) scan and a kd-tree
accelerated one. Both break distance ties toward the smallest target
index and store squared distances computed with the same arithmetic,
one coordinate at a time in the order (dx*dx + dy*dy) + dz*dz, so their
results are bit-identical; tests hold them to that.

The accelerated route builds a sliding-midpoint kd-tree on each cloud
and queries the rows of one cloud in the leaf order of its own tree, so
consecutive queries descend to neighbouring leaves of the other.

The kd-tree does not order equidistant candidates by index, so the
accelerated route re-resolves every query whose two nearest candidates
are (nearly) tied. It does so in bulk: one k = _TIE_K query per chunk of
tied rows, bounded by the chunk's largest tie radius, with the exact
minimum taken over all candidates at once. Rows whose k-th candidate
still lies inside the tie radius, where more candidates may tie beyond
it, go through the same pass again with a larger k, sized from a count
of the targets inside that radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, pair_sq

_CHUNK_BYTES = 1 << 21  # scratch budget per brute-force row chunk, about L2 size

# A query whose runner-up lies within its tie radius d0 * (1 + _TIE_RTOL),
# d0 its nearest distance, is a potential tie and is re-resolved exactly.
_TIE_RTOL = 1e-9

# Candidates fetched per tied query in the first tie pass. A plane grid
# queried from its half-spacing shift ties 4 ways, so all of the first 4
# candidates can sit inside the tie radius; a 5th outside it proves that
# no further candidate ties. Rows whose 5th candidate is inside as well
# (8-way ties of a shifted 3-D lattice, duplicates) take another pass.
_TIE_K = 5
# Tied rows re-queried at once in the first pass; passes with a larger k
# take proportionally fewer, so the (k, rows) scratch stays this size.
_TIE_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class MatchResult:
    """Nearest-neighbor correspondence in both directions.

    fwd_idx[j] is the index in b of the point nearest to a[j] (smallest
    index on exact ties) and fwd_sq[j] its squared Euclidean distance;
    bwd_* is the same with the clouds swapped. Squared distance is the
    canonical stored quantity; callers take square roots when they need
    the raw distance.
    """

    fwd_idx: np.ndarray
    fwd_sq: np.ndarray
    bwd_idx: np.ndarray
    bwd_sq: np.ndarray


def match_brute(a: PointCloud, b: PointCloud) -> MatchResult:
    """Exhaustive matching; the reference the accelerated route is held to."""
    return MatchResult(*_argmin_both(a.points, b.points))


def _argmin_both(A: np.ndarray, B: np.ndarray, score=None):
    """Chunked two-way argmin over all pairs of rows of A and B.

    Minimizes the canonical squared distances, or score(sq, rows) of
    them when given, where rows is the slice of A the chunk covers;
    score may overwrite sq in place. Returns (fwd_idx, fwd_min, bwd_idx,
    bwd_min); ties go to the lowest index in both directions.

    Each chunk's (rows, m) squared distances are summed one coordinate at
    a time, (dx*dx + dy*dy) + dz*dz, the order pair_sq sums in,
    so they carry the same bits; chunks are sized to stay in cache. A
    column's argmin over the chunk is taken only where the chunk lowers
    that column's minimum, which after the first chunks is a small share.
    """
    n, m = len(A), len(B)
    fwd_idx = np.empty(n, dtype=np.int64)
    fwd_min = np.empty(n)
    bwd_idx = np.zeros(m, dtype=np.int64)
    bwd_min = np.full(m, np.inf)
    Bt = np.ascontiguousarray(B.T)
    chunk = max(1, _CHUNK_BYTES // (m * 3 * 8))
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        a = A[rows]
        val = np.subtract.outer(a[:, 0], Bt[0])
        val *= val
        d = np.subtract.outer(a[:, 1], Bt[1])
        d *= d
        val += d
        np.subtract.outer(a[:, 2], Bt[2], out=d)
        d *= d
        val += d
        if score is not None:
            val = score(val, rows)
        idx = val.argmin(axis=1)  # argmin takes the first (lowest) index on ties
        fwd_idx[rows] = idx
        fwd_min[rows] = val[np.arange(len(idx)), idx]
        col_min = val.min(axis=0)
        # strict, so earlier (lower) rows keep ties; the argmin runs over the
        # improved columns only, as it costs a call per column
        better = np.flatnonzero(col_min < bwd_min)
        bwd_idx[better] = val[:, better].argmin(axis=0) + start
        bwd_min[better] = col_min[better]
    return fwd_idx, fwd_min, bwd_idx, bwd_min


def match_indexed(a: PointCloud, b: PointCloud) -> MatchResult:
    """Spatial-index matching, index-exact with match_brute.

    The index does not promise any tie order, so queries whose two
    nearest distances are not clearly separated are re-resolved exactly:
    in bulk from their _TIE_K nearest candidates, and again from more
    candidates for rows where even the last one fetched is tied. All
    squared distances are recomputed from the chosen indices with the
    canonical arithmetic.
    """
    # imported on the first kd build: scipy takes longer to import than
    # the rest of the package, and only this route needs it
    from scipy.spatial import cKDTree

    # sliding-midpoint splits build in about half the time of median
    # splits; each tree's leaf order also orders its own cloud's queries
    tree_a = cKDTree(a.points, balanced_tree=False)
    tree_b = cKDTree(b.points, balanced_tree=False)
    order_b = tree_b.indices
    fwd_idx, fwd_sq = _indexed_nearest(tree_b, a.points, b.points, tree_a.indices)
    del tree_b  # not needed by the backward pass; lowers the peak memory
    bwd_idx, bwd_sq = _indexed_nearest(tree_a, b.points, a.points, order_b)
    return MatchResult(fwd_idx, fwd_sq, bwd_idx, bwd_sq)


def _indexed_nearest(tree, Q, T, order):
    """Nearest row of T, by tree (built on T), for every row of Q.

    Rows are queried in the given order, a permutation of Q's rows; the
    results do not depend on it.
    """
    # a one-point target reports its missing runner-up at distance inf,
    # so none of its rows reads as tied
    dist, idx = tree.query(Q[order], k=2)
    best = np.empty(len(Q), dtype=np.int64)
    best[order] = idx[:, 0]
    # a runner-up inside the tie radius marks an exact tie or a near-tie the
    # tree may have ordered by its own rounding; 1e-9 is far above kd error
    radii = dist[:, 0] * (1.0 + _TIE_RTOL)
    ambiguous = np.flatnonzero(dist[:, 1] <= radii)
    del dist, idx
    if len(ambiguous):
        _resolve_ties(tree, Q, T, order[ambiguous], radii[ambiguous], best, _TIE_K)
    return best, pair_sq(Q, T[best])


def _resolve_ties(tree, Q, T, queries, radii, best, k):
    """Set best[q], for each tied query q, to the lowest index among its
    exact nearest targets, taken from its k nearest candidates.

    radii[i] is the tie radius d0 * (1 + _TIE_RTOL) of queries[i], d0 its
    nearest distance. Candidates within it contain every exact minimizer,
    since kd arithmetic errs far less than _TIE_RTOL, so each chunk's
    query stops at its largest tie radius. Rows whose k-th candidate is
    inside that radius may tie beyond it and are resolved again with a
    larger k; k grows at least to 2k + 1 each time, so the passes end
    once k reaches len(T).
    """
    k = min(k, len(T))
    chunk = max(1, _TIE_CHUNK_ROWS * _TIE_K // k)
    for start in range(0, len(queries), chunk):
        rows = queries[start : start + chunk]
        r = radii[start : start + chunk]
        # scipy keeps candidates whose squared distance is strictly below
        # the squared bound: the margin keeps each row's radius inside it,
        # and the floor keeps it above 0 where d0 is 0 or its square
        # underflows
        bound = max(float(r.max()) * (1.0 + _TIE_RTOL), 1e-150)
        q = Q[rows]
        dist, idx = tree.query(q, k=k, distance_upper_bound=bound)
        # scored candidate-major, (k, rows), one coordinate at a time in
        # pair_sq's order, so that the reductions over candidates run along
        # contiguous rows; candidates beyond the bound come back as index
        # len(T)
        j = np.minimum(idx.T, len(T) - 1, order="C")
        sq = q[:, 0] - T[:, 0][j]
        sq *= sq
        for c in (1, 2):
            d = q[:, c] - T[:, c][j]
            d *= d
            sq += d
        inside = np.less_equal(dist.T, r, order="C")
        sq[~inside] = np.inf
        # every exact minimizer is inside the radius, where j equals idx
        j[sq != sq.min(axis=0)] = len(T)
        best[rows] = j.min(axis=0)
        spill = inside[-1]
        if k < len(T) and spill.any():
            count = tree.query_ball_point(q[spill], r[spill], return_length=True)
            _resolve_ties(
                tree, Q, T, rows[spill], r[spill], best, max(int(count.max()) + 1, 2 * k + 1)
            )
