"""Bidirectional nearest-neighbor matching between two clouds.

Two interchangeable routes: an exhaustive O(n*m) scan and a kd-tree
accelerated one. Both break distance ties toward the smallest target
index and store squared distances computed with the same arithmetic
(((a - b)**2).sum(-1)), so their results are bit-identical; tests hold
them to that.

The kd-tree does not order equidistant candidates by index, so the
accelerated route re-resolves every query whose two nearest candidates
are (nearly) tied. It does so in bulk: one k = _TIE_K query per chunk of
tied rows, with the exact minimum taken over all candidates at once.
Only rows whose _TIE_K-th candidate still lies inside the tie radius,
where more candidates may tie beyond it, fall back to a per-row ball
query.

Both routes accept coordinates up to MAX_ABS_COORD in magnitude, so
that every squared distance between two points is finite; clouds
outside that range are rejected with ValueError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud

WORKERS_ENV_VAR = "CHAMFERKIT_WORKERS"

# Largest supported |coordinate|. Two points within it are at most
# sqrt(12) * MAX_ABS_COORD apart, so squared distances stay below 1.2e301,
# far from float64 overflow (1.8e308); beyond about 3.9e153 they overflow
# to inf and the kd-tree reports no neighbor at all.
MAX_ABS_COORD = 1e150

_CHUNK_BYTES = 1 << 26  # scratch budget per brute-force row chunk

# Relative gap below which the two nearest kd-tree candidates are treated
# as a potential tie and re-resolved exactly.
_TIE_RTOL = 1e-9

# Candidates fetched per tied query in the bulk tie pass. A plane grid
# queried from its half-spacing shift ties 4 ways, so all of the first 4
# candidates can sit inside the tie radius; a 5th outside it proves that
# no further candidate ties. Rows whose 5th candidate is inside as well
# (8-way ties of a shifted 3-D lattice, duplicates) take the ball query.
_TIE_K = 5
# Tied rows re-queried at once; bounds the (rows, _TIE_K, 3) scratch.
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


def pair_sq(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Canonical squared distance between aligned rows of two (N, 3) arrays."""
    diff = points_a - points_b
    return (diff * diff).sum(axis=-1)


def resolve_workers(workers: int | None = None) -> int:
    """Worker-thread count for the accelerated route.

    Explicit argument wins, then the CHAMFERKIT_WORKERS environment
    variable, then 1. -1 means all cores (passed through to the index).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    if workers == 0 or workers < -1:
        raise ValueError(f"workers must be a positive count or -1, got {workers}")
    return workers


def _check_range(a: PointCloud, b: PointCloud) -> None:
    for name, cloud in (("first", a), ("second", b)):
        pts = cloud.points
        largest = max(pts.max(), -pts.min())
        if largest > MAX_ABS_COORD:
            raise ValueError(
                f"{name} cloud has a coordinate of magnitude {largest:.6g}, "
                f"beyond the supported {MAX_ABS_COORD:g}"
            )


def match_brute(a: PointCloud, b: PointCloud) -> MatchResult:
    """Exhaustive matching; the reference the accelerated route is held to.

    Raises ValueError if a coordinate exceeds MAX_ABS_COORD in magnitude.
    """
    _check_range(a, b)
    return MatchResult(*_argmin_both(a.points, b.points))


def _argmin_both(A: np.ndarray, B: np.ndarray, score=None):
    """Chunked two-way argmin over all pairs of rows of A and B.

    Minimizes the canonical squared distances, or score(sq, rows) of
    them when given, where rows is the slice of A the chunk covers.
    Returns (fwd_idx, fwd_min, bwd_idx, bwd_min); ties go to the lowest
    index in both directions.
    """
    n, m = len(A), len(B)
    fwd_idx = np.empty(n, dtype=np.int64)
    fwd_min = np.empty(n)
    bwd_idx = np.zeros(m, dtype=np.int64)
    bwd_min = np.full(m, np.inf)
    chunk = max(1, _CHUNK_BYTES // (m * 3 * 8))
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        diff = A[rows, None, :] - B[None, :, :]
        val = (diff * diff).sum(axis=2)
        if score is not None:
            val = score(val, rows)
        idx = val.argmin(axis=1)  # argmin takes the first (lowest) index on ties
        fwd_idx[rows] = idx
        fwd_min[rows] = val[np.arange(len(idx)), idx]
        col_min = val.min(axis=0)
        col_idx = val.argmin(axis=0) + start
        better = col_min < bwd_min  # strict, so earlier (lower) rows keep ties
        bwd_idx[better] = col_idx[better]
        bwd_min[better] = col_min[better]
    return fwd_idx, fwd_min, bwd_idx, bwd_min


def match_indexed(a: PointCloud, b: PointCloud, workers: int | None = None) -> MatchResult:
    """Spatial-index matching, index-exact with match_brute.

    The index does not promise any tie order, so queries whose two
    nearest distances are not clearly separated are re-resolved exactly:
    in bulk from their _TIE_K nearest candidates, falling back to a ball
    query for rows where even the _TIE_K-th candidate is tied. All
    squared distances are recomputed from the chosen indices with the
    canonical arithmetic. Raises ValueError if a coordinate exceeds
    MAX_ABS_COORD in magnitude, as match_brute does.
    """
    _check_range(a, b)
    w = resolve_workers(workers)
    fwd_idx, fwd_sq = _indexed_nearest(a.points, b.points, w)
    bwd_idx, bwd_sq = _indexed_nearest(b.points, a.points, w)
    return MatchResult(fwd_idx, fwd_sq, bwd_idx, bwd_sq)


def _indexed_nearest(Q: np.ndarray, T: np.ndarray, workers: int):
    tree = cKDTree(T)
    k = min(2, len(T))
    dist, idx = tree.query(Q, k=k, workers=workers)
    if k == 1:
        best = np.zeros(len(Q), dtype=np.int64)  # single candidate, nothing to break
    else:
        best = idx[:, 0].astype(np.int64)
        gap = dist[:, 1] - dist[:, 0]
        # catches exact ties (gap 0) and near-ties the tree may have ordered
        # by its own rounding; 1e-9 is far above kd arithmetic error
        ambiguous = gap <= _TIE_RTOL * dist[:, 0]
        if ambiguous.any():
            _resolve_ties(tree, Q, T, np.flatnonzero(ambiguous), best, workers)
    return best, pair_sq(Q, T[best])


def _resolve_ties(tree, Q, T, queries, best, workers):
    """Set best[q], for each tied query q, to the lowest index among its
    exact nearest targets.

    Candidates within the tie radius d0 * (1 + _TIE_RTOL) contain every
    exact minimizer, since kd arithmetic errs far less than _TIE_RTOL.
    """
    k = min(_TIE_K, len(T))
    for start in range(0, len(queries), _TIE_CHUNK_ROWS):
        rows = queries[start : start + _TIE_CHUNK_ROWS]
        dist, idx = tree.query(Q[rows], k=k, workers=workers)
        radii = dist[:, 0] * (1.0 + _TIE_RTOL)
        inside = dist <= radii[:, None]
        sq = np.where(inside, pair_sq(Q[rows, None, :], T[idx]), np.inf)
        exact = sq == sq.min(axis=1, keepdims=True)
        best[rows] = np.where(exact, idx, len(T)).min(axis=1)
        spill = inside[:, -1]
        if spill.any():
            hits = tree.query_ball_point(Q[rows[spill]], radii[spill], workers=workers)
            for q, cand in zip(rows[spill], hits):
                cand = np.asarray(cand, dtype=np.int64)
                sq_q = pair_sq(Q[q], T[cand])
                best[q] = cand[sq_q == sq_q.min()].min()
