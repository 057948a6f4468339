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
of the targets inside that radius. Ties cluster in leaf order, so after
a chunk of rows more than half tied the next chunk takes that query
directly, bounded just beyond the chunk's largest tie radius; a row
whose own radius, with the margin, lies inside the bound had every
candidate within it fetched and is settled from them.

fit matches a slowly moving cloud against one fixed target every epoch,
through one private matcher. It builds the target's tree once and
keeps, for every row in each direction, its chosen index idx, its
candidate list (the _TIE_K nearest targets of its last kd query) and
three running bounds: hi, an upper bound on the distance to idx; lo, a
lower bound on the distance to every other target; and free, a lower
bound on the distance to every target outside the list. Each call
moves a row by at most its move bound: for a row of the moving cloud a
bound on its Euclidean move, never below it even where the squares
underflow, and for a row of the target the largest such move of any
point. By the triangle inequality the call adds the bound to hi and
subtracts it from lo and free, and the three stay bounds. A kd query
sets them from its distances, which err by a rounding far below
_TIE_RTOL; every test on them allows that margin.

A row with hi * (1 + _TIE_RTOL) < lo and lo >= 1e-150 has a unique
nearest point, outside every tie radius, and it is the one match_brute
returns: the row keeps its index without any work.

Every other row is rescored from its candidate list, scored exactly in
pair_sq's arithmetic. Where the list's best distance d has
d * (1 + _TIE_RTOL) < free and free >= 1e-150, so that outside points
square to normal numbers and cannot tie with d by underflow, every
exact minimizer is in the list and its lowest index is match_brute's.
The row takes it, with hi = d and lo the lesser of the runner-up in the
list and free. Only rows whose list fails are queried again, once, at
k = _TIE_K: the query gives a row its fresh list, with free its _TIE_K-th
kd distance times 1 - _TIE_RTOL, its kd nearest, and hi and lo its two
nearest kd distances. A tied row is rescored from that list, and one
the list cannot settle (more than _TIE_K near-ties, or distances below
1e-150) goes through the tie pass above. The moving cloud's tree is
built only when some target row needs a query. Squared distances are
recomputed for all rows, so a warm-started match carries the bits of a
fresh one.
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
    candidates for rows where even the last one fetched is tied. A
    leaf-order chunk after a mostly tied one is fetched at _TIE_K within
    that chunk's largest tie radius, which settles each row whose own
    radius fits the bound, as its tied candidates were all fetched. All
    squared distances are recomputed from the chosen indices with the
    canonical arithmetic.
    """
    return _Matcher(b).match(a, last=True)


def _kd_tree(points):
    # imported on the first kd build: scipy takes longer to import than
    # the rest of the package, and only this route needs it
    from scipy.spatial import cKDTree

    # sliding-midpoint splits build in about half the time of median
    # splits; each tree's leaf order also orders its own cloud's queries
    return cKDTree(points, balanced_tree=False)


class _Matcher:
    """match_indexed for successive states of one cloud against one target.

    Built once per target, whose kd-tree it keeps. The first call queries
    every row; each later call settles most rows without a query (see
    _Rows.settle) and queries only the rest.
    """

    def __init__(self, target: PointCloud):
        self._target = target.points
        self._tree = _kd_tree(self._target)
        self._target_order = self._tree.indices
        self._cloud = None  # the points of the last call
        self._order = None  # the leaf order of the last tree built on them
        self._fwd = self._bwd = None  # each direction's _Rows, made by the first call

    def match(self, cloud: PointCloud, last: bool = False) -> MatchResult:
        """match_indexed(cloud, target).

        last: no call follows, so nothing is recorded for one, and the
        target's tree is dropped before the backward pass, which keeps a
        one-shot match's peak memory that of two trees.
        """
        A, T = cloud.points, self._target
        if self._cloud is None:
            self._fwd, self._bwd = _Rows(len(A), len(T), not last), _Rows(len(T), len(A), not last)
        else:
            move = _move_bound(A, self._cloud)
            self._fwd.moved(move)
            # a target row's distances move by at most the largest move
            self._bwd.moved(move.max())
        self._cloud = A
        bwd_order = self._bwd.settle(T, A, self._target_order)
        tree = None
        if len(bwd_order):
            tree = _kd_tree(A)
            self._order = tree.indices
        self._fwd.requery(self._tree, A, T, self._fwd.settle(A, T, self._order))
        fwd_idx = self._fwd.idx
        fwd_sq = pair_sq(A, T.take(fwd_idx, axis=0))
        if last:
            self._tree = None
        if tree is not None:
            self._bwd.requery(tree, T, A, bwd_order)
        bwd_idx = self._bwd.idx
        return MatchResult(fwd_idx, fwd_sq, bwd_idx, pair_sq(T, A.take(bwd_idx, axis=0)))


def _move_bound(A: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """A bound on each row's Euclidean move from prev to A, never below it.

    Rounding leaves the computed norm a few ulps below the true move, and
    a square that underflows at most 3e-162 below it; the floor and the
    factor cover both. The L1 norm, which cannot underflow, caps the
    bound, so a row that did not move has moved 0.
    """
    euclid = np.sqrt(pair_sq(A, prev)) + 1e-160
    d = np.abs(A - prev)
    # the order, and so the bits, of d.sum(axis=1)
    return np.minimum(euclid, (d[:, 0] + d[:, 1]) + d[:, 2]) * (1.0 + 1e-15)


class _Rows:
    """One direction's record of its queries, one entry per query row.

    idx is the row's nearest target. Recorded for a later call: cand, the
    _TIE_K candidates of its last kd query, candidate-major, and three
    running bounds on its distances, kept valid under every move (see
    moved): hi, an upper bound on the distance to idx; lo, a lower bound
    on the distance to every other target; and free, a lower bound on
    the distance to every target outside cand.
    """

    def __init__(self, n: int, m: int, record: bool):
        # allocated by the first query, which takes every row: a one-shot
        # match then holds no backward array through its forward pass
        self.idx = None
        self.record = record
        if record:
            # int32 holds the index of each of m targets and the padding index m
            self.cand = np.zeros((_TIE_K, n), dtype=np.int32 if m < 2**31 else np.int64)
            self.hi = np.full(n, np.inf)  # never queried: stale, as inf < inf fails
            self.lo = np.full(n, np.inf)
            self.free = np.zeros(n)  # no list yet: below 1e-150

    def moved(self, move):
        """Widen the bounds by move, per row or one bound for all rows."""
        self.hi += move
        self.lo -= move
        self.free -= move
        # earlier results hold the old idx, so this call's changes go to a copy
        self.idx = self.idx.copy()

    def settle(self, Q, T, order):
        """Settle the rows of Q in order that need no kd query against T;
        return the rest, in order.

        A row keeps idx where it cannot have changed (_Rows.stale) and is
        rescored from its candidate list where the list is shown to hold
        its nearest point (_Rows.rescore). Without a record no row is
        settled.
        """
        if not self.record:
            return order
        rows = self.stale(order)
        return rows[~self.rescore(Q, T, rows)]

    def stale(self, order: np.ndarray) -> np.ndarray:
        """The rows in order whose nearest target may differ from idx.

        idx is at most hi away and every other target at least lo, so where
        hi(1 + _TIE_RTOL) < lo a row's nearest target is unique, lies
        outside every tie radius and is match_brute's. Below lo = 1e-150
        distances lose their relative accuracy.
        """
        keep = self.hi * (1.0 + _TIE_RTOL) < self.lo
        keep &= self.lo >= 1e-150
        return order[~keep[order]]

    def rescore(self, Q, T, rows):
        """Match the rows of Q listed in rows from their candidate lists;
        return a mask over rows of those the lists settled.

        Every target outside the list is at least free away. Where the
        list's best exact distance d has d(1 + _TIE_RTOL) < free, every
        exact minimizer is in the list, which then gives match_brute's
        index; the row's hi becomes d and its lo the lesser of the list's
        runner-up and free. At or above free = 1e-150 outside squares are
        normal numbers, so no outside point ties with d by underflow.
        """
        free = self.free[rows]
        ok = free >= 1e-150
        listed = np.flatnonzero(ok)
        # in chunks, so that the (_TIE_K, rows) scratch stays a tie pass's size
        for start in range(0, len(listed), _TIE_CHUNK_ROWS):
            at = listed[start : start + _TIE_CHUNK_ROWS]
            chunk, cap = rows[at], free[at]
            cand = self.cand.take(chunk, axis=1)
            best, sq = _nearest_candidates(Q.take(chunk, axis=0), T, cand, cand < len(T))
            low = np.sqrt(sq.min(axis=0))
            # candidates are distinct, so the least of the others is the runner-up
            np.putmask(sq, cand == best, np.inf)
            runner = np.sqrt(sq.min(axis=0))
            found = low * (1.0 + _TIE_RTOL) < cap
            ok[at] = found
            done = chunk[found]
            self.idx[done] = best[found]
            self.hi[done] = low[found]
            self.lo[done] = np.minimum(runner[found], cap[found])
        return ok

    def requery(self, tree, Q, T, order):
        """Query the rows of Q listed in order against tree, built on T.

        Each row takes one kd query and its kd nearest. With a record, all
        rows at once at k = _TIE_K, kept as their lists, from which tied
        rows are rescored. Without one, at k = 2 in spans that start at
        _TIE_CHUNK_ROWS and double while untied, but a chunk after one more
        than half tied takes the tie pass's k = _TIE_K query instead,
        bounded by that chunk's largest tie radius with twice the margin; a
        row whose own radius, with the margin, is inside the bound, even a
        rounding above that chunk's largest, has all its candidates within
        it fetched and is settled (_fetch_ties). Rows still tied go through
        the tie pass. The order, a leaf order of Q's rows, changes the
        speed, never the result.
        """
        if not len(order):
            return
        if self.idx is None:
            self.idx = np.empty(len(Q), dtype=np.int64)
        step = len(order) if self.record else _TIE_CHUNK_ROWS
        end, span, reach = 0, step, 0.0  # reach: a tied chunk's largest tie radius
        while end < len(order):
            rows, tied = order[end : end + span], np.empty(0)
            end += span
            if reach:
                listed, tied = _fetch_ties(tree, Q, T, rows, None, self.idx, _TIE_K, reach)
                rows = rows[~listed]
            # a one-point target reports its missing runner-up at distance inf,
            # so none of its rows reads as tied; a target of fewer than _TIE_K
            # points pads a list with index len(T) at distance inf, so the list
            # holds every target
            dist, idx = tree.query(Q.take(rows, axis=0), k=_TIE_K if self.record else 2)
            self.idx[rows] = idx[:, 0]
            # a runner-up inside the tie radius marks an exact tie or a near-tie the
            # tree may have ordered by its own rounding; 1e-9 is far above kd error
            radii = dist[:, 0] * (1.0 + _TIE_RTOL)
            ambiguous = np.flatnonzero(dist[:, 1] <= radii)
            # the span's last chunk decides: bounded after ties, else twice as long
            tied = np.concatenate([tied, radii[ambiguous[ambiguous >= len(rows) - step]]])
            reach = float(tied.max()) if 2 * len(tied) > step else 0.0
            span = step if reach else 2 * span
            if self.record:
                self.cand[:, rows] = idx.T
                # the margin covers kd rounding
                self.free[rows] = dist[:, -1] * (1.0 - _TIE_RTOL)
                self.hi[rows], self.lo[rows] = dist[:, :2].T
                ambiguous = ambiguous[~self.rescore(Q, T, rows[ambiguous])]
            del dist, idx
            if len(ambiguous):
                _resolve_ties(tree, Q, T, rows[ambiguous], radii[ambiguous], self.idx, _TIE_K)


def _nearest_candidates(q, T, cand, valid):
    """The lowest index among each row's exact nearest candidates.

    cand is (k, len(q)), candidate-major, so that the reductions over
    candidates run along contiguous rows; only those marked valid count.
    Returns the indices and the (k, len(q)) squared distances, summed one
    coordinate at a time in pair_sq's order, so with its bits; invalid
    candidates score inf.
    """
    j = np.minimum(cand, len(T) - 1, order="C")
    sq = q[:, 0] - T[:, 0][j]
    sq *= sq
    for c in (1, 2):
        d = q[:, c] - T[:, c][j]
        d *= d
        sq += d
    np.putmask(sq, ~valid, np.inf)
    np.putmask(j, sq != sq.min(axis=0), len(T))
    return j.min(axis=0), sq


def _resolve_ties(tree, Q, T, queries, radii, best, k):
    """Set best[q], for each tied query q, to the lowest index among its
    exact nearest targets, taken from its k nearest candidates.

    radii[i] is the tie radius d0 * (1 + _TIE_RTOL) of queries[i], d0 its
    nearest distance. Candidates within it contain every exact minimizer,
    since kd arithmetic errs far less than _TIE_RTOL, so each chunk's
    query stops at its largest tie radius (_fetch_ties). Rows whose k-th
    candidate is inside that radius may tie beyond it and are resolved
    again with a larger k; k grows at least to 2k + 1 each time, so the
    passes end once k reaches len(T).
    """
    k = min(k, len(T))
    chunk = max(1, _TIE_CHUNK_ROWS * _TIE_K // k)
    for start in range(0, len(queries), chunk):
        r = radii[start : start + chunk]
        _fetch_ties(tree, Q, T, queries[start : start + chunk], r, best, k, float(r.max()))


def _fetch_ties(tree, Q, T, rows, r, best, k, reach):
    """Set best for rows from one query at k bounded just beyond reach.

    r holds the rows' tie radii, none above reach, or is None to take each
    from the row's own nearest candidate. Only rows whose radius times
    1 + _TIE_RTOL is inside the bound, so that all their candidates within
    it were fetched, are set; those whose k-th candidate is inside go on to
    a counted pass. The bound is reach times (1 + _TIE_RTOL)**2, so a row
    whose radius lies a rounding above reach is still set. Returns the mask
    of rows set and the tied rows' radii.
    """
    # scipy keeps candidates whose squared distance is strictly below the
    # squared bound: the margin keeps each radius inside it, and the floor
    # keeps it above 0 where d0 is 0 or its square underflows
    bound = max(reach * (1.0 + _TIE_RTOL) ** 2, 1e-150)
    q = Q.take(rows, axis=0)
    dist, idx = tree.query(q, k=k, distance_upper_bound=bound)
    if r is None:
        r = dist[:, 0] * (1.0 + _TIE_RTOL)
    listed = r * (1.0 + _TIE_RTOL) <= bound  # d0 = inf, nothing fetched, fails
    if not listed.all():
        rows, q, r, dist, idx = (x.compress(listed, axis=0) for x in (rows, q, r, dist, idx))
    # candidates beyond the bound come back as index len(T); every exact
    # minimizer is inside the radius, where they all are real
    inside = np.less_equal(dist.T, r, order="C")
    best[rows] = _nearest_candidates(q, T, idx.T, inside)[0]
    spill = inside[-1]
    if k < len(T) and spill.any():
        count = tree.query_ball_point(q[spill], r[spill], return_length=True)
        _resolve_ties(tree, Q, T, rows[spill], r[spill], best, max(int(count.max()) + 1, 2 * k + 1))
    return listed, r[inside[1]]
