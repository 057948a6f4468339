"""Bidirectional nearest-neighbor matching between two clouds.

Two interchangeable routes: an exhaustive O(n*m) scan and a kd-tree
accelerated one. Both break distance ties toward the smallest target
index and store squared distances computed with the same arithmetic,
one coordinate at a time in the order (dx*dx + dy*dy) + dz*dz, so their
results are bit-identical; tests hold them to that.

The accelerated route builds a sliding-midpoint kd-tree on each cloud
and queries the rows of one cloud in the leaf order of its own tree, so
consecutive queries descend to neighbouring leaves of the other.

One rule, _settle_lists, decides whether a candidate list holds every
exact nearest target of its row, whether a tie pass has just fetched the
list or fit stored it states ago. The list's candidates are scored
exactly, in pair_sq's arithmetic, and free bounds from below the row's
distance to every target outside the list. Where the list's best
distance d has d + _UNDERFLOW_ATOL < free, the lowest index among the
list's exact minimizers is match_brute's. free carries the relative
margin: a kd distance times 1 - _TIE_RTOL, set when the list is
fetched. _UNDERFLOW_ATOL, 5e-162, covers distances whose squares
underflow, and vanishes beside distances above about 1e-145.

The kd-tree does not order equidistant candidates by index, so the
accelerated route re-resolves every query whose two nearest candidates
are (nearly) tied. It does so in bulk: one k = _TIE_K query per chunk of
tied rows, bounded just beyond the chunk's largest tie radius, whose
lists the rule settles with free the k-th distance or the bound. Rows
left unsettled with all k candidates inside the bound, where more
candidates may tie beyond them, go through the same pass again with a
larger k, sized from a count of the targets inside the tie radius plus
_UNDERFLOW_ATOL. Ties cluster in leaf order, so after a chunk of rows
more than half tied the next chunk takes that bounded query directly,
and only the rows it leaves unsettled take the plain one.

fit matches a slowly moving cloud against one fixed target every epoch,
through one private matcher. It builds the target's tree once and
keeps, for every row in each direction, its chosen index idx, its
candidate list (the _TIE_K nearest targets of its last kd query) with
its free, and two more running bounds: hi, an upper bound on the
distance to idx, and lo, a lower bound on the distance to every other
target. Each call moves a row by at most its move bound: for a row of
the moving cloud a bound on its Euclidean move, never below it even
where the squares underflow, and for a row of the target the largest
such move of any point. By the triangle inequality the call adds the
bound to hi and subtracts it from lo and free, and the three stay
bounds.

A row with hi * (1 + _TIE_RTOL) + 2 * _UNDERFLOW_ATOL < lo has a
unique nearest point, outside every tie radius, and it is the one
match_brute returns: the row keeps its index without any work. Every
other row is rescored from its candidate list by the rule, and a settled row takes
hi = d and lo the lesser of the list's runner-up and free. Only rows
whose list fails are queried again, once, at k = _TIE_K: the query
gives a row its fresh list, with free its _TIE_K-th kd distance times
1 - _TIE_RTOL, its kd nearest, and hi and lo its two nearest kd
distances. A tied row is settled from that list by the rule, and one
the list cannot settle (more than _TIE_K near-ties, or, where squares
underflow, more than _TIE_K targets within _UNDERFLOW_ATOL of its
nearest) goes through the tie pass above. The moving cloud's tree is
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
# An absolute margin on distances, for where their squares underflow; it
# vanishes beside any distance above about 1e-145 (_settle_lists).
_UNDERFLOW_ATOL = 5e-162

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
    leaf-order chunk after a mostly tied one is fetched at _TIE_K just
    beyond that chunk's largest tie radius, which settles each row its
    list shows to hold its nearest targets. All squared distances are
    recomputed from the chosen indices with the canonical arithmetic.
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
            # int32 holds the index of each of m targets and the padding index m;
            # the first query sets every row's list and bounds before any is read
            self.cand = np.empty((_TIE_K, n), dtype=np.int32 if m < 2**31 else np.int64)
            self.hi, self.lo, self.free = np.empty(n), np.empty(n), np.empty(n)

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
        its nearest point (_Rows.rescore). Before the first query, and so
        without a record, no row is settled.
        """
        if self.idx is None:
            return order
        rows = self.stale(order)
        return rows[~self.rescore(Q, T, rows)]

    def stale(self, order: np.ndarray) -> np.ndarray:
        """The rows in order whose nearest target may differ from idx.

        idx is at most hi away and every other target at least lo, so where
        hi(1 + _TIE_RTOL) < lo a row's nearest target is unique, lies
        outside every tie radius and is match_brute's. The factor is this
        test's own margin: it covers kd rounding in a lo taken from a
        query's runner-up, which has no margin, unlike free, and the
        rounding that moves add to hi and lo. Where squares underflow, hi
        and lo each carry a computed distance to the current squares, so
        the test takes _UNDERFLOW_ATOL once for each (_settle_lists).
        """
        keep = self.hi * (1.0 + _TIE_RTOL) + 2 * _UNDERFLOW_ATOL < self.lo
        return order[~keep[order]]

    def rescore(self, Q, T, rows):
        """Match the rows of Q listed in rows from their candidate lists;
        return a mask over rows of those the lists settled (_settle_lists).

        Every target outside a row's list is at least free away. A settled
        row takes the list's nearest; its hi becomes that distance and its
        lo the lesser of the list's runner-up and free.
        """
        ok = np.zeros(len(rows), dtype=bool)
        # in chunks, so that the (_TIE_K, rows) scratch stays a tie pass's size
        for start in range(0, len(rows), _TIE_CHUNK_ROWS):
            at = slice(start, start + _TIE_CHUNK_ROWS)
            chunk = rows[at]
            cand, cap = self.cand.take(chunk, axis=1), self.free[chunk]
            found, best, low, sq = _settle_lists(Q.take(chunk, axis=0), T, cand, cap)
            # candidates are distinct, so the least of the others is the runner-up
            np.putmask(sq, cand == best, np.inf)
            runner = np.sqrt(sq.min(axis=0))
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
        than half tied first takes the tie pass's k = _TIE_K query, bounded
        just beyond that chunk's largest tie radius, and only the rows its
        lists leave unset take the k = 2 query (_fetch_ties). Rows still
        tied go through the tie pass. The order, a leaf order of Q's rows,
        changes the speed, never the result.
        """
        if self.idx is None:
            self.idx = np.empty(len(Q), dtype=np.int64)
        step = len(order) if self.record else _TIE_CHUNK_ROWS
        end, span, reach = 0, step, 0.0  # reach: a tied chunk's largest tie radius
        while end < len(order):
            rows, tied = order[end : end + span], np.empty(0)
            end += span
            if reach:
                done, tied = _fetch_ties(tree, Q, T, rows, self.idx, _TIE_K, reach)
                rows = rows[~done]
            if len(rows):
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
                if self.record:
                    self.cand[:, rows] = idx.T
                    # the margin covers kd rounding and the moves' (_settle_lists)
                    self.free[rows] = dist[:, -1] * (1.0 - _TIE_RTOL)
                    self.hi[rows], self.lo[rows] = dist[:, :2].T
                    ambiguous = ambiguous[~self.rescore(Q, T, rows[ambiguous])]
                del dist, idx
                if len(ambiguous):
                    _resolve_ties(tree, Q, T, rows[ambiguous], radii[ambiguous], self.idx, _TIE_K)
            reach = float(tied.max()) if 2 * len(tied) > step else 0.0
            span = step if reach else 2 * span


def _settle_lists(q, T, cand, free):
    """The rows of q that their candidate lists settle, as they hold every
    exact nearest target: the matcher's one test of a list.

    cand is (k, len(q)), candidate-major, so that the reductions over
    candidates run along contiguous rows; the padding index len(T) scores
    inf. free bounds from below each row's distance to every target outside
    its list. Where the list's best distance d has
    d + _UNDERFLOW_ATOL < free, every exact minimizer is in the list, and
    the lowest index among them is match_brute's.

    The test has no relative margin of its own: free carries it. Each free
    starts as a kd distance times 1 - _TIE_RTOL, an absolute margin of
    _TIE_RTOL times the distance at the query, fixed from then on. It
    covers kd rounding, and also the rounding that each free -= move adds,
    at most about 2**-53 times that distance per move. A factor on d would
    scale with the current distance instead, and where moves shrink free by
    cancellation it falls below that rounding.

    _UNDERFLOW_ATOL is the absolute margin for where squares underflow. A
    squared distance summed from three squares, here or by scipy, lies
    within 1.5 u of the exact square, u = 2**-1074, besides relative
    rounding: each square rounds by at most u/2 where it is subnormal, and
    sums of subnormals are exact. scipy also rounds a bounded query's
    squared bound, by u/2, so the square of a fresh free lies within 2 u of
    a lower bound on the exact squares outside the list. A bound set from
    one computed distance, whose square errs by at most a**2, and moved
    since by bounds on the moves, errs against a distance computed now,
    whose square errs by at most b**2, by at most sqrt(a**2 + b**2), its
    error where nothing has moved. For free against an outside target that
    is sqrt(3.5 u), about 4.2e-162, which the margin of 5e-162 covers. The
    keep test (_Rows.stale) carries two such bounds, hi and lo, and so
    takes the margin twice. Beside a distance above about 1e-145 the margin
    is below half an ulp and the sum rounds it away, so there the test is
    the plain d < free.

    Returns the mask of settled rows, each row's lowest-index nearest
    candidate and its distance d, and the (k, len(q)) squared distances,
    summed one coordinate at a time in pair_sq's order, so with its bits.
    """
    j = np.minimum(cand, len(T) - 1, order="C")
    sq = q[:, 0] - T[:, 0][j]
    sq *= sq
    for c in (1, 2):
        d = q[:, c] - T[:, c][j]
        d *= d
        sq += d
    np.putmask(sq, cand == len(T), np.inf)
    low = sq.min(axis=0)
    np.putmask(j, sq != low, len(T))
    d = np.sqrt(low)
    return d + _UNDERFLOW_ATOL < free, j.min(axis=0), d, sq


def _resolve_ties(tree, Q, T, queries, radii, best, k):
    """Set best[q], for each tied query q, to the lowest index among its
    exact nearest targets, taken from its k nearest candidates.

    radii[i] is the tie radius d0 * (1 + _TIE_RTOL) of queries[i], d0 its
    nearest distance. Candidates within it contain every exact minimizer,
    since kd arithmetic errs far less than _TIE_RTOL, so each chunk's
    query stops just beyond its largest tie radius (_fetch_ties). Rows
    whose k candidates all lie inside that bound, and do not settle them,
    are resolved again with a larger k; k grows at least to 2k + 1 each
    time, and a list of all len(T) targets settles every row.
    """
    k = min(k, len(T))
    chunk = max(1, _TIE_CHUNK_ROWS * _TIE_K // k)
    for start in range(0, len(queries), chunk):
        reach = float(radii[start : start + chunk].max())
        _fetch_ties(tree, Q, T, queries[start : start + chunk], best, k, reach)


def _fetch_ties(tree, Q, T, rows, best, k, reach):
    """Set best for rows from one query at k bounded just beyond reach.

    Each row's list holds the targets inside the bound, up to k of them,
    so its free is the lesser of its k-th distance and the bound, times
    1 - _TIE_RTOL, or inf where it holds all of T; the rows the lists
    settle are set (_settle_lists). A row left unsettled with all k
    candidates inside the bound goes on to a counted pass, sized from the
    targets within its tie radius plus _UNDERFLOW_ATOL, which its list
    must hold to settle it; any other comes back unset. The bound is
    (reach + 2 * _UNDERFLOW_ATOL) times (1 + _TIE_RTOL)**2, so that a
    tied row whose radius lies a rounding above reach is still set, and
    a list of every target inside the bound settles its row even where
    reach squares to 0. Returns the mask of rows set and the tied rows'
    radii.
    """
    # scipy keeps candidates whose squared distance is strictly below the
    # squared bound, which it rounds (_settle_lists)
    bound = (reach + 2 * _UNDERFLOW_ATOL) * (1.0 + _TIE_RTOL) ** 2
    q = Q.take(rows, axis=0)
    dist, idx = tree.query(q, k=k, distance_upper_bound=bound)
    free = np.minimum(dist[:, -1], bound) * (1.0 - _TIE_RTOL)
    if k >= len(T):
        # a list that holds every target leaves none outside it
        np.putmask(free, dist[:, len(T) - 1] < bound, np.inf)
    found, nearest = _settle_lists(q, T, idx.T, free)[:2]
    best[rows[found]] = nearest[found]
    r = dist[:, 0] * (1.0 + _TIE_RTOL)
    # a list of len(T) targets settles, so these rows have k < len(T)
    spill = ~found & (dist[:, -1] < bound)
    if spill.any():
        count = tree.query_ball_point(q[spill], r[spill] + _UNDERFLOW_ATOL, return_length=True)
        _resolve_ties(tree, Q, T, rows[spill], r[spill], best, max(int(count.max()) + 1, 2 * k + 1))
    done = found | spill
    return done, r[done & (dist[:, 1] <= r)]
