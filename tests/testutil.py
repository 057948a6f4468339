"""Shared test helpers: cloud constructors and independent oracles.

The oracles here recompute results from first principles (full distance
matrices, python-level sorting) so the library paths are checked against
arithmetic that shares as little code with them as possible.
"""

from __future__ import annotations

import numpy as np

from chamferkit import PointCloud, pair_sq, transform


def uniform_cloud(rng, n, scale=1.0, offset=0.0):
    return PointCloud(rng.uniform(0.0, 1.0, size=(n, 3)) * scale + offset)


def clustered_cloud(rng, n, centers=4, spread=0.02):
    """Tight blobs around a handful of centers; stresses near-ties."""
    c = rng.uniform(0.0, 1.0, size=(centers, 3))
    pick = rng.integers(0, centers, size=n)
    return PointCloud(c[pick] + rng.normal(0.0, spread, size=(n, 3)))


def snapped_cloud(rng, n, grid=0.25):
    """Points snapped to a coarse lattice: exact duplicates and exact ties."""
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    return PointCloud(np.round(pts / grid) * grid)


def mixed_cloud(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return uniform_cloud(rng, n)
    if kind == 1:
        return clustered_cloud(rng, n)
    return snapped_cloud(rng, n)


def ball_cloud(rng, n, radius=0.9):
    """Uniform inside the ball of the given radius (strictly below 1)."""
    v = rng.standard_normal((n, 3))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    r = radius * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / 3.0)
    return PointCloud(v * r)


def distance_matrix(a: PointCloud, b: PointCloud) -> np.ndarray:
    """Full raw Euclidean distance matrix, canonical arithmetic."""
    diff = a.points[:, None, :] - b.points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def naive_chamfer(a: PointCloud, b: PointCloud, spec) -> float:
    """Set distance computed the long way: transform every pairwise
    distance first, then take the minima. The interchange property says
    this must equal the library's match-then-transform value."""
    t = transform(spec, distance_matrix(a, b))
    return float(np.mean(t.min(axis=1)) + np.mean(t.min(axis=0)))


def sorted_nearest(a: PointCloud, b: PointCloud):
    """Nearest indices of b per point of a via python sorting with an
    explicit (distance, index) key; the tie rule spelled out literally."""
    dm = distance_matrix(a, b)
    idx = []
    for j in range(len(a)):
        order = sorted(range(len(b)), key=lambda k: (dm[j, k], k))
        idx.append(order[0])
    return np.array(idx)


def is_smooth_config(
    movable: PointCloud,
    target: PointCloud,
    distance_eps: float = 1e-6,
    tie_eps: float = 1e-6,
) -> bool:
    """True when every match clears distance_eps and no match is near-tied.

    On such configurations the correspondence is locally constant, so the
    fixed-match analytic gradient and finite differences agree; near a
    zero-distance pair or a tie the loss is non-differentiable and any
    comparison between the two is moot.
    """
    A, B = movable.points, target.points
    dm = np.sqrt(pair_sq(A[:, None, :], B[None, :, :]))
    for axis in (1, 0):
        ordered = np.sort(dm, axis=axis)
        nearest = ordered.take(0, axis=axis)
        if (nearest <= distance_eps).any():
            return False
        if dm.shape[axis] > 1:
            runner_up = ordered.take(1, axis=axis)
            if (runner_up - nearest <= tie_eps).any():
                return False
    return True


def smooth_pair(rng, min_pts=8, max_pts=256):
    """Random cloud pair accepted only if clearly inside the smooth regime
    (no match under 1e-3, no tie gap under 5e-5, either direction), so a
    1e-5 finite-difference step cannot cross a kink or flip a match."""
    while True:
        a = uniform_cloud(rng, int(rng.integers(min_pts, max_pts + 1)))
        b = uniform_cloud(rng, int(rng.integers(min_pts, max_pts + 1)))
        if is_smooth_config(a, b, distance_eps=1e-3, tie_eps=5e-5):
            return a, b


def max_rel_coord_err(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Per-coordinate relative error with a scale floor: coordinates far
    below the field's magnitude are compared in scaled-absolute terms so
    a near-zero reference entry cannot manufacture a huge ratio."""
    scale = np.maximum(np.abs(reference), 1e-2 * np.abs(reference).max() + 1e-300)
    return float((np.abs(analytic - reference) / scale).max())
