"""Point-cloud container, synthetic shapes, and view-dependent cropping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SHAPE_KINDS = ("sphere-surface", "box-surface", "plane-grid", "l-bracket")

# Largest |coordinate| of a PointCloud or as_point. Two points within it
# are at most sqrt(12) * MAX_ABS_COORD apart, so squared distances stay
# below 1.2e301, far from float64 overflow (1.8e308); beyond about 3.9e153
# they overflow to inf and the kd-tree reports no neighbor at all.
MAX_ABS_COORD = 1e150


def pair_sq(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Canonical squared distance between aligned rows of two (..., 3) arrays.

    Summed one coordinate at a time, (dx*dx + dy*dy) + dz*dz: the order, and
    so the bits, of (diff * diff).sum(axis=-1), without a length-3 reduction.
    """
    diff = points_a - points_b
    diff *= diff
    return (diff[..., 0] + diff[..., 1]) + diff[..., 2]


def _whole(name: str, value) -> int:
    """value as an int; ValueError where it is not a whole number or is a bool."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or inf
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _positive(name: str, value):
    """value unchanged; ValueError unless it is positive and finite."""
    if not 0 < value < np.inf:  # NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _one_of(name: str, value, choices: tuple) -> None:
    """ValueError unless value is one of choices."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}, expected one of {choices}")


def check_coord_range(name: str, points: np.ndarray, nonfinite: str | None = None) -> None:
    """Raise ValueError unless every coordinate of points is within MAX_ABS_COORD in magnitude.

    NaN and ±inf fail too; given nonfinite, they raise with that message.
    """
    largest = max(points.max(), -points.min())
    if not largest <= MAX_ABS_COORD:  # NaN fails too
        if nonfinite is not None and not np.isfinite(points).all():
            raise ValueError(nonfinite)
        raise ValueError(
            f"{name} has a coordinate of magnitude {largest:.6g}, "
            f"beyond the supported {MAX_ABS_COORD:g}"
        )


def as_point(p) -> np.ndarray:
    """Validate a single 3D point, returned as a float64 array of shape (3,).

    Its coordinates must be finite and at most MAX_ABS_COORD in magnitude."""
    arr = np.asarray(p, dtype=np.float64).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3D point, got shape {np.shape(p)}")
    check_coord_range("point", arr, f"point has non-finite coordinates: {arr.tolist()}")
    return arr


class PointCloud:
    """Ordered collection of 3D points, immutable after construction.

    Every coordinate is finite and at most MAX_ABS_COORD in magnitude, so
    every squared distance is finite; construction rejects anything else.

    Point order carries no geometric meaning; it only anchors the indices
    reported by the matchers. Coordinates are dimensionless and nothing in
    this library rescales a cloud implicitly.

    The matcher keeps a cloud's kd-tree on it, built on first use: about
    22 bytes per point beside the points' 24. Pickles and copies carry
    the points alone.
    """

    __slots__ = ("_points", "_tree")

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) array of points, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("point cloud must contain at least one point")
        check_coord_range("point cloud", pts, "point cloud contains non-finite coordinates")
        pts.setflags(write=False)
        self._points = pts
        self._tree = None  # set by matching._tree_of

    @property
    def points(self) -> np.ndarray:
        """The (N, 3) float64 coordinates, read-only."""
        return self._points

    def __reduce__(self):
        return PointCloud, (self._points,)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            (self.points == other.points).all()
        )

    def __repr__(self) -> str:
        return f"PointCloud({len(self)} points)"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with min_corner <= max_corner componentwise."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", as_point(self.min_corner))
        object.__setattr__(self, "max_corner", as_point(self.max_corner))
        if not (self.min_corner <= self.max_corner).all():
            raise ValueError("min_corner must not exceed max_corner")

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))


def bounding_box(cloud: PointCloud) -> BoundingBox:
    return BoundingBox(cloud.points.min(axis=0), cloud.points.max(axis=0))


def _directions(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gaussian rows (isotropic directions) and their norms, all >= 1e-12."""
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1)
    # resample the (measure-zero) degenerate rows instead of dividing by ~0
    while (bad := norms < 1e-12).any():
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v, norms


def gen_shape(kind: str, n: int, seed: int) -> PointCloud:
    """Deterministic synthetic cloud of n points on one of the stock shapes.

    'sphere-surface' is the unit sphere at the origin, 'box-surface' the
    boundary of [0, 1]^3, 'plane-grid' a regular grid on z = 0.5, and
    'l-bracket' two unit plates joined at a right angle. Same (kind, n,
    seed) always yields the same cloud.
    """
    _one_of("shape kind", kind, SHAPE_KINDS)
    n = _whole("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(_whole("seed", seed))

    if kind == "sphere-surface":
        v, norms = _directions(rng, n)
        pts = v / norms[:, None]
    elif kind == "box-surface":
        face = rng.integers(0, 6, size=n)
        uv = rng.uniform(0.0, 1.0, size=(n, 2))
        axis = face % 3
        rows = np.arange(n)
        pts = np.empty((n, 3))
        pts[rows, axis] = (face // 3).astype(np.float64)
        pts[rows, (axis + 1) % 3] = uv[:, 0]
        pts[rows, (axis + 2) % 3] = uv[:, 1]
    elif kind == "plane-grid":
        side = math.isqrt(n - 1) + 1  # smallest side with side*side >= n
        coords = np.linspace(0.0, 1.0, side) if side > 1 else np.array([0.5])
        gx, gy = np.meshgrid(coords, coords, indexing="ij")
        pts = np.column_stack(
            [gx.ravel()[:n], gy.ravel()[:n], np.full(n, 0.5)]
        )
    else:  # l-bracket
        plate = rng.integers(0, 2, size=n)
        uv = rng.uniform(0.0, 1.0, size=(n, 2))
        pts = np.empty((n, 3))
        horiz = plate == 0
        # horizontal plate in z = 0, vertical plate in y = 0, sharing the x axis edge
        pts[horiz, 0] = uv[horiz, 0]
        pts[horiz, 1] = uv[horiz, 1]
        pts[horiz, 2] = 0.0
        vert = ~horiz
        pts[vert, 0] = uv[vert, 0]
        pts[vert, 1] = 0.0
        pts[vert, 2] = uv[vert, 1]
    return PointCloud(pts)


def partial_view_crop(cloud: PointCloud, viewpoint, k: int) -> PointCloud:
    """Remove the k points nearest to viewpoint, keeping the rest in order.

    Models a self-occluded partial scan. Equidistant points are removed
    lowest index first. k must leave at least one point behind.
    """
    vp = as_point(viewpoint)
    n = len(cloud)
    if n == 1:
        raise ValueError("a one-point cloud cannot be cropped: no point would be left")
    k = _whole("k", k)
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    # stable sort makes equal distances come out in index order
    order = np.argsort(pair_sq(cloud.points, vp), kind="stable")
    keep = np.ones(n, dtype=bool)
    keep[order[:k]] = False
    return PointCloud(cloud.points[keep])


def jitter_cloud(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    """Add isotropic Gaussian noise with standard deviation sigma per axis."""
    if not 0 <= sigma < np.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and non-negative, got {sigma!r}")
    rng = np.random.default_rng(_whole("seed", seed))
    return PointCloud(cloud.points + rng.normal(0.0, sigma, size=cloud.points.shape))


def displace_outliers(
    cloud: PointCloud, fraction: float, distance: float, seed: int
) -> tuple[PointCloud, np.ndarray]:
    """Push a random fraction of the points far away, in random directions.

    Each selected point moves by exactly `distance` along its own random
    unit vector. Returns the contaminated cloud and the sorted indices of
    the displaced points. At least one point is displaced for any
    fraction > 0.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    _positive("distance", distance)
    n = len(cloud)
    count = max(1, round(fraction * n))
    rng = np.random.default_rng(_whole("seed", seed))
    idx = np.sort(rng.choice(n, size=count, replace=False))
    dirs, norms = _directions(rng, count)
    pts = cloud.points.copy()
    pts[idx] += distance * dirs / norms[:, None]
    return PointCloud(pts), idx
