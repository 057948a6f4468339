"""Per-pair distance transforms and the Chamfer-style set distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, as_point
from .matching import MatchResult, _argmin_both, match_indexed, pair_sq

TRANSFORM_KINDS = ("l1", "l2", "exp", "hyper")


# Above this u, log(2) + log1p(u) is arccosh(1 + u) to within 1/(4*u*u),
# far below one ulp, while u*(u + 2) overflows from about 1.3e154.
_ACOSH1P_LOG_FROM = 1e150


def acosh1p(u):
    """arccosh(1 + u) for u >= 0, accurate down to u = 0 and up to inf.

    Naive acosh(1 + u) loses half its digits below u ~ 1e-8; the
    equivalent log1p(u + sqrt(u*(u + 2))) keeps full relative accuracy.
    Above u = 1e150 the asymptotic form log(2) + log1p(u) takes over, so
    huge u stay finite.
    """
    u = np.asarray(u, dtype=np.float64)
    if not (u >= 0).all():
        raise ValueError("acosh1p requires u >= 0")
    big = u > _ACOSH1P_LOG_FROM
    near = np.where(big, 0.0, u)
    out = np.where(big, np.log(2.0) + np.log1p(u), np.log1p(near + np.sqrt(near * (near + 2.0))))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TransformSpec:
    """Selects the per-pair transform applied to a matched distance d >= 0.

    kind 'l1' is the identity, 'l2' squares, 'exp' saturates as
    1 - exp(-alpha * d**beta), and 'hyper' grows like
    arccosh(1 + alpha * d**beta): near-quadratic close to zero, then
    logarithmic, which is what tames far-away outlier pairs. alpha and
    beta must be positive and finite for 'exp' and 'hyper'; the other two
    kinds ignore them.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 2.0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}, expected one of {TRANSFORM_KINDS}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if self.kind in ("exp", "hyper"):
            if not (np.isfinite(self.alpha) and self.alpha > 0):
                raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
            if not (np.isfinite(self.beta) and self.beta > 0):
                raise ValueError(f"beta must be positive and finite, got {self.beta}")


def _checked_distances(d) -> np.ndarray:
    arr = np.asarray(d, dtype=np.float64)
    if not (arr >= 0).all():
        raise ValueError("distances must be non-negative")
    return arr


def transform(spec: TransformSpec, d):
    """Apply spec's transform elementwise to raw distances d >= 0."""
    arr = _checked_distances(d)
    if spec.kind == "l1":
        out = arr.copy()
    elif spec.kind == "l2":
        out = arr * arr
    elif spec.kind == "exp":
        out = -np.expm1(-spec.alpha * arr**spec.beta)
    else:
        out = acosh1p(spec.alpha * arr**spec.beta)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class SetDistanceReport:
    """value = d1 + d2, the two directed means, and the correspondence used."""

    value: float
    d1: float
    d2: float
    match: MatchResult


def chamfer(
    a: PointCloud,
    b: PointCloud,
    spec: TransformSpec,
    match: MatchResult | None = None,
    workers: int | None = None,
) -> SetDistanceReport:
    """Symmetric Chamfer-style set distance under spec's transform.

    Means of the transformed nearest-neighbor distances in both
    directions; each direction is normalized by its own cloud size. A
    precomputed match for (a, b) can be passed to amortize matching
    across several transforms.
    """
    if match is None:
        match = match_indexed(a, b, workers=workers)
    d1 = float(np.mean(transform(spec, np.sqrt(match.fwd_sq))))
    d2 = float(np.mean(transform(spec, np.sqrt(match.bwd_sq))))
    return SetDistanceReport(d1 + d2, d1, d2, match)


def poincare_distance(p, q) -> float:
    """Geodesic distance between two points strictly inside the unit ball.

    arccosh(1 + 2*||p-q||^2 / ((1-||p||^2)*(1-||q||^2))). Points on or
    outside the boundary have no finite geodesic and are rejected; see
    clip_to_ball for pulling a cloud into the domain first.
    """
    p = as_point(p)
    q = as_point(q)
    pn = float(p @ p)
    qn = float(q @ q)
    if pn >= 1.0 or qn >= 1.0:
        raise ValueError(
            f"points must lie strictly inside the unit ball, got norms "
            f"{np.sqrt(pn):.6g} and {np.sqrt(qn):.6g}"
        )
    diff = p - q
    u = 2.0 * float(diff @ diff) / ((1.0 - pn) * (1.0 - qn))
    return acosh1p(u)


def clip_to_ball(cloud: PointCloud, max_norm: float = 0.999) -> PointCloud:
    """Radially scale any point with norm above max_norm down onto that radius.

    Deliberately a separate, explicit step: the ball-model distance never
    clips on its own.
    """
    if not 0.0 < max_norm < 1.0:
        raise ValueError(f"max_norm must be in (0, 1), got {max_norm}")
    norms = np.linalg.norm(cloud.points, axis=1)
    over = norms > max_norm
    if not over.any():
        return cloud
    pts = cloud.points.copy()
    pts[over] *= (max_norm / norms[over])[:, None]
    return PointCloud(pts)


def chamfer_poincare(a: PointCloud, b: PointCloud) -> SetDistanceReport:
    """Chamfer aggregation with the ball-model geodesic as pair distance.

    The geodesic is not a monotone function of Euclidean distance when
    points differ in norm, so the minimization scans all pairs directly
    instead of reusing the Euclidean matchers. Both clouds must lie
    strictly inside the unit ball.
    """
    A, B = a.points, b.points
    an = (A * A).sum(axis=1)
    bn = (B * B).sum(axis=1)
    for name, norms in (("first", an), ("second", bn)):
        if (norms >= 1.0).any():
            raise ValueError(
                f"{name} cloud has points on or outside the unit ball "
                f"(max norm {np.sqrt(norms.max()):.6g}); clip_to_ball first"
            )
    inv_a = 1.0 / (1.0 - an)
    inv_b = 1.0 / (1.0 - bn)

    def ball_u(sq, rows):
        # u is a strictly increasing function of the geodesic, so mins and
        # argmins transfer; acosh is applied to the winners only
        return 2.0 * sq * (inv_a[rows, None] * inv_b[None, :])

    fwd_idx, fwd_u, bwd_idx, bwd_u = _argmin_both(A, B, ball_u)
    d1 = float(np.mean(acosh1p(fwd_u)))
    d2 = float(np.mean(acosh1p(bwd_u)))
    match = MatchResult(fwd_idx, pair_sq(A, B[fwd_idx]), bwd_idx, pair_sq(A[bwd_idx], B))
    return SetDistanceReport(d1 + d2, d1, d2, match)
