"""Per-pair distance transforms, their slopes, and the Chamfer-style set distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, as_point, pair_sq
from .matching import MatchResult, _argmin_both, match_indexed

TRANSFORM_KINDS = ("l1", "l2", "exp", "hyper")

# Largest alpha accepted for 'exp' and 'hyper'. sqrt(2*alpha), the 'hyper'
# weight at d = 0 and the divisor of its normalized curve, overflows once
# alpha > 9e307; at this bound it is 1.4e75, and the gradient coefficient
# t'(d)/d stays below 6.4e236, as a nonzero matched distance is at least
# 2.2e-162, the root of the least subnormal squared distance.
MAX_ALPHA = 1e150

# Largest beta accepted for 'exp' and 'hyper'. With alpha at most
# MAX_ALPHA, the 'exp' slope's factor alpha*beta stays at most 1e300, and
# beta*log(d) in the far form of 'hyper' below 3.5e152 for every distance
# two accepted clouds can have (at most sqrt(12) * MAX_ABS_COORD).
MAX_BETA = 1e150


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
    logarithmic, which is what tames far-away outlier pairs. For 'exp'
    and 'hyper', alpha must lie in (0, MAX_ALPHA] and beta in
    (0, MAX_BETA]; the other two kinds ignore them.
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
            if not 0 < self.alpha <= MAX_ALPHA:  # NaN fails too
                raise ValueError(f"alpha must be positive and at most {MAX_ALPHA:g}, got {self.alpha}")
            if not 0 < self.beta <= MAX_BETA:  # NaN fails too
                raise ValueError(f"beta must be positive and at most {MAX_BETA:g}, got {self.beta}")


def _checked_distances(d) -> np.ndarray:
    arr = np.asarray(d, dtype=np.float64)
    if not (arr >= 0).all():
        raise ValueError("distances must be non-negative")
    return arr


def _power(spec: TransformSpec, arr: np.ndarray) -> np.ndarray:
    """u = alpha * d**beta, inf (without a warning) where it overflows."""
    with np.errstate(over="ignore"):
        return spec.alpha * arr**spec.beta


def transform(spec: TransformSpec, d):
    """Apply spec's transform elementwise to raw distances d >= 0.

    Where u = alpha * d**beta overflows, 'exp' is exactly 1 and 'hyper'
    is log(2) + log(alpha) + beta*log(d), which equals arccosh(1 + u) to
    far below one ulp there.
    """
    arr = _checked_distances(d)
    if spec.kind == "l1":
        out = arr.copy()
    elif spec.kind == "l2":
        out = arr * arr
    elif spec.kind == "exp":
        out = -np.expm1(-_power(spec, arr))
    else:
        u = _power(spec, arr)
        out = np.array(acosh1p(u))
        # only where u overflows: elsewhere beta * log(d) can overflow itself
        far = np.isinf(u)
        out[far] = np.log(2.0) + np.log(spec.alpha) + spec.beta * np.log(arr[far])
    return out if np.ndim(out) else float(out)


def transform_derivative(spec: TransformSpec, d):
    """Derivative of spec's transform with respect to the raw distance d.

    Evaluated at d = 0 this returns the one-sided limit where it exists
    (0 for 'l1' by the subgradient convention, 0 for 'l2', the finite
    limit sqrt(2*alpha) for 'hyper' with beta = 2) and inf where the
    curve has a vertical tangent (beta < 2 for 'hyper', beta < 1 for
    'exp'). Far out, where u = alpha * d**beta overflows, 'exp' returns
    its limit 0 and 'hyper' its asymptote beta/d, both finite.
    """
    arr = _checked_distances(d)
    a, b = spec.alpha, spec.beta
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if spec.kind == "l1":
            out = np.where(arr > 0, 1.0, 0.0)
        elif spec.kind == "l2":
            out = 2.0 * arr
        elif spec.kind == "exp":
            # 0 where exp(-u) underflows: the decay beats any power of d;
            # inf where d**(beta - 1) overflows, even if alpha*beta underflows
            e = np.exp(-_power(spec, arr))
            p = arr ** (b - 1.0)
            out = np.where(e > 0, np.where(np.isinf(p), np.inf, a * b * p * e), 0.0)
        else:
            # (beta/2) d**(beta/2 - 1) times weight_z's curve in h = d**(beta/2).
            # d**(beta/2 - 1) is g*g with the curve multiplied in between, as
            # alone it can be subnormal or overflow where the slope is not;
            # beta is halved after the multiply by g, as the least subnormal
            # beta halves to 0.
            # At beta = 2 every power is exact: u is alpha*d*d and g is 1
            h = arr ** (b / 2.0)
            u = a * h * h
            g = arr ** ((b / 2.0 - 1.0) / 2.0)
            out = b * g / 2.0 * (np.sqrt(2.0 * a) / np.sqrt(1.0 + u / 2.0)) * g
            # where u overflows the quotient is beta/d to far below one ulp
            out = np.where(np.isinf(u), b / arr, out)
    return out if np.ndim(out) else float(out)


def weight_z(d, alpha: float = 1.0):
    """Per-pair gradient weight 2*alpha*d / sqrt((1 + alpha*d^2)^2 - 1).

    Evaluated in the cancellation-free equivalent form
    sqrt(2*alpha) / sqrt(1 + alpha*d^2/2), which returns the analytic
    d -> 0 limit sqrt(2*alpha) exactly, with no special case. Strictly
    decreasing in d: well-matched pairs keep their pull while far
    outliers are damped. Where alpha*d^2 overflows it returns the
    asymptote 2/d, finite and without a warning.
    """
    return transform_derivative(TransformSpec("hyper", alpha, 2.0), d)


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
) -> SetDistanceReport:
    """Symmetric Chamfer-style set distance under spec's transform.

    Means of the transformed nearest-neighbor distances in both
    directions; each direction is normalized by its own cloud size. A
    precomputed match for (a, b) can be passed to amortize matching
    across several transforms.
    """
    if match is None:
        match = match_indexed(a, b)
    d1 = float(np.mean(transform(spec, np.sqrt(match.fwd_sq))))
    d2 = float(np.mean(transform(spec, np.sqrt(match.bwd_sq))))
    return SetDistanceReport(d1 + d2, d1, d2, match)


def _ball_sq(points) -> tuple[np.ndarray, np.ndarray]:
    """|p|^2 of each row, summed in pair_sq's order, and the one unit-ball test: below 1."""
    sq = pair_sq(points, 0.0)
    return sq, sq < 1.0


def _ball_inv(name: str, points) -> np.ndarray:
    """1 / (1 - |p|^2) of each row of points; ValueError unless all lie strictly inside."""
    sq, inside = _ball_sq(points)
    if not inside.all():
        raise ValueError(
            f"{name} is not strictly inside the unit ball "
            f"(max norm {np.sqrt(sq.max()):.6g}); clip_to_ball first"
        )
    return 1.0 / (1.0 - sq)


def _ball_u(sq, inv_p, inv_q):
    """Ball score 2*sq*(inv_p*inv_q), in place in an array sq; the geodesic is arccosh(1 + u)."""
    sq *= 2.0
    sq *= inv_p * inv_q
    return sq


def poincare_distance(p, q) -> float:
    """Geodesic distance between two points strictly inside the unit ball.

    arccosh(1 + 2*||p-q||^2 / ((1-||p||^2)*(1-||q||^2))), the pair term of
    chamfer_poincare bit for bit. Points on or outside the boundary have
    no finite geodesic and are rejected; see clip_to_ball for pulling a
    cloud into the domain first.
    """
    p = as_point(p)
    q = as_point(q)
    u = _ball_u(pair_sq(p, q), _ball_inv("first point", p), _ball_inv("second point", q))
    return acosh1p(u)


def clip_to_ball(cloud: PointCloud, max_norm: float = 0.999) -> PointCloud:
    """Radially scale any point with norm above max_norm down onto that radius.

    Deliberately a separate, explicit step: the ball-model distance never
    clips on its own. Every point of the result passes its unit-ball test.
    """
    if not 0.0 < max_norm < 1.0:
        raise ValueError(f"max_norm must be in (0, 1), got {max_norm}")
    norms = np.sqrt(_ball_sq(cloud.points)[0])
    over = norms > max_norm
    if not over.any():
        return cloud
    pts = cloud.points.copy()
    pts[over] *= (max_norm / norms[over])[:, None]
    # the scaling rounds, so with max_norm within a few ulp of 1 a scaled
    # row can still fail the unit-ball test: step it inwards until it passes
    while not (inside := _ball_sq(pts)[1]).all():
        pts[~inside] = np.nextafter(pts[~inside], 0.0)
    return PointCloud(pts)


def chamfer_poincare(a: PointCloud, b: PointCloud) -> SetDistanceReport:
    """Chamfer aggregation with the ball-model geodesic as pair distance.

    The geodesic is not a monotone function of Euclidean distance when
    points differ in norm, so the minimization scans all pairs directly
    instead of reusing the Euclidean matchers. Both clouds must lie
    strictly inside the unit ball.
    """
    A, B = a.points, b.points
    inv_a = _ball_inv("first cloud", A)
    inv_b = _ball_inv("second cloud", B)

    def ball_u(sq, rows):  # increasing in the geodesic: acosh goes to the winners only
        return _ball_u(sq, inv_a[rows, None], inv_b)

    fwd_idx, fwd_u, bwd_idx, bwd_u = _argmin_both(A, B, ball_u)
    d1 = float(np.mean(acosh1p(fwd_u)))
    d2 = float(np.mean(acosh1p(bwd_u)))
    match = MatchResult(fwd_idx, pair_sq(A, B[fwd_idx]), bwd_idx, pair_sq(A[bwd_idx], B))
    return SetDistanceReport(d1 + d2, d1, d2, match)
