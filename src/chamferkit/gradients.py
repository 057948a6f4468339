"""Analytic gradients of the set distances, and the per-pair weight curves.

The set distance is piecewise smooth: wherever no matched pair sits at
zero distance and no match is tied, the correspondence is locally
constant and the gradient is the fixed-match derivative computed here.
finite_diff_gradient exists to check that regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, _positive
from .distances import TransformSpec, chamfer, transform, transform_derivative
from .matching import MatchResult, match_brute, match_indexed


@dataclass(frozen=True)
class GradientField:
    """Per-point gradient vectors (same shape as the cloud) and the loss."""

    vectors: np.ndarray
    loss_value: float


def chamfer_gradient(
    movable: PointCloud,
    target: PointCloud,
    spec: TransformSpec,
    match: MatchResult | None = None,
) -> GradientField:
    """Gradient of chamfer(movable, target, spec) in the movable points.

    Holds the correspondence fixed (valid wherever matches are untied)
    and applies the chain rule: each pair contributes
    t'(d)/|cloud| times the unit vector between its endpoints, summed
    over the forward term and the scattered backward term. Pairs at
    exactly zero distance have no defined direction and contribute
    nothing.
    """
    if match is None:
        match = match_indexed(movable, target)
    A, B = movable.points, target.points
    n, m = len(A), len(B)

    grad = np.zeros_like(A)
    d_f = np.sqrt(match.fwd_sq)
    d_b = np.sqrt(match.bwd_sq)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coef_f = np.where(d_f > 0, transform_derivative(spec, d_f) / d_f, 0.0) / n
        coef_b = np.where(d_b > 0, transform_derivative(spec, d_b) / d_b, 0.0) / m
    # pulls built in place, with coef * (A - B[fwd_idx])'s bits; grad starts at +0
    pull = B.take(match.fwd_idx, axis=0)
    np.subtract(A, pull, out=pull)
    pull *= coef_f[:, None]
    grad += pull
    # one 1-D scatter per coordinate: each element still accumulates in
    # occurrence order, as a 2-D np.add.at would, at a fraction of its cost
    pull = A.take(match.bwd_idx, axis=0)
    pull -= B
    pull *= coef_b[:, None]
    for c in range(3):
        np.add.at(grad[:, c], match.bwd_idx, pull[:, c])

    loss = chamfer(movable, target, spec, match=match).value
    return GradientField(grad, loss)


def finite_diff_gradient(
    movable: PointCloud, target: PointCloud, spec: TransformSpec, h: float = 1e-5
) -> GradientField:
    """Central-difference gradient, the oracle chamfer_gradient is checked against.

    Re-solves the matching from scratch at every perturbed configuration
    (via the exhaustive matcher, independent of the spatial index), so it
    sees the true loss landscape rather than a fixed correspondence.
    O(n * m * n) and meant for tests, not training loops.
    """
    _positive("step h", h)
    base = movable.points

    def value(pts: np.ndarray) -> float:
        cloud = PointCloud(pts)
        return chamfer(cloud, target, spec, match=match_brute(cloud, target)).value

    g = np.empty_like(base)
    for i in range(base.shape[0]):
        for c in range(3):
            pts = base.copy()
            pts[i, c] = base[i, c] + h
            hi = value(pts)
            pts[i, c] = base[i, c] - h
            lo = value(pts)
            g[i, c] = (hi - lo) / (2.0 * h)
    return GradientField(g, value(base))


@dataclass(frozen=True)
class CurveRow:
    """One sampled point of a transform curve: value and derivative at d."""

    kind: str
    alpha: float
    beta: float
    d: float
    value: float
    grad: float
    grad_normalized: float | None


def default_curve_specs() -> list[TransformSpec]:
    """The stock comparison family: identity, square, two saturating
    exponentials, and three hyperbolic growth rates, all at alpha = 1."""
    return [
        TransformSpec("l1"),
        TransformSpec("l2"),
        TransformSpec("exp", alpha=1.0, beta=1.0),
        TransformSpec("exp", alpha=1.0, beta=2.0),
        TransformSpec("hyper", alpha=1.0, beta=1.0),
        TransformSpec("hyper", alpha=1.0, beta=2.0),
        TransformSpec("hyper", alpha=1.0, beta=3.0),
    ]


def _checked_grid(d_grid) -> np.ndarray:
    d = np.asarray(d_grid, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("d_grid must be a non-empty 1-D array")
    if not (d >= 0).all():
        raise ValueError("d_grid must be non-negative")
    if d.size > 1 and not (np.diff(d) > 0).all():
        raise ValueError("d_grid must be strictly increasing")
    return d


def sample_curves(
    specs, d_grid, normalize: bool = True
) -> list[CurveRow]:
    """Sample value and derivative of each spec over a shared distance grid.

    With normalize on, rows of 'hyper' specs with beta = 2 also carry the
    derivative divided by its d = 0 value sqrt(2*alpha), so curves for
    different alpha all start at 1 and their decay is comparable; the
    column is None for every other kind.
    """
    d = _checked_grid(d_grid)
    rows: list[CurveRow] = []
    for spec in specs:
        values = np.atleast_1d(transform(spec, d))
        grads = np.atleast_1d(transform_derivative(spec, d))
        norm = None
        if normalize and spec.kind == "hyper" and spec.beta == 2.0:
            norm = grads / transform_derivative(spec, 0.0)
        for i in range(d.size):
            rows.append(
                CurveRow(
                    spec.kind,
                    spec.alpha,
                    spec.beta,
                    float(d[i]),
                    float(values[i]),
                    float(grads[i]),
                    float(norm[i]) if norm is not None else None,
                )
            )
    return rows
