"""Reconstruction quality metrics: chamfer values, F-score, Hausdorff."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud, bounding_box
from .distances import TransformSpec, chamfer
from .matching import MatchResult, match_indexed

THRESHOLD_MODES = ("absolute", "percent")


@dataclass(frozen=True)
class EvalReport:
    """Standard metric bundle for a predicted cloud against ground truth."""

    cd_l1: float
    cd_l2: float
    fscore: float
    fscore_threshold: float
    hausdorff: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def fscore(
    a: PointCloud,
    b: PointCloud,
    threshold: float,
    match: MatchResult | None = None,
) -> float:
    """Harmonic mean of precision and recall at a distance threshold.

    Precision is the fraction of a-points whose nearest b-point lies
    strictly closer than the threshold; recall the same for b against a.
    Returns 0 when both are 0. Ranges over [0, 1], higher is better.
    """
    if not 0 < threshold < np.inf:  # NaN fails too
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    if match is None:
        match = match_indexed(a, b)
    precision = float(np.mean(np.sqrt(match.fwd_sq) < threshold))
    recall = float(np.mean(np.sqrt(match.bwd_sq) < threshold))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def hausdorff(a: PointCloud, b: PointCloud, match: MatchResult | None = None) -> float:
    """Symmetric Hausdorff distance: the worst nearest-neighbor distance.

    Max over both directions of the largest matched distance; a single
    stray point dominates it, which is the point of reporting it next to
    the mean-based chamfer values.
    """
    if match is None:
        match = match_indexed(a, b)
    return float(np.sqrt(max(match.fwd_sq.max(), match.bwd_sq.max())))


def evaluate(
    pred: PointCloud,
    gt: PointCloud,
    threshold_mode: str = "percent",
    threshold: float = 1.0,
) -> EvalReport:
    """Bundle of cd_l1, cd_l2, F-score and Hausdorff for pred against gt.

    threshold_mode 'absolute' uses the threshold as a raw distance;
    'percent' resolves it as a percentage of the ground-truth bounding
    box diagonal (the default 1.0 means 1 percent), which keeps scores
    comparable across differently sized scenes.
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ValueError(
            f"unknown threshold_mode {threshold_mode!r}, expected one of {THRESHOLD_MODES}"
        )
    if not 0 < threshold < np.inf:  # NaN fails too
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    if threshold_mode == "percent":
        diag = bounding_box(gt).diagonal
        if diag <= 0:
            raise ValueError("ground-truth bounding box is degenerate; use an absolute threshold")
        resolved = threshold / 100.0 * diag
        if resolved == np.inf:
            raise ValueError(f"threshold {threshold} percent of the diagonal {diag} overflows")
    else:
        resolved = threshold
    match = match_indexed(pred, gt)
    cd_l1 = chamfer(pred, gt, TransformSpec("l1"), match=match).value
    cd_l2 = chamfer(pred, gt, TransformSpec("l2"), match=match).value
    return EvalReport(
        cd_l1=cd_l1,
        cd_l2=cd_l2,
        fscore=fscore(pred, gt, resolved, match=match),
        fscore_threshold=resolved,
        hausdorff=hausdorff(pred, gt, match=match),
    )
