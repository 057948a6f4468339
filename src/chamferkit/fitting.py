"""Gradient-descent alignment of a movable cloud onto a fixed target."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud import MAX_ABS_COORD, PointCloud
from .distances import TransformSpec, chamfer
from .gradients import chamfer_gradient
from .io import write_csv
from .matching import MatchResult, match_indexed

_L1_SPEC = TransformSpec("l1")


class DivergenceError(RuntimeError):
    """Optimization produced a non-finite loss or coordinates."""

    def __init__(self, epoch: int, message: str):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


@dataclass(frozen=True)
class FitConfig:
    """Plain gradient descent settings.

    snapshot_epochs asks for (epoch, cloud, correspondence) records taken
    before the update of that epoch; epoch == epochs means the final
    state. learning_rate 0 is allowed and leaves the cloud untouched,
    useful as a no-op baseline.
    """

    spec: TransformSpec
    learning_rate: float
    epochs: int
    snapshot_epochs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "snapshot_epochs", tuple(int(e) for e in self.snapshot_epochs))
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        for e in self.snapshot_epochs:
            if not 0 <= e <= self.epochs:
                raise ValueError(f"snapshot epoch {e} outside [0, {self.epochs}]")


@dataclass
class FitTrajectory:
    """Everything a fit run produced.

    losses[e] and l1_cd[e] are evaluated on the state entering epoch e,
    before its update; final_l1_cd is evaluated on the state after the
    last update. snapshots hold (epoch, movable cloud, correspondence)
    for the requested epochs, in ascending epoch order.
    """

    config: FitConfig
    target: PointCloud
    losses: np.ndarray
    l1_cd: np.ndarray
    final_cloud: PointCloud
    final_l1_cd: float
    snapshots: list[tuple[int, PointCloud, MatchResult]] = field(default_factory=list)


def fit(initial: PointCloud, target: PointCloud, config: FitConfig) -> FitTrajectory:
    """Descend chamfer(movable, target, config.spec) from initial.

    Matches and scores each of the states 0..epochs afresh; every state
    but the last then takes the update movable -= lr * grad. Raises
    DivergenceError the moment the loss leaves the finite range or any
    coordinate leaves the matchers' range |x| <= MAX_ABS_COORD.
    Deterministic: same inputs, same trajectory.
    """
    wanted = set(config.snapshot_epochs)
    current = initial.points.copy()
    losses = np.empty(config.epochs)
    l1_cd = np.empty(config.epochs)
    snapshots: list[tuple[int, PointCloud, MatchResult]] = []

    for epoch in range(config.epochs + 1):
        cloud = PointCloud(current)
        # overflow during the step is the divergence signal itself; the
        # finiteness checks below turn it into a DivergenceError
        with np.errstate(over="ignore"):
            match = match_indexed(cloud, target)
            l1 = chamfer(cloud, target, _L1_SPEC, match=match).value
            if epoch in wanted:
                snapshots.append((epoch, cloud, match))
            if epoch == config.epochs:
                break
            grad = chamfer_gradient(cloud, target, config.spec, match=match)
            if not np.isfinite(grad.loss_value):
                raise DivergenceError(epoch, f"loss is {grad.loss_value}")
            losses[epoch] = grad.loss_value
            l1_cd[epoch] = l1
            current = current - config.learning_rate * grad.vectors
        if not (np.abs(current) <= MAX_ABS_COORD).all():  # NaN fails too
            raise DivergenceError(
                epoch, f"update produced coordinates non-finite or beyond {MAX_ABS_COORD:g}"
            )

    return FitTrajectory(
        config=config,
        target=target,
        losses=losses,
        l1_cd=l1_cd,
        final_cloud=cloud,
        final_l1_cd=l1,
        snapshots=snapshots,
    )


@dataclass(frozen=True)
class SweepResult:
    """final_l1_cd[i, j] for alphas[i] x learning_rates[j]; failures are
    NaN cells with the reason kept in errors[(i, j)]."""

    alphas: tuple[float, ...]
    learning_rates: tuple[float, ...]
    final_l1_cd: np.ndarray
    errors: dict[tuple[int, int], str]


def sweep_alpha_lr(
    initial: PointCloud,
    target: PointCloud,
    alphas,
    learning_rates,
    epochs: int,
) -> SweepResult:
    """Grid of hyperbolic (beta = 2) fits over alpha x learning rate.

    Each cell runs an independent fit from the same initial cloud and
    records the final plain-l1 chamfer value, the common currency for
    comparing runs trained under different alphas. An alpha TransformSpec
    rejects raises ValueError before any cell runs; divergent cells, and
    cells with an invalid learning rate, become NaN instead of aborting
    the sweep.
    """
    alphas = tuple(float(a) for a in alphas)
    learning_rates = tuple(float(lr) for lr in learning_rates)
    if not alphas or not learning_rates:
        raise ValueError("alphas and learning_rates must be non-empty")
    specs = [TransformSpec("hyper", alpha=alpha, beta=2.0) for alpha in alphas]
    grid = np.full((len(alphas), len(learning_rates)), np.nan)
    errors: dict[tuple[int, int], str] = {}
    for i, spec in enumerate(specs):
        for j, lr in enumerate(learning_rates):
            try:
                config = FitConfig(spec=spec, learning_rate=lr, epochs=epochs)
                grid[i, j] = fit(initial, target, config).final_l1_cd
            except (ValueError, DivergenceError) as exc:
                errors[(i, j)] = str(exc)
    return SweepResult(alphas, learning_rates, grid, errors)


def export_correspondences(trajectory: FitTrajectory, out_dir) -> list[Path]:
    """Write one CSV per snapshot pairing each movable point with its match.

    Columns movable_x..movable_z, target_x..target_z, one row per movable
    point, named correspondence_epoch_NNNN.csv under out_dir. Returns the
    paths written. A trajectory without snapshots is an error.
    """
    if not trajectory.snapshots:
        raise ValueError("trajectory has no snapshots to export")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    header = ["movable_x", "movable_y", "movable_z", "target_x", "target_y", "target_z"]
    for epoch, cloud, match in trajectory.snapshots:
        path = out / f"correspondence_epoch_{epoch:04d}.csv"
        matched = trajectory.target.points[match.fwd_idx]
        write_csv(path, header, np.hstack([cloud.points, matched]))
        paths.append(path)
    return paths


def write_loss_csv(trajectory: FitTrajectory, path) -> None:
    """Per-epoch training loss and plain-l1 chamfer, one row per epoch."""
    rows = zip(range(len(trajectory.losses)), trajectory.losses, trajectory.l1_cd)
    write_csv(path, ["epoch", "loss", "l1_cd"], rows)


def write_sweep_csv(result: SweepResult, path) -> None:
    """Matrix CSV: one row per alpha, one column per learning rate."""
    rows = (
        [alpha, *(None if np.isnan(v) else v for v in cells)]
        for alpha, cells in zip(result.alphas, result.final_l1_cd)
    )
    write_csv(path, ["alpha", *result.learning_rates], rows)
