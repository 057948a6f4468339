"""Gradient-descent alignment of a movable cloud onto a fixed target."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud, _whole, check_coord_range
from .distances import TransformSpec, chamfer
from .gradients import chamfer_gradient
from .matching import MatchResult, _Matcher

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
    state. epochs and snapshot epochs must be whole numbers, and are
    stored as ints. learning_rate 0 is allowed and leaves the cloud
    untouched, useful as a no-op baseline.
    """

    spec: TransformSpec
    learning_rate: float
    epochs: int
    snapshot_epochs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "epochs", _whole("epochs", self.epochs))
        snapshots = tuple(_whole("snapshot epoch", e) for e in self.snapshot_epochs)
        object.__setattr__(self, "snapshot_epochs", snapshots)
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
    losses: np.ndarray
    l1_cd: np.ndarray
    final_cloud: PointCloud
    final_l1_cd: float
    snapshots: list[tuple[int, PointCloud, MatchResult]] = field(default_factory=list)


def fit(initial: PointCloud, target: PointCloud, config: FitConfig) -> FitTrajectory:
    """Descend chamfer(movable, target, config.spec) from initial.

    Matches and scores each of the states 0..epochs; every state but the
    last then takes the update movable -= lr * grad. One matcher serves
    the whole run: it builds the target's kd-tree once and re-queries
    only the rows it cannot settle from earlier states, by the rules in
    chamferkit.matching, so every match equals match_indexed's, bit for
    bit. Raises DivergenceError the moment the loss leaves the finite
    range or any coordinate leaves PointCloud's range |x| <= MAX_ABS_COORD.
    Deterministic: same inputs, same trajectory.
    """
    wanted = set(config.snapshot_epochs)
    current = initial.points.copy()
    losses = np.empty(config.epochs)
    l1_cd = np.empty(config.epochs)
    snapshots: list[tuple[int, PointCloud, MatchResult]] = []
    matcher = _Matcher(target)

    for epoch in range(config.epochs + 1):
        cloud = PointCloud(current)
        # overflow during the step is the divergence signal itself; the
        # finiteness checks below turn it into a DivergenceError
        with np.errstate(over="ignore"):
            match = matcher.match(cloud)
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
        try:
            check_coord_range("updated cloud", current)
        except ValueError as exc:
            raise DivergenceError(epoch, str(exc)) from None

    return FitTrajectory(
        config=config,
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
    rejects, or epochs FitConfig rejects, raises ValueError before any
    cell runs; divergent cells, and cells with an invalid learning rate,
    become NaN instead of aborting the sweep.
    """
    alphas = tuple(float(a) for a in alphas)
    learning_rates = tuple(float(lr) for lr in learning_rates)
    if not alphas or not learning_rates:
        raise ValueError("alphas and learning_rates must be non-empty")
    specs = [TransformSpec("hyper", alpha=alpha, beta=2.0) for alpha in alphas]
    FitConfig(spec=specs[0], learning_rate=0.0, epochs=epochs)  # checks epochs; lr 0 always passes
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
