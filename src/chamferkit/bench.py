"""Wall-clock benchmark of full set-distance evaluations.

Times the whole pipeline per kind (matching, transform, aggregation) on
shared random cloud pairs. A cloud keeps its kd-tree once matched, so
each timed full call takes fresh copies of the pair, made outside the
timer, and builds both trees itself. Rounds are interleaved: every
configuration runs once per round, so machine-load drift lands on all of
them equally rather than biasing whichever ran last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, _one_of, _whole
from .distances import TRANSFORM_KINDS, TransformSpec, chamfer, chamfer_poincare
from .matching import match_indexed

BENCH_KINDS = TRANSFORM_KINDS + ("poincare",)
DEFAULT_KINDS = ("l2", "hyper", "poincare")

MIN_REPEATS = 3


@dataclass(frozen=True)
class BenchEntry:
    kind: str
    phase: str  # 'full' pipeline, or 'transform': chamfer on a precomputed match
    n_a: int
    n_b: int
    repeats: int
    mean_s: float
    std_s: float


@dataclass(frozen=True)
class BenchReport:
    entries: list[BenchEntry]
    seed: int

    def entry(self, kind: str, phase: str = "full", n_a: int | None = None) -> BenchEntry:
        for e in self.entries:
            if e.kind == kind and e.phase == phase and (n_a is None or e.n_a == n_a):
                return e
        raise KeyError(f"no bench entry for kind={kind!r} phase={phase!r} n_a={n_a}")


def _bench_cloud(rng: np.random.Generator, n: int) -> PointCloud:
    # uniform in [-0.45, 0.45]^3 keeps every norm below 1, so the same
    # pair serves the ball-model kind too
    return PointCloud(rng.uniform(-0.45, 0.45, size=(n, 3)))


def run_bench(
    sizes,
    kinds=DEFAULT_KINDS,
    repeats: int = 10,
    warmup: int = 2,
    seed: int = 0,
) -> BenchReport:
    """Benchmark each kind at each (n, n) size; returns mean and std per config.

    sizes, repeats, warmup and seed must be whole numbers. repeats below 3 would
    make the spread estimate meaningless and is rejected. Warmup rounds run
    the full schedule but are discarded.
    """
    sizes = [_whole("size", n) for n in sizes]
    repeats, warmup = _whole("repeats", repeats), _whole("warmup", warmup)
    seed = _whole("seed", seed)
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive")
    if repeats < MIN_REPEATS:
        raise ValueError(f"repeats must be at least {MIN_REPEATS}, got {repeats}")
    if warmup < 1:
        raise ValueError("at least one warmup round is required")
    for kind in kinds:
        _one_of("bench kind", kind, BENCH_KINDS)

    rng = np.random.default_rng(seed)
    configs = []  # (kind, phase, n, callable on the pair, pair)
    for n in sizes:
        pair = (_bench_cloud(rng, n), _bench_cloud(rng, n))
        shared_match = match_indexed(*pair)
        for kind in kinds:
            if kind == "poincare":
                configs.append((kind, "full", n, chamfer_poincare, pair))
            else:
                spec = TransformSpec(kind)
                configs.append((kind, "full", n, lambda a, b, s=spec: chamfer(a, b, s), pair))
                configs.append(
                    (kind, "transform", n, lambda a, b, s=spec, m=shared_match: chamfer(a, b, s, m), pair)
                )

    samples: list[list[float]] = [[] for _ in configs]
    for round_no in range(warmup + repeats):
        for slot, (_, phase, _, fn, (a, b)) in enumerate(configs):
            if phase == "full":
                a, b = PointCloud(a.points), PointCloud(b.points)
            t0 = time.perf_counter()
            fn(a, b)
            dt = time.perf_counter() - t0
            if round_no >= warmup:
                samples[slot].append(dt)

    entries = []
    for (kind, phase, n, _, _), times in zip(configs, samples):
        arr = np.array(times)
        entries.append(
            BenchEntry(
                kind=kind,
                phase=phase,
                n_a=n,
                n_b=n,
                repeats=repeats,
                mean_s=float(arr.mean()),
                std_s=float(arr.std(ddof=1)),
            )
        )
    return BenchReport(entries=entries, seed=seed)
