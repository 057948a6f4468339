import csv

import numpy as np
import pytest

from chamferkit import (
    DivergenceError,
    FitConfig,
    GradientField,
    PointCloud,
    TransformSpec,
    chamfer,
    chamfer_gradient,
    export_correspondences,
    fit,
    gen_shape,
    jitter_cloud,
    match_indexed,
    sweep_alpha_lr,
    write_loss_csv,
    write_sweep_csv,
)
from chamferkit import fitting

from testutil import uniform_cloud

L1 = TransformSpec("l1")
L2 = TransformSpec("l2")
HYPER = TransformSpec("hyper", 1.0, 2.0)


def jittered_sphere(n=128, sigma=0.1, seed=7):
    clean = gen_shape("sphere-surface", n, seed=seed)
    return jitter_cloud(clean, sigma, seed=seed + 1), clean


class TestFitConfig:
    def test_accepts_zero_learning_rate(self):
        cfg = FitConfig(spec=L2, learning_rate=0.0, epochs=1)
        assert cfg.learning_rate == 0.0

    def test_rejects_bad_learning_rate(self):
        for lr in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                FitConfig(spec=L2, learning_rate=lr, epochs=1)

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            FitConfig(spec=L2, learning_rate=0.1, epochs=0)

    def test_snapshot_epochs_coerced_and_bounded(self):
        cfg = FitConfig(spec=L2, learning_rate=0.1, epochs=5, snapshot_epochs=[0, 2, 5])
        assert cfg.snapshot_epochs == (0, 2, 5)
        with pytest.raises(ValueError, match="snapshot"):
            FitConfig(spec=L2, learning_rate=0.1, epochs=5, snapshot_epochs=(6,))
        with pytest.raises(ValueError, match="snapshot"):
            FitConfig(spec=L2, learning_rate=0.1, epochs=5, snapshot_epochs=(-1,))


class TestFit:
    def test_already_aligned_cloud_stays_put(self):
        rng = np.random.default_rng(50)
        c = uniform_cloud(rng, 40)
        traj = fit(c, c, FitConfig(spec=L2, learning_rate=0.1, epochs=3))
        np.testing.assert_array_equal(traj.losses, np.zeros(3))
        assert traj.final_cloud == c
        assert traj.final_l1_cd == 0.0

    def test_single_point_trajectory_by_hand(self):
        # x' = x - lr * 4 * (x - 1), both chamfer terms move the same point
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0]])
        traj = fit(a, b, FitConfig(spec=L2, learning_rate=0.1, epochs=3))
        np.testing.assert_allclose(traj.losses, [2.0, 0.72, 0.2592], rtol=1e-12)
        np.testing.assert_allclose(traj.l1_cd, [2.0, 1.2, 0.72], rtol=1e-12)
        assert traj.final_cloud.points[0, 0] == pytest.approx(0.784, rel=1e-12)
        assert traj.final_cloud.points[0, 1] == 0.0
        assert traj.final_l1_cd == pytest.approx(0.432, rel=1e-12)

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(51)
        a = uniform_cloud(rng, 30)
        b = uniform_cloud(rng, 25)
        traj = fit(a, b, FitConfig(spec=HYPER, learning_rate=0.0, epochs=4))
        assert traj.final_cloud == a
        np.testing.assert_array_equal(traj.losses, np.full(4, traj.losses[0]))
        assert traj.final_l1_cd == traj.l1_cd[0]

    def test_logged_series_shapes_and_first_entries(self):
        rng = np.random.default_rng(52)
        a = uniform_cloud(rng, 20)
        b = uniform_cloud(rng, 20)
        traj = fit(a, b, FitConfig(spec=HYPER, learning_rate=0.01, epochs=6))
        assert traj.losses.shape == (6,)
        assert traj.l1_cd.shape == (6,)
        assert traj.losses[0] == chamfer(a, b, HYPER).value
        assert traj.l1_cd[0] == chamfer(a, b, L1).value
        assert traj.target == b

    def test_noisy_sphere_alignment_improves(self):
        noisy, clean = jittered_sphere()
        traj = fit(noisy, clean, FitConfig(spec=HYPER, learning_rate=0.05, epochs=200))
        assert traj.final_l1_cd < traj.l1_cd[0]
        assert traj.losses[-1] < traj.losses[0]

    def test_divergence_reports_epoch(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0]])
        with pytest.raises(DivergenceError, match="epoch") as exc_info:
            fit(a, b, FitConfig(spec=L2, learning_rate=1e3, epochs=500))
        assert exc_info.value.epoch >= 1

    def test_overflowing_update_diverges_at_epoch_0(self):
        a = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        b = PointCloud([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        with pytest.raises(DivergenceError, match="updated cloud has a coordinate") as exc_info:
            fit(a, b, FitConfig(spec=L2, learning_rate=1e308, epochs=5))
        assert exc_info.value.epoch == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2e150])
    def test_non_finite_or_out_of_range_update_diverges(self, monkeypatch, bad):
        # the loss stays finite, so only the range check can catch the update
        a = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        b = PointCloud([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        calls = []

        def gradient(cloud, target, spec, match):
            calls.append(len(calls))
            vectors = np.zeros_like(cloud.points)
            vectors[1, 2] = bad if len(calls) == 2 else 0.0
            return GradientField(vectors, 1.0)

        monkeypatch.setattr(fitting, "chamfer_gradient", gradient)
        with pytest.raises(DivergenceError) as exc_info:
            fit(a, b, FitConfig(spec=L2, learning_rate=1.0, epochs=5))
        assert exc_info.value.epoch == 1
        assert "beyond the supported 1e+150" in str(exc_info.value)

    def test_deterministic(self):
        noisy, clean = jittered_sphere(n=64)
        cfg = FitConfig(spec=HYPER, learning_rate=0.02, epochs=20)
        t1 = fit(noisy, clean, cfg)
        t2 = fit(noisy, clean, cfg)
        np.testing.assert_array_equal(t1.losses, t2.losses)
        assert t1.final_cloud == t2.final_cloud
        assert t1.final_l1_cd == t2.final_l1_cd

    def test_matches_hand_loop_bitwise(self):
        # fit is the loop below and nothing more; traced replays of fit
        # rebuild it from these public calls and must get the same bits
        initial, target = jittered_sphere()
        lr, epochs = 0.05, 3
        traj = fit(initial, target, FitConfig(spec=HYPER, learning_rate=lr, epochs=epochs))
        current = initial.points.copy()
        losses, l1_cd = [], []
        for _ in range(epochs):
            cloud = PointCloud(current)
            match = match_indexed(cloud, target)
            losses.append(chamfer(cloud, target, HYPER, match=match).value)
            l1_cd.append(chamfer(cloud, target, L1, match=match).value)
            grad = chamfer_gradient(cloud, target, HYPER, match=match)
            current = current - lr * grad.vectors
        assert np.array_equal(traj.losses, losses)
        assert np.array_equal(traj.l1_cd, l1_cd)
        assert np.array_equal(traj.final_cloud.points, current)
        final = PointCloud(current)
        assert traj.final_l1_cd == chamfer(final, target, L1, match=match_indexed(final, target)).value

    def test_snapshots(self):
        noisy, clean = jittered_sphere(n=32)
        cfg = FitConfig(
            spec=HYPER, learning_rate=0.02, epochs=5, snapshot_epochs=(0, 2, 5)
        )
        traj = fit(noisy, clean, cfg)
        assert [e for e, _, _ in traj.snapshots] == [0, 2, 5]
        first = traj.snapshots[0]
        assert first[1] == noisy
        assert len(first[2].fwd_idx) == len(noisy)
        # epoch == epochs snapshots the state after the last update
        last = traj.snapshots[-1]
        assert last[1] == traj.final_cloud

    def test_no_snapshots_by_default(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        traj = fit(a, a, FitConfig(spec=L2, learning_rate=0.1, epochs=1))
        assert traj.snapshots == []


class TestExportCorrespondences:
    def test_writes_one_csv_per_snapshot(self, tmp_path):
        noisy, clean = jittered_sphere(n=24)
        cfg = FitConfig(
            spec=HYPER, learning_rate=0.02, epochs=8, snapshot_epochs=(0, 4, 8)
        )
        traj = fit(noisy, clean, cfg)
        paths = export_correspondences(traj, tmp_path / "corr")
        assert [p.name for p in paths] == [
            "correspondence_epoch_0000.csv",
            "correspondence_epoch_0004.csv",
            "correspondence_epoch_0008.csv",
        ]
        for path, (epoch, cloud, match) in zip(paths, traj.snapshots):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [
                "movable_x", "movable_y", "movable_z",
                "target_x", "target_y", "target_z",
            ]
            assert len(rows) == 1 + len(noisy)
            movable = np.array([[float(v) for v in r[:3]] for r in rows[1:]])
            matched = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
            np.testing.assert_array_equal(movable, cloud.points)
            np.testing.assert_array_equal(matched, clean.points[match.fwd_idx])

    def test_requires_snapshots(self, tmp_path):
        a = PointCloud([[0.0, 0.0, 0.0]])
        traj = fit(a, a, FitConfig(spec=L2, learning_rate=0.1, epochs=1))
        with pytest.raises(ValueError, match="snapshot"):
            export_correspondences(traj, tmp_path)


class TestSweep:
    def test_single_cell_matches_direct_fit(self):
        noisy, clean = jittered_sphere(n=32)
        result = sweep_alpha_lr(noisy, clean, [1.0], [0.02], epochs=10)
        direct = fit(
            noisy, clean, FitConfig(spec=HYPER, learning_rate=0.02, epochs=10)
        )
        assert result.final_l1_cd.shape == (1, 1)
        assert result.final_l1_cd[0, 0] == direct.final_l1_cd
        assert result.errors == {}

    def test_zero_lr_column_is_initial_distance(self):
        noisy, clean = jittered_sphere(n=32)
        baseline = chamfer(noisy, clean, L1).value
        result = sweep_alpha_lr(noisy, clean, [0.5, 1.0, 2.0], [0.0], epochs=5)
        np.testing.assert_array_equal(result.final_l1_cd[:, 0], np.full(3, baseline))

    def test_grid_shape_and_finiteness(self):
        noisy, clean = jittered_sphere(n=32)
        result = sweep_alpha_lr(
            noisy, clean, [0.5, 1.0], [0.005, 0.02, 0.05], epochs=8
        )
        assert result.alphas == (0.5, 1.0)
        assert result.learning_rates == (0.005, 0.02, 0.05)
        assert result.final_l1_cd.shape == (2, 3)
        assert np.isfinite(result.final_l1_cd).all()
        assert result.errors == {}

    def test_bad_cell_becomes_nan_with_reason(self):
        noisy, clean = jittered_sphere(n=16)
        result = sweep_alpha_lr(noisy, clean, [1.0], [-0.1, 0.01], epochs=3)
        assert np.isnan(result.final_l1_cd[0, 0])
        assert np.isfinite(result.final_l1_cd[0, 1])
        assert (0, 0) in result.errors
        assert "learning_rate" in result.errors[(0, 0)]

    def test_empty_axes_rejected(self):
        noisy, clean = jittered_sphere(n=16)
        with pytest.raises(ValueError):
            sweep_alpha_lr(noisy, clean, [], [0.01], epochs=2)
        with pytest.raises(ValueError):
            sweep_alpha_lr(noisy, clean, [1.0], [], epochs=2)


class TestCsvWriters:
    def test_loss_csv(self, tmp_path):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0]])
        traj = fit(a, b, FitConfig(spec=L2, learning_rate=0.1, epochs=3))
        path = tmp_path / "loss.csv"
        write_loss_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "l1_cd"]
        assert len(rows) == 4
        for e, row in enumerate(rows[1:]):
            assert int(row[0]) == e
            assert float(row[1]) == traj.losses[e]
            assert float(row[2]) == traj.l1_cd[e]

    def test_sweep_csv_with_nan_cell(self, tmp_path):
        noisy, clean = jittered_sphere(n=16)
        result = sweep_alpha_lr(noisy, clean, [0.5, 1.0], [-0.1, 0.01], epochs=2)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "-0.1", "0.01"]
        assert len(rows) == 3
        for i, row in enumerate(rows[1:]):
            assert float(row[0]) == result.alphas[i]
            assert row[1] == ""
            assert float(row[2]) == result.final_l1_cd[i, 1]
