import csv

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chamferkit import (
    DivergenceError,
    FitConfig,
    PointCloud,
    TransformSpec,
    chamfer,
    chamfer_gradient,
    fit,
    gen_shape,
    jitter_cloud,
    match_brute,
    match_indexed,
    write_cloud,
)
from chamferkit import fitting
from chamferkit.cli import main
from chamferkit.fitting import sweep_alpha_lr
from chamferkit.gradients import GradientField
from chamferkit.matching import _TIE_K, _Matcher

from testutil import assert_same_match, uniform_cloud

L1 = TransformSpec("l1")
L2 = TransformSpec("l2")
HYPER = TransformSpec("hyper", 1.0, 2.0)


def jittered_sphere(n=128, sigma=0.1, seed=7):
    clean = gen_shape("sphere-surface", n, seed=seed)
    return jitter_cloud(clean, sigma, seed=seed + 1), clean


def cloud_files(tmp_path, initial, target) -> list[str]:
    """Write the pair as init.xyz and target.xyz; the CLI reads back every bit."""
    paths = [tmp_path / "init.xyz", tmp_path / "target.xyz"]
    for cloud, path in zip((initial, target), paths):
        write_cloud(cloud, path)
    return [str(p) for p in paths]


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

    @pytest.mark.parametrize("epochs", [2.5, float("nan"), float("inf"), "3"])
    def test_rejects_non_integral_epochs(self, epochs):
        with pytest.raises(ValueError, match="epochs must be a whole number"):
            FitConfig(spec=L2, learning_rate=0.1, epochs=epochs)

    def test_rejects_bool_epochs(self):
        with pytest.raises(ValueError, match="epochs must be a whole number, got True"):
            FitConfig(spec=L2, learning_rate=0.1, epochs=True)

    def test_rejects_non_integral_snapshot_epochs(self):
        with pytest.raises(ValueError, match="snapshot epoch must be a whole number, got 1.5"):
            FitConfig(spec=L2, learning_rate=0.1, epochs=5, snapshot_epochs=(0, 1.5))

    def test_whole_number_epochs_become_ints(self):
        cfg = FitConfig(spec=L2, learning_rate=0.1, epochs=3.0, snapshot_epochs=(np.int64(1), 3.0))
        assert (cfg.epochs, cfg.snapshot_epochs) == (3, (1, 3))
        assert all(type(e) is int for e in (cfg.epochs, *cfg.snapshot_epochs))
        c = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert len(fit(c, c, cfg).losses) == 3

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


class TestMatchingAcrossEpochs:
    """fit keeps one matcher for its whole run, which re-queries only the
    rows whose nearest point can have changed; its matches must still be
    match_brute's, bit for bit, at every epoch."""

    def test_target_tree_built_once(self, kd_work):
        noisy, clean = jittered_sphere(n=256)
        fit(noisy, clean, FitConfig(spec=HYPER, learning_rate=0.05, epochs=10))
        assert [np.array_equal(p, clean.points) for p in kd_work.builds].count(True) == 1
        assert 2 <= len(kd_work.builds) <= 12

    def test_fits_and_sweep_cells_share_the_target_tree(self, kd_work):
        # the target keeps its tree, so only the first fit on it builds one
        noisy, clean = jittered_sphere(n=128)
        configs = [FitConfig(spec=HYPER, learning_rate=lr, epochs=5) for lr in (0.02, 0.05)]
        runs = [fit(noisy, clean, config) for config in configs]
        sweep = sweep_alpha_lr(noisy, clean, [0.5, 1.0], [0.02, 0.05], epochs=5)
        assert sweep.errors == {}
        assert [np.array_equal(p, clean.points) for p in kd_work.builds].count(True) == 1
        # a fresh copy of the target builds its own tree, to the same bits
        fresh = fit(noisy, PointCloud(clean.points), configs[1])
        assert fresh.final_cloud == runs[1].final_cloud
        assert fresh.losses.tobytes() == runs[1].losses.tobytes()
        assert sweep.final_l1_cd[1, 1] == fresh.final_l1_cd

    def test_zero_learning_rate_builds_no_tree_after_epoch_0(self, kd_work):
        rng = np.random.default_rng(53)
        a = uniform_cloud(rng, 200)
        b = uniform_cloud(rng, 150)
        config = FitConfig(spec=HYPER, learning_rate=0.0, epochs=5, snapshot_epochs=(5,))
        traj = fit(a, b, config)
        assert len(kd_work.builds) == 2
        assert np.array_equal(kd_work.builds[0], b.points)
        assert np.array_equal(kd_work.builds[1], a.points)
        assert_same_match(traj.snapshots[0][2], match_brute(a, b))

    def test_moving_tree_built_at_few_states(self, kd_work):
        # a stale row is rescored from its list of _TIE_K kd candidates, so
        # kd queries, and the moving cloud's tree, are needed only where a
        # list runs out: here only at epoch 0, where every row is queried
        noisy, clean = jittered_sphere(n=256)
        fit(noisy, clean, FitConfig(spec=HYPER, learning_rate=0.05, epochs=20))
        assert len(kd_work.builds) <= 4  # the target's tree and the moving cloud's, of 21 states
        assert sum(rows for _, rows, _ in kd_work.queries) <= 2 * 256 + 25

    @pytest.mark.parametrize("layout", ["8 copies", "1e-155"])
    def test_requery_queries_each_row_once(self, kd_work, layout):
        # a re-queried row takes one kd query, at k = _TIE_K, whose list
        # settles its tie where it can; no row takes a second, k = 2, query
        # where more than _TIE_K points tie, nor where squares underflow and
        # a list settles only beyond the underflow margin. Only the tie
        # pass's bounded queries come on top.
        rng = np.random.default_rng(20261019)
        base = rng.uniform(0.0, 1.0, (40, 3))
        cloud = np.vstack([rng.uniform(0.0, 1.0, (120, 3)), base])
        if layout == "8 copies":
            scale, target = 1.0, np.repeat(base, 8, axis=0)[rng.permutation(320)]
        else:
            scale, target = 1e-155, rng.uniform(0.0, 1.0, (160, 3))
        target = PointCloud(target * scale)
        matcher = _Matcher(target)
        for _ in range(4):
            state = PointCloud(cloud * scale)
            assert_same_match(matcher.match(state), match_brute(state, target))
            cloud[:120] += rng.normal(0.0, 1e-3, (120, 3))
        ks = [k for k, _, bounded in kd_work.queries if not bounded]
        assert ks and set(ks) == {_TIE_K}

    @seed(20261025)
    @settings(max_examples=160, deadline=5000, database=None)
    @given(
        st.sampled_from(
            [
                "uniform",
                "duplicated",
                "shifted grid",
                "shifted lattice",
                "8 copies",
                "one-point target",
                "few-point target",
                "one-point cloud",
            ]
        ),
        st.sampled_from([0.0, 1e-6, 0.5, 2.0]),
        st.sampled_from([1e-155, 1.0, 1e149]),
        st.sampled_from([HYPER, L1]),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
    )
    def test_every_epoch_equals_brute(self, layout, lr, scale, spec, epochs, cloud_seed):
        # duplicated targets and the half-spacing grid shift tie, so those
        # rows are never kept; the lattice's cell centres and 8 copies of a
        # point tie with more targets than a candidate list holds; targets
        # of fewer than _TIE_K points pad every list; one-point clouds have
        # no runner-up (d2 = inf); at 1e-155 every square is subnormal, where
        # the list and keep tests take the underflow margin. Snapshots are
        # compared after the run, so a later epoch must also have left every
        # earlier one as it was returned.
        rng = np.random.default_rng(cloud_seed)
        n, m = (int(k) for k in rng.integers(1, 80, 2))
        initial, target = rng.uniform(0.0, 1.0, (n, 3)), rng.uniform(0.0, 1.0, (m, 3))
        if layout == "duplicated":
            target = target[rng.permutation(np.resize(np.arange(m), 3 * m))]
            initial = np.vstack([initial, target[:m]])
        elif layout == "shifted grid":
            target = gen_shape("plane-grid", 64, seed=0).points
            initial = target + [0.5 / 7, 0.5 / 7, 0.0]
        elif layout == "shifted lattice":
            axis = np.arange(4.0) / 4.0
            target = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
            initial = target + 0.125
        elif layout == "8 copies":
            base = target[: m // 8 + 1]
            target = np.repeat(base, 8, axis=0)[rng.permutation(8 * len(base))]
            initial = np.vstack([initial, base])
        elif layout == "one-point target":
            target = target[:1]
        elif layout == "few-point target":
            target = target[: rng.integers(1, 5)]
        elif layout == "one-point cloud":
            initial = initial[:1]
        initial, target = PointCloud(initial * scale), PointCloud(target * scale)
        config = FitConfig(
            spec=spec, learning_rate=lr, epochs=epochs, snapshot_epochs=range(epochs + 1)
        )
        traj = fit(initial, target, config)
        assert len(traj.snapshots) == epochs + 1
        for _, cloud, match in traj.snapshots:
            assert_same_match(match, match_brute(cloud, target))

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_tiny_shifted_grid_every_epoch_equals_brute(self, scale):
        # a grid fit onto itself shifted half a spacing: every row ties 4
        # ways, and at these scales the squared distances are subnormal or 0
        side = 32
        grid = gen_shape("plane-grid", side * side, seed=0).points
        half = 0.5 / (side - 1)
        initial = PointCloud(grid * scale)
        target = PointCloud((grid + [half, half, 0.0]) * scale)
        config = FitConfig(spec=L2, learning_rate=0.05, epochs=3, snapshot_epochs=range(4))
        traj = fit(initial, target, config)
        for _, cloud, match in traj.snapshots:
            assert_same_match(match, match_brute(cloud, target))


class TestExportCorrespondences:
    def test_writes_one_csv_per_snapshot(self, tmp_path, capsys):
        noisy, clean = jittered_sphere(n=24)
        cfg = FitConfig(
            spec=HYPER, learning_rate=0.02, epochs=8, snapshot_epochs=(0, 4, 8)
        )
        traj = fit(noisy, clean, cfg)
        args = ["fit", *cloud_files(tmp_path, noisy, clean), "--lr", "0.02", "--epochs", "8"]
        outdir = tmp_path / "corr"
        assert main(args + ["--snapshots", "0,4,8", "--outdir", str(outdir)]) == 0
        paths = [outdir / f"correspondence_epoch_{e:04d}.csv" for e in (0, 4, 8)]
        # listed last, in epoch order
        assert capsys.readouterr().out.splitlines()[-3:] == [f"wrote {p}" for p in paths]
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
    def test_loss_csv(self, tmp_path, capsys):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0]])
        traj = fit(a, b, FitConfig(spec=L2, learning_rate=0.1, epochs=3))
        args = ["fit", *cloud_files(tmp_path, a, b), "--kind", "l2", "--lr", "0.1"]
        assert main(args + ["--epochs", "3", "--outdir", str(tmp_path)]) == 0
        path = tmp_path / "loss.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "l1_cd"]
        assert len(rows) == 4
        for e, row in enumerate(rows[1:]):
            assert int(row[0]) == e
            assert float(row[1]) == traj.losses[e]
            assert float(row[2]) == traj.l1_cd[e]

    def test_sweep_csv_with_nan_cell(self, tmp_path, capsys):
        noisy, clean = jittered_sphere(n=16)
        result = sweep_alpha_lr(noisy, clean, [0.5, 1.0], [-0.1, 0.01], epochs=2)
        path = tmp_path / "sweep.csv"
        args = ["sweep", *cloud_files(tmp_path, noisy, clean), "--alphas", "0.5,1"]
        assert main(args + ["--lrs=-0.1,0.01", "--epochs", "2", "--out", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "-0.1", "0.01"]
        assert len(rows) == 3
        for i, row in enumerate(rows[1:]):
            assert float(row[0]) == result.alphas[i]
            assert row[1] == ""
            assert float(row[2]) == result.final_l1_cd[i, 1]
