import csv
import os

import numpy as np
import pytest

from chamferkit import (
    PointCloud,
    TransformSpec,
    WORKERS_ENV_VAR,
    chamfer,
    chamfer_poincare,
    default_curve_specs,
    evaluate,
    sample_curves,
    sweep_alpha_lr,
    write_cloud,
    write_curves_csv,
    write_sweep_csv,
)
from chamferkit.cli import main

from testutil import uniform_cloud


def write_xyz(path, rows) -> PointCloud:
    cloud = PointCloud(rows)
    write_cloud(cloud, path)
    return cloud


def stdout_fields(captured: str) -> dict[str, str]:
    fields = {}
    for line in captured.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            fields[key] = value
    return fields


@pytest.fixture
def pair_files(tmp_path):
    a = write_xyz(tmp_path / "a.xyz", [[0.0, 0.0, 0.0]])
    b = write_xyz(tmp_path / "b.xyz", [[1.0, 0.0, 0.0]])
    return tmp_path / "a.xyz", tmp_path / "b.xyz", a, b


class TestDistance:
    def test_hyper_value_matches_library_exactly(self, pair_files, capsys):
        fa, fb, a, b = pair_files
        assert main(["distance", str(fa), str(fb)]) == 0
        report = chamfer(a, b, TransformSpec("hyper", 1.0, 2.0))
        fields = stdout_fields(capsys.readouterr().out)
        assert fields["value"] == repr(report.value)
        assert fields["d1"] == repr(report.d1)
        assert fields["d2"] == repr(report.d2)

    def test_l1_hand_value(self, pair_files, capsys):
        fa, fb, _, _ = pair_files
        assert main(["distance", str(fa), str(fb), "--kind", "l1"]) == 0
        assert stdout_fields(capsys.readouterr().out)["value"] == "2.0"

    def test_poincare_kind(self, pair_files, tmp_path, capsys):
        fa = tmp_path / "pa.xyz"
        fb = tmp_path / "pb.xyz"
        a = write_xyz(fa, [[0.0, 0.0, 0.0]])
        b = write_xyz(fb, [[0.5, 0.0, 0.0]])
        assert main(["distance", str(fa), str(fb), "--kind", "poincare"]) == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert fields["value"] == repr(chamfer_poincare(a, b).value)

    def test_scale_display(self, pair_files, capsys):
        fa, fb, a, b = pair_files
        assert main(
            ["distance", str(fa), str(fb), "--kind", "l2", "--scale-display", "1000"]
        ) == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert fields["value"] == "2000.0"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.xyz"
        present = write_xyz(tmp_path / "p.xyz", [[0.0, 0.0, 0.0]])
        assert main(["distance", str(tmp_path / "nope.xyz"), str(tmp_path / "p.xyz")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_kind_is_usage_error(self, pair_files, capsys):
        fa, fb, _, _ = pair_files
        assert main(["distance", str(fa), str(fb), "--kind", "manhattan"]) == 1

    def test_poincare_domain_violation_is_data_error(self, tmp_path, capsys):
        fa = tmp_path / "in.xyz"
        fb = tmp_path / "out.xyz"
        write_xyz(fa, [[0.0, 0.0, 0.0]])
        write_xyz(fb, [[1.5, 0.0, 0.0]])
        assert main(["distance", str(fa), str(fb), "--kind", "poincare"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_coordinates_beyond_range_are_data_error(self, tmp_path, capsys):
        fa = tmp_path / "huge.xyz"
        fb = tmp_path / "small.xyz"
        write_xyz(fa, [[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]])
        write_xyz(fb, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert main(["distance", str(fa), str(fb)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_hyper_at_the_range_limit_is_finite(self, tmp_path, capsys):
        fa = tmp_path / "far.xyz"
        fb = tmp_path / "small.xyz"
        write_xyz(fa, [[1e150, 0.0, 0.0], [0.0, 0.0, 0.0]])
        write_xyz(fb, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert main(["distance", str(fa), str(fb), "--kind", "hyper"]) == 0
        assert np.isfinite(float(stdout_fields(capsys.readouterr().out)["value"]))


class TestCurves:
    def test_default_output_matches_library_bytes(self, tmp_path, capsys):
        cli_path = tmp_path / "cli.csv"
        lib_path = tmp_path / "lib.csv"
        assert main(["curves", "--out", str(cli_path)]) == 0
        rows = sample_curves(default_curve_specs(), np.linspace(0.0, 2.0, 200))
        write_curves_csv(rows, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()
        assert f"wrote {len(rows)} rows" in capsys.readouterr().out

    def test_custom_grid_cross_product(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(
            [
                "curves", "--kinds", "hyper,exp", "--alphas", "0.5,1",
                "--betas", "1,2", "--steps", "5", "--out", str(out),
            ]
        ) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2 * 2 * 5

    def test_no_normalize_blanks_the_column(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(
            ["curves", "--kinds", "hyper", "--betas", "2", "--no-normalize",
             "--out", str(out)]
        ) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(r[6] == "" for r in rows[1:])

    def test_validation_errors(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        assert main(["curves", "--kinds", "cubic", "--out", out]) == 2
        assert main(["curves", "--steps", "1", "--out", out]) == 2
        assert main(["curves", "--dmax", "0", "--out", out]) == 2
        assert main(["curves", "--alphas", "1,zap", "--out", out]) == 2


class TestFit:
    def make_pair(self, tmp_path):
        rng = np.random.default_rng(70)
        init = uniform_cloud(rng, 24)
        target = uniform_cloud(rng, 24)
        write_cloud(init, tmp_path / "init.xyz")
        write_cloud(target, tmp_path / "target.xyz")
        return str(tmp_path / "init.xyz"), str(tmp_path / "target.xyz")

    def test_happy_path_outputs(self, tmp_path, capsys):
        fi, ft = self.make_pair(tmp_path)
        outdir = tmp_path / "run"
        assert main(
            ["fit", fi, ft, "--lr", "0.01", "--epochs", "5", "--outdir", str(outdir)]
        ) == 0
        out = capsys.readouterr().out
        assert (outdir / "loss.csv").exists()
        assert (outdir / "final.xyz").exists()
        final_line = [l for l in out.splitlines() if l.startswith("final l1_cd=")]
        assert len(final_line) == 1
        float(final_line[0].split("=", 1)[1])

    def test_deterministic_bytes(self, tmp_path, capsys):
        fi, ft = self.make_pair(tmp_path)
        args = ["fit", fi, ft, "--lr", "0.01", "--epochs", "5"]
        assert main(args + ["--outdir", str(tmp_path / "r1")]) == 0
        assert main(args + ["--outdir", str(tmp_path / "r2")]) == 0
        for name in ("loss.csv", "final.xyz"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_zero_lr_reproduces_input(self, tmp_path, capsys):
        fi, ft = self.make_pair(tmp_path)
        outdir = tmp_path / "frozen"
        assert main(
            ["fit", fi, ft, "--lr", "0", "--epochs", "1", "--outdir", str(outdir)]
        ) == 0
        assert (outdir / "final.xyz").read_bytes() == open(fi, "rb").read()

    def test_snapshot_files(self, tmp_path, capsys):
        fi, ft = self.make_pair(tmp_path)
        outdir = tmp_path / "snaps"
        assert main(
            [
                "fit", fi, ft, "--lr", "0.01", "--epochs", "4",
                "--snapshots", "0,2,4", "--outdir", str(outdir),
            ]
        ) == 0
        for epoch in (0, 2, 4):
            assert (outdir / f"snapshot_epoch_{epoch:04d}.xyz").exists()
            assert (outdir / f"correspondence_epoch_{epoch:04d}.csv").exists()

    def test_bad_snapshots_are_data_errors(self, tmp_path, capsys):
        fi, ft = self.make_pair(tmp_path)
        base = ["fit", fi, ft, "--lr", "0.01", "--epochs", "4", "--outdir", str(tmp_path / "x")]
        assert main(base + ["--snapshots", "0,two"]) == 2
        assert main(base + ["--snapshots", "9"]) == 2

    def test_missing_lr_is_usage_error(self, tmp_path, capsys):
        fi, ft = self.make_pair(tmp_path)
        assert main(["fit", fi, ft, "--epochs", "4", "--outdir", str(tmp_path / "x")]) == 1


class TestSweep:
    def test_output_matches_library_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        init = uniform_cloud(rng, 20)
        target = uniform_cloud(rng, 20)
        write_cloud(init, tmp_path / "init.xyz")
        write_cloud(target, tmp_path / "target.xyz")
        cli_path = tmp_path / "cli.csv"
        assert main(
            [
                "sweep", str(tmp_path / "init.xyz"), str(tmp_path / "target.xyz"),
                "--alphas", "0.5,1", "--lrs", "0,0.01", "--epochs", "3",
                "--out", str(cli_path),
            ]
        ) == 0
        result = sweep_alpha_lr(init, target, [0.5, 1], [0, 0.01], epochs=3)
        lib_path = tmp_path / "lib.csv"
        write_sweep_csv(result, lib_path)
        assert cli_path.read_bytes() == lib_path.read_bytes()
        assert "wrote 4 cells" in capsys.readouterr().out

    def test_failed_cells_go_to_stderr(self, tmp_path, capsys):
        rng = np.random.default_rng(72)
        write_cloud(uniform_cloud(rng, 10), tmp_path / "init.xyz")
        write_cloud(uniform_cloud(rng, 10), tmp_path / "target.xyz")
        assert main(
            [
                "sweep", str(tmp_path / "init.xyz"), str(tmp_path / "target.xyz"),
                "--alphas", "1", "--lrs=-0.5,0.01", "--epochs", "2",
                "--out", str(tmp_path / "s.csv"),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "(1 failed)" in captured.out
        assert "lr=-0.5" in captured.err


class TestEval:
    def test_report_lines_match_library(self, tmp_path, capsys):
        rng = np.random.default_rng(73)
        pred = uniform_cloud(rng, 40)
        gt = uniform_cloud(rng, 35)
        write_cloud(pred, tmp_path / "pred.xyz")
        write_cloud(gt, tmp_path / "gt.xyz")
        assert main(["eval", str(tmp_path / "pred.xyz"), str(tmp_path / "gt.xyz")]) == 0
        fields = stdout_fields(capsys.readouterr().out)
        report = evaluate(pred, gt)
        for key, value in report.to_dict().items():
            assert fields[key] == repr(value)

    def test_scale_display_touches_only_cd(self, tmp_path, capsys):
        rng = np.random.default_rng(74)
        pred = uniform_cloud(rng, 30)
        gt = uniform_cloud(rng, 30)
        write_cloud(pred, tmp_path / "pred.xyz")
        write_cloud(gt, tmp_path / "gt.xyz")
        assert main(
            [
                "eval", str(tmp_path / "pred.xyz"), str(tmp_path / "gt.xyz"),
                "--scale-display", "1000",
            ]
        ) == 0
        fields = stdout_fields(capsys.readouterr().out)
        report = evaluate(pred, gt)
        assert fields["cd_l1"] == repr(report.cd_l1 * 1000)
        assert fields["cd_l2"] == repr(report.cd_l2 * 1000)
        assert fields["fscore"] == repr(report.fscore)
        assert fields["hausdorff"] == repr(report.hausdorff)

    def test_bad_mode_is_usage_error(self, tmp_path, capsys):
        write_xyz(tmp_path / "c.xyz", [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        f = str(tmp_path / "c.xyz")
        assert main(["eval", f, f, "--threshold-mode", "relative"]) == 1

    def test_degenerate_gt_is_data_error(self, tmp_path, capsys):
        write_xyz(tmp_path / "one.xyz", [[0.0, 0.0, 0.0]])
        f = str(tmp_path / "one.xyz")
        assert main(["eval", f, f]) == 2


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["gen", "--kind", "sphere-surface", "--n", "64", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "g1.xyz")]) == 0
        assert main(args + ["--out", str(tmp_path / "g2.xyz")]) == 0
        b1 = (tmp_path / "g1.xyz").read_bytes()
        assert b1 == (tmp_path / "g2.xyz").read_bytes()
        assert len(b1.splitlines()) == 64

    def test_crop_writes_partial_file(self, tmp_path, capsys):
        assert main(
            [
                "gen", "--kind", "sphere-surface", "--n", "64", "--crop-k", "16",
                "--viewpoint", "2,0,0", "--out", str(tmp_path / "full.xyz"),
            ]
        ) == 0
        partial = (tmp_path / "full_partial.xyz").read_bytes()
        assert len(partial.splitlines()) == 48
        out = capsys.readouterr().out
        assert "wrote 64 points" in out
        assert "wrote 48 points" in out

    def test_crop_validation(self, tmp_path, capsys):
        base = ["gen", "--kind", "plane-grid", "--n", "16", "--out", str(tmp_path / "p.xyz")]
        assert main(base + ["--crop-k", "4"]) == 2
        assert main(base + ["--crop-k", "4", "--viewpoint", "1,0"]) == 2
        assert main(base + ["--crop-k", "16", "--viewpoint", "1,0,0"]) == 2

    def test_bad_shape_kind_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["gen", "--kind", "torus", "--n", "16", "--out", str(tmp_path / "t.xyz")]
        ) == 1


class TestBench:
    def test_small_run_with_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(
            [
                "bench", "--sizes", "32", "--kinds", "l2,hyper", "--repeats", "3",
                "--warmup", "1", "--out", str(out),
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "l2" in captured and "hyper" in captured
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "kind"
        # two kinds x two phases for the single size
        assert len(rows) == 1 + 4

    def test_too_few_repeats_is_data_error(self, tmp_path, capsys):
        assert main(["bench", "--sizes", "32", "--repeats", "2"]) == 2

    def test_unknown_bench_kind_is_data_error(self, capsys):
        assert main(["bench", "--sizes", "32", "--kinds", "l3", "--repeats", "3"]) == 2


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "chamferkit" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_serial_flag_pins_worker_env(self, pair_files, capsys, monkeypatch):
        fa, fb, _, _ = pair_files
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert main(["--serial", "distance", str(fa), str(fb)]) == 0
        assert os.environ[WORKERS_ENV_VAR] == "1"
