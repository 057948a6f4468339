import csv
import importlib
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chamferkit import (
    FitConfig,
    PointCloud,
    TransformSpec,
    chamfer,
    chamfer_poincare,
    evaluate,
    fit,
    read_cloud,
    write_cloud,
)
import chamferkit
from chamferkit.cli import main
from chamferkit.fitting import sweep_alpha_lr
from chamferkit.gradients import default_curve_specs, sample_curves

from testutil import uniform_cloud


def write_xyz(path, rows) -> PointCloud:
    cloud = PointCloud(rows)
    write_cloud(cloud, path)
    return cloud


def csv_line(*cells) -> str:
    """One CSV row as the CLI writes it: floats repr-exact, None blank."""
    text = ("" if c is None else repr(float(c)) if isinstance(c, float) else str(c) for c in cells)
    return ",".join(text) + "\r\n"


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

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1", "-0.0"])
    def test_scale_display_must_be_positive_and_finite(self, pair_files, capsys, scale):
        fa, fb, _, _ = pair_files
        assert main(["distance", str(fa), str(fb), f"--scale-display={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--scale-display" in captured.err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.xyz"
        present = write_xyz(tmp_path / "p.xyz", [[0.0, 0.0, 0.0]])
        assert main(["distance", str(tmp_path / "nope.xyz"), str(tmp_path / "p.xyz")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_ply_header_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex -1\n")
        write_xyz(tmp_path / "p.xyz", [[0.0, 0.0, 0.0]])
        assert main(["distance", str(bad), str(tmp_path / "p.xyz")]) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: negative element count\n"

    def test_non_ascii_byte_is_data_error_naming_the_file(self, tmp_path, capsys):
        bom = tmp_path / "bom.xyz"
        bom.write_bytes(b"\xef\xbb\xbf0 0 0\n")
        write_xyz(tmp_path / "ok.xyz", [[0.0, 0.0, 0.0]])
        assert main(["distance", str(tmp_path / "ok.xyz"), str(bom)]) == 2
        assert capsys.readouterr().err == f"error: {bom}: non-ASCII byte 0xef\n"

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
        fa.write_text("1e200 0 0\n0 0 0\n")
        write_xyz(fb, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert main(["distance", str(fa), str(fb)]) == 2
        assert capsys.readouterr().err == (
            f"error: {fa}: point cloud has a coordinate of magnitude 1e+200, "
            "beyond the supported 1e+150\n"
        )

    def test_hyper_at_the_range_limit_is_finite(self, tmp_path, capsys):
        fa = tmp_path / "far.xyz"
        fb = tmp_path / "small.xyz"
        write_xyz(fa, [[1e150, 0.0, 0.0], [0.0, 0.0, 0.0]])
        write_xyz(fb, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert main(["distance", str(fa), str(fb), "--kind", "hyper"]) == 0
        assert np.isfinite(float(stdout_fields(capsys.readouterr().out)["value"]))

    def test_hyper_beta3_at_the_range_limit_is_exact(self, tmp_path, capsys):
        # alpha * d**3 overflows at d = 1e150; arccosh(1 + u) = log(2u) there
        fa = tmp_path / "far.xyz"
        fb = tmp_path / "small.xyz"
        write_xyz(fa, [[1e150, 0.0, 0.0], [0.0, 0.0, 0.0]])
        write_xyz(fb, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert main(["distance", str(fa), str(fb), "--kind", "hyper", "--beta", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        fields = stdout_fields(captured.out)
        d1 = (math.log(2.0) + 450.0 * math.log(10.0)) / 2.0
        d2 = math.acosh(1.0 + 3.0**1.5) / 2.0
        assert float(fields["d1"]) == pytest.approx(d1, rel=1e-15)
        assert float(fields["d2"]) == pytest.approx(d2, rel=1e-15)
        assert float(fields["value"]) == pytest.approx(519.683469234551, rel=1e-14)


class TestCurves:
    def test_default_output_matches_library_bytes(self, tmp_path, capsys):
        cli_path = tmp_path / "cli.csv"
        assert main(["curves", "--out", str(cli_path)]) == 0
        rows = sample_curves(default_curve_specs(), np.linspace(0.0, 2.0, 200))
        expected = csv_line("kind", "alpha", "beta", "d", "value", "grad", "grad_normalized")
        expected += "".join(
            csv_line(r.kind, r.alpha, r.beta, r.d, r.value, r.grad, r.grad_normalized)
            for r in rows
        )
        assert cli_path.read_bytes() == expected.encode("ascii")
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
        assert capsys.readouterr().err == (
            "error: unknown transform kind 'cubic', expected one of ('l1', 'l2', 'exp', 'hyper')\n"
        )
        assert main(["curves", "--steps", "1", "--out", out]) == 2
        assert main(["curves", "--dmax", "0", "--out", out]) == 2
        assert main(["curves", "--alphas", "1,zap", "--out", out]) == 2
        capsys.readouterr()
        assert main(["curves", "--alphas", ",", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --alphas expects at least one value\n"
        # an empty list is an error, not the default grid
        for flag in ("--kinds", "--alphas", "--betas"):
            assert main(["curves", f"{flag}=", "--out", out]) == 2
            assert capsys.readouterr().err == f"error: {flag} expects at least one value\n"

    def test_kinds_parse_like_the_number_lists(self, tmp_path, capsys):
        # a trailing comma is dropped from --kinds as from --alphas
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        args = ["--dmax", "1", "--steps", "3"]
        assert main(["curves", "--kinds=l2,", "--alphas=1,", *args, "--out", str(outs[0])]) == 0
        assert main(["curves", "--kinds=l2", "--alphas=1", *args, "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_small_grid_bytes(self, tmp_path, capsys, normalize):
        out = tmp_path / "c.csv"
        args = ["curves", "--kinds", "l1,hyper", "--alphas", "1.5", "--dmax", "1", "--steps", "2"]
        assert main(args + ["--out", str(out)] + ([] if normalize else ["--no-normalize"])) == 0
        norm = ("1.0", "0.7559289460184544") if normalize else ("", "")
        assert out.read_bytes() == (
            "kind,alpha,beta,d,value,grad,grad_normalized\r\n"
            "l1,1.5,2.0,0.0,0.0,0.0,\r\n"
            "l1,1.5,2.0,1.0,1.0,1.0,\r\n"
            f"hyper,1.5,2.0,0.0,0.0,1.7320508075688772,{norm[0]}\r\n"
            f"hyper,1.5,2.0,1.0,1.566799236972411,1.3093073414159542,{norm[1]}\r\n"
        ).encode("ascii")

    @pytest.mark.parametrize("dmax", ["inf", "1e400", "nan", "1e308", "1.0000000000000002e150"])
    def test_dmax_must_be_finite(self, tmp_path, capsys, dmax):
        out = tmp_path / "c.csv"
        assert main(["curves", "--dmax", dmax, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --dmax must be positive and at most 1e+150\n"
        assert not out.exists()

    def test_every_kind_finite_at_largest_dmax(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["curves", "--kinds", "l1,l2,exp,hyper", "--dmax", "1e150", "--out", str(out)]) == 0
        text = out.read_text()
        assert "inf" not in text and "nan" not in text
        assert capsys.readouterr().err == ""

    def test_steep_curves_stay_finite_far_out(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(
            ["curves", "--kinds", "hyper,exp", "--betas", "3", "--dmax", "1e110",
             "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "inf" not in text and "nan" not in text
        assert capsys.readouterr().err == ""

    def test_huge_beta_writes_without_a_warning(self, tmp_path, capsys):
        # at the largest accepted beta, u = d**beta is 0 below d = 1, where
        # the overflow branch of transform is not taken, and inf above it,
        # where beta * log(d) is finite
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["curves", "--kinds", "hyper", "--betas", "1e150", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 200
        assert rows[-1][:6] == ["hyper", "1.0", "1e+150", "2.0", "6.931471805599453e+149", "5e+149"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args",
        [
            # alpha*beta overflowed, then inf * 0 wrote NaN slopes
            ["--kinds", "exp", "--alphas", "1e150", "--betas", "1e200"],
            # beta*log(d) overflowed to inf values
            ["--dmax", "1e150", "--betas", "1e308"],
            ["--kinds", "hyper,exp", "--betas", "1.0000000000000002e150"],
            ["--kinds", "exp", "--betas", "inf"],
            ["--kinds", "hyper", "--betas", "nan"],
            ["--kinds", "exp", "--betas", "0"],
        ],
    )
    def test_beta_out_of_range_is_data_error(self, tmp_path, capsys, args):
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["curves", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: beta must be positive and at most 1e+150, got ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kinds", ["hyper", "exp"])
    @pytest.mark.parametrize("alpha", ["1.0000000000000002e150", "1e308", "inf", "nan", "0"])
    def test_alpha_out_of_range_is_data_error(self, tmp_path, capsys, kinds, alpha):
        # sqrt(2 * alpha) overflowed to grad=inf and grad_normalized=nan at 1e308
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["curves", "--kinds", kinds, "--alphas", alpha, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be positive and at most 1e+150, got ")
        assert not out.exists()

    def test_grid_step_below_least_distance_is_data_error(self, tmp_path, capsys):
        # the grid held subnormal distances, where these slopes were inf
        out = tmp_path / "c.csv"
        args = ["curves", "--kinds", "exp,hyper", "--betas", "0.03125", "--out", str(out)]
        assert main(args + ["--dmax", "1e-321", "--steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --dmax / (--steps - 1) must be at least 2.22276e-162, got 2.47033e-322\n"
        )
        assert captured.out == ""
        assert not out.exists()
        least = math.sqrt(5e-324)
        assert main(args + ["--dmax", repr(float(np.nextafter(2 * least, 0.0))), "--steps", "3"]) == 2
        assert not out.exists()
        # at a step of exactly the least distance every slope but the d = 0 tangents is finite
        assert main(args + ["--dmax", repr(2 * least), "--steps", "3"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["d"]) for r in rows] == [0.0, least, 2 * least] * 2
        assert all(math.isfinite(float(r["grad"])) for r in rows if float(r["d"]) > 0)

    def test_largest_alpha_is_finite(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(
                ["curves", "--kinds", "hyper,exp", "--alphas", "1e150", "--dmax", "1e150",
                 "--out", str(out)]
            ) == 0
        text = out.read_text()
        assert "inf" not in text and "nan" not in text
        assert capsys.readouterr().err == ""


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
        assert (outdir / "final.xyz").read_bytes() == Path(fi).read_bytes()

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

    def test_csv_bytes(self, tmp_path, capsys):
        init = write_xyz(tmp_path / "i.xyz", [[0.1, -0.0, 1e-300], [4.0, 5.0, 6.0]])
        target = write_xyz(tmp_path / "t.xyz", [[4.5, 5.5, 6.0], [1 / 3, 0.0, -2.5e-8]])
        outdir = tmp_path / "run"
        assert main(
            [
                "fit", str(tmp_path / "i.xyz"), str(tmp_path / "t.xyz"), "--lr", "0",
                "--epochs", "2", "--snapshots", "1", "--outdir", str(outdir),
            ]
        ) == 0
        traj = fit(init, target, FitConfig(TransformSpec("hyper", 1.0, 2.0), 0.0, 2))
        assert (outdir / "loss.csv").read_bytes() == (
            "epoch,loss,l1_cd\r\n"
            + "".join(
                f"{e},{float(traj.losses[e])!r},{float(traj.l1_cd[e])!r}\r\n" for e in (0, 1)
            )
        ).encode("ascii")
        assert (outdir / "correspondence_epoch_0001.csv").read_bytes() == (
            b"movable_x,movable_y,movable_z,target_x,target_y,target_z\r\n"
            b"0.1,-0.0,1e-300,0.3333333333333333,0.0,-2.5e-08\r\n"
            b"4.0,5.0,6.0,4.5,5.5,6.0\r\n"
        )

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
        assert result.errors == {}
        expected = csv_line("alpha", 0.0, 0.01) + "".join(
            csv_line(alpha, *cells) for alpha, cells in zip(result.alphas, result.final_l1_cd)
        )
        assert cli_path.read_bytes() == expected.encode("ascii")
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
        init, target = read_cloud(tmp_path / "init.xyz"), read_cloud(tmp_path / "target.xyz")
        cell = float(sweep_alpha_lr(init, target, [1.0], [-0.5, 0.01], epochs=2).final_l1_cd[0, 1])
        assert (tmp_path / "s.csv").read_bytes() == f"alpha,-0.5,0.01\r\n1.0,,{cell!r}\r\n".encode()

    def test_alpha_out_of_range_runs_no_cell(self, tmp_path, capsys):
        # at 1e308 the fit's gradient scatter met inf * 0 and raised
        rng = np.random.default_rng(75)
        write_cloud(uniform_cloud(rng, 10), tmp_path / "init.xyz")
        write_cloud(uniform_cloud(rng, 10), tmp_path / "target.xyz")
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(
                [
                    "sweep", str(tmp_path / "init.xyz"), str(tmp_path / "target.xyz"),
                    "--alphas", "1,1e308", "--lrs", "0.05", "--epochs", "3", "--out", str(out),
                ]
            ) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: alpha must be positive and at most 1e+150, got 1e+308\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_epochs_below_one_runs_no_cell(self, tmp_path, capsys, epochs):
        # the message was repeated once per cell, over a grid of empty cells
        rng = np.random.default_rng(77)
        write_cloud(uniform_cloud(rng, 10), tmp_path / "init.xyz")
        write_cloud(uniform_cloud(rng, 10), tmp_path / "target.xyz")
        out = tmp_path / "s.csv"
        assert main(
            [
                "sweep", str(tmp_path / "init.xyz"), str(tmp_path / "target.xyz"),
                "--alphas", "1,2", "--lrs=0.01,-0.5", f"--epochs={epochs}", "--out", str(out),
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: epochs must be at least 1, got {epochs}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_largest_alpha_sweeps_without_a_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(76)
        write_cloud(uniform_cloud(rng, 10), tmp_path / "init.xyz")
        write_cloud(uniform_cloud(rng, 10), tmp_path / "target.xyz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(
                [
                    "sweep", str(tmp_path / "init.xyz"), str(tmp_path / "target.xyz"),
                    "--alphas", "1e150", "--lrs", "0.05", "--epochs", "3",
                    "--out", str(tmp_path / "s.csv"),
                ]
            ) == 0
        assert "(0 failed)" in capsys.readouterr().out


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

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_scale_display_must_be_positive_and_finite(self, tmp_path, capsys, scale):
        write_xyz(tmp_path / "c.xyz", [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        f = str(tmp_path / "c.xyz")
        assert main(["eval", f, f, f"--scale-display={scale}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--scale-display" in captured.err

    @pytest.mark.parametrize("threshold", ["inf", "nan", "1e308"])
    def test_threshold_must_be_finite(self, tmp_path, capsys, threshold):
        # 1e308 percent of the diagonal overflows
        write_xyz(tmp_path / "c.xyz", [[0.0, 0.0, 0.0], [1e10, 1.0, 1.0]])
        f = str(tmp_path / "c.xyz")
        assert main(["eval", f, f, f"--threshold={threshold}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

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

    @pytest.mark.parametrize(
        "crop", [["--crop-k", "2"], ["--crop-k", "2", "--viewpoint", "nan,0,0"],
                 ["--crop-k", "2", "--viewpoint", "1e308,0,0"],
                 # the later --n overrides the 16
                 ["--n", "1", "--crop-k", "1", "--viewpoint", "0,0,0"]]
    )
    def test_crop_errors_write_no_file(self, tmp_path, capsys, crop):
        out = str(tmp_path / "p.xyz")
        assert main(["gen", "--kind", "plane-grid", "--n", "16", "--out", out] + crop) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_named(self, tmp_path, capsys):
        out = str(tmp_path / "p.xyz")
        assert main(["gen", "--kind", "sphere-surface", "--n", "4", "--seed=-5", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -5\n"
        assert list(tmp_path.iterdir()) == []

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
        header, *rows = out.read_bytes().decode("ascii").split("\r\n")
        assert header == "kind,phase,n_a,n_b,repeats,mean_s,std_s"
        assert rows.pop() == ""  # the last row ends in \r\n too
        # two kinds x two phases for the single size
        cells = [r.split(",") for r in rows]
        assert [c[:5] for c in cells] == [
            [kind, phase, "32", "32", "3"] for kind in ("l2", "hyper") for phase in ("full", "transform")
        ]
        assert all(len(c) == 7 and all(repr(float(v)) == v for v in c[5:]) for c in cells)

    def test_too_few_repeats_is_data_error(self, tmp_path, capsys):
        assert main(["bench", "--sizes", "32", "--repeats", "2"]) == 2

    def test_negative_seed_is_named(self, capsys):
        assert main(["bench", "--sizes", "32", "--repeats", "3", "--seed=-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be non-negative, got -5\n"

    def test_unknown_bench_kind_is_data_error(self, capsys):
        assert main(["bench", "--sizes", "32", "--kinds", "l3", "--repeats", "3"]) == 2

    def test_kinds_parse_like_sizes(self, capsys):
        assert main(["bench", "--sizes=8,", "--kinds=l2,", "--repeats", "3"]) == 0
        assert "l2" in capsys.readouterr().out
        assert main(["bench", "--sizes", "8", "--kinds=", "--repeats", "3"]) == 2
        assert capsys.readouterr().err == "error: --kinds expects at least one value\n"


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "chamferkit" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_serial_flag_is_gone(self, pair_files, capsys):
        fa, fb, _, _ = pair_files
        assert main(["--serial", "distance", str(fa), str(fb)]) == 1

    def test_worker_env_var_is_ignored(self, pair_files, capsys, monkeypatch):
        fa, fb, _, _ = pair_files
        monkeypatch.setenv("CHAMFERKIT_WORKERS", "many")
        assert main(["distance", str(fa), str(fb)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["distance", "fit"])
    def test_beta_out_of_range_is_data_error(self, pair_files, tmp_path, capsys, command):
        fa, fb, _, _ = pair_files
        args = [command, str(fa), str(fb), "--beta", "1e200"]
        if command == "fit":
            args += ["--lr", "0.01", "--epochs", "2", "--outdir", str(tmp_path / "run")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: beta must be positive and at most 1e+150, got 1e+200\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "call,argv",
        [
            ("read_cloud", ["distance", "a.xyz", "b.xyz"]),
            ("sample_curves", ["curves", "--steps", "200", "--out", "c.csv"]),
            ("fit", ["fit", "a.xyz", "b.xyz", "--lr", "0.01", "--epochs", "2", "--outdir", "run"]),
            ("sweep_alpha_lr", ["sweep", "a.xyz", "b.xyz", "--alphas", "1", "--lrs", "0.01",
                                "--epochs", "2", "--out", "s.csv"]),
            ("evaluate", ["eval", "a.xyz", "b.xyz"]),
            ("gen_shape", ["gen", "--kind", "sphere-surface", "--n", "64", "--out", "g.xyz"]),
            ("bench_mod.run_bench", ["bench", "--sizes", "32", "--repeats", "3"]),
        ],
    )
    def test_size_that_cannot_be_allocated_is_data_error(
        self, pair_files, monkeypatch, capsys, call, argv
    ):
        # a size numpy cannot allocate, such as gen --n 1e13, raises
        # MemoryError from inside the library; the call is made to raise it
        # here, so that nothing is allocated for real
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def cannot_allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"chamferkit.cli.{call}", cannot_allocate)
        monkeypatch.chdir(pair_files[0].parent)
        before = sorted(os.listdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(os.listdir()) == before

    def test_console_script_target_is_callable(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["chamferkit"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


class TestOutOfRangeFile:
    """A file with a coordinate beyond 1e150 stops every command at the read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "huge.xyz", "ok.xyz"],
            ["distance", "ok.xyz", "huge.xyz", "--kind", "poincare"],
            ["eval", "huge.xyz", "ok.xyz"],
            ["eval", "ok.xyz", "huge.xyz"],
            ["fit", "huge.xyz", "ok.xyz", "--lr", "0.01", "--epochs", "2", "--outdir", "run"],
            ["sweep", "ok.xyz", "huge.xyz", "--alphas", "1,2", "--lrs", "0.01",
             "--epochs", "2", "--out", "s.csv"],
        ],
    )
    def test_data_error_names_the_file_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # at 1e200, eval and distance --kind poincare raised an overflow
        # warning out of main(), and sweep exited 0 with every cell failed
        monkeypatch.chdir(tmp_path)
        Path("huge.xyz").write_text("0 0 0\n1e200 0 0\n")
        Path("ok.xyz").write_text("0 0 0\n0.5 0.25 -0.125\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: huge.xyz: point cloud has a coordinate of magnitude 1e+200, "
            "beyond the supported 1e+150\n"
        )
        assert captured.out == ""
        assert sorted(os.listdir()) == ["huge.xyz", "ok.xyz"]


# The files the exit-code property draws from: a 1e200 row, clouds a few
# ulp inside and on the unit-ball boundary, an empty and a ragged file,
# and one that does not exist.
_FUZZ_FILES = {
    "ok.xyz": "0 0 0\n0.5 0.25 -0.125\n0.1 0.2 0.3\n",
    "ok.ply": (
        "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
        "property double y\nproperty double z\nend_header\n0.25 0 0\n0 0.5 0.5\n"
    ),
    "huge.xyz": "0 0 0\n1e200 0 0\n",
    "inside.xyz": "0.9999999999999999 0 0\n0 0.7071067811865475 -0.7071067811865475\n",
    "boundary.xyz": "0 0 0\n0 -1 0\n0.5773502691896258 0.5773502691896258 0.5773502691896258\n",
    "empty.xyz": "",
    "ragged.xyz": "0 0 0\n1 2\n",
}
_FUZZ_PATHS = [*_FUZZ_FILES, "missing.xyz"]
_FUZZ_OUTS = ["out.csv", "out.xyz", "out.ply", "run", "no_dir/out.csv"]
_FUZZ_NUMBERS = ["0", "-1", "1", "2.5", "1e-320", "1e150", "1e200", "nan", "inf", "x"]
_FUZZ_FORMAT = ["xyz", "ply-ascii", "obj"]
_FUZZ_EPOCHS = ["-1", "0", "1", "3", "x"]  # fits stay at 3 epochs or fewer
_FUZZ_GRIDS = ["1", "0.5,2", "0", "-1", "1e150", "1e200", "nan", "x", ""]

# subcommand: (positional file count, {flag: values, None for a switch})
_FUZZ_COMMANDS = {
    "distance": (2, {
        "--kind": [*chamferkit.bench.BENCH_KINDS, "l3"], "--alpha": _FUZZ_NUMBERS,
        "--beta": _FUZZ_NUMBERS, "--scale-display": _FUZZ_NUMBERS, "--format": _FUZZ_FORMAT,
    }),
    "curves": (0, {
        "--kinds": ["hyper", "exp,l2", "l1,foo"], "--alphas": _FUZZ_GRIDS,
        "--betas": _FUZZ_GRIDS, "--dmax": _FUZZ_NUMBERS, "--steps": ["1", "2", "5", "x"],
        "--no-normalize": None, "--out": _FUZZ_OUTS,
    }),
    "fit": (2, {
        "--kind": [*chamferkit.distances.TRANSFORM_KINDS, "poincare"], "--alpha": _FUZZ_NUMBERS,
        "--beta": _FUZZ_NUMBERS, "--lr": _FUZZ_NUMBERS, "--epochs": _FUZZ_EPOCHS,
        "--snapshots": ["0", "0,1", "5", "x"], "--outdir": _FUZZ_OUTS, "--format": _FUZZ_FORMAT,
    }),
    "sweep": (2, {
        "--alphas": _FUZZ_GRIDS, "--lrs": _FUZZ_GRIDS, "--epochs": _FUZZ_EPOCHS,
        "--out": _FUZZ_OUTS, "--format": _FUZZ_FORMAT,
    }),
    "eval": (2, {
        "--threshold-mode": ["absolute", "percent", "relative"], "--threshold": _FUZZ_NUMBERS,
        "--scale-display": _FUZZ_NUMBERS, "--format": _FUZZ_FORMAT,
    }),
    "gen": (0, {
        "--kind": [*chamferkit.cloud.SHAPE_KINDS, "torus"], "--n": ["-1", "0", "1", "7"],
        "--seed": ["0", "-5", "x"], "--crop-k": ["0", "1", "3", "9"],
        "--viewpoint": ["0,0,0", "1e200,0,0", "nan,0,0", "1,2"], "--out": _FUZZ_OUTS,
    }),
    "bench": (0, {  # 8 points at most
        "--sizes": ["1", "8", "2,8", "0", "x"], "--kinds": ["l2", "hyper,poincare", "exp,l3"],
        "--repeats": ["2", "3"], "--warmup": ["0", "1"], "--seed": ["0", "7"],
        "--out": _FUZZ_OUTS,
    }),
    "transmogrify": (0, {"--out": _FUZZ_OUTS}),
}


@st.composite
def cli_argvs(draw) -> list[str]:
    """A subcommand, its file arguments (now and then one short) and a
    random subset of its flags, each with a drawn value."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    n_files, flags = _FUZZ_COMMANDS[command]
    n_files -= draw(st.sampled_from([0, 0, 0, 0, 1])) if n_files else 0
    argv = [command, *(draw(st.sampled_from(_FUZZ_PATHS)) for _ in range(n_files))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        values = flags[flag]
        argv += [flag] if values is None else [f"{flag}={draw(st.sampled_from(values))}"]
    return argv


class TestExitCodeProperty:
    """Every command line ends in exit code 0, 1, 2 or 3, with nothing
    raised and no warning, whatever its flags and files."""

    @seed(20261023)
    @settings(max_examples=300, deadline=5000, database=None)
    @given(cli_argvs())
    def test_exit_code_contract(self, argv):
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                for name, text in _FUZZ_FILES.items():
                    Path(name).write_text(text)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert main(argv) in (0, 1, 2, 3)
            finally:
                os.chdir(home)


# Runs the CLI as the console script does, then reports on stderr
# whether scipy was imported.
CLI_THEN_REPORT_SCIPY = (
    "import sys\n"
    "from chamferkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('scipy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_python(args, cwd) -> subprocess.CompletedProcess:
    src = str(Path(chamferkit.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("module", ["chamferkit", "chamferkit.cli"])
class TestModuleEntry:
    """python -m runs the same command line as the console script."""

    def test_help(self, tmp_path, module):
        proc = run_python(["-m", module, "--help"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: chamferkit ")

    def test_missing_file_is_io_error(self, tmp_path, module):
        (tmp_path / "b.xyz").write_text("0 0 0\n")
        proc = run_python(["-m", module, "distance", "missing.xyz", "b.xyz"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")


class TestStartup:
    """scipy is imported by the first kd-tree match, not by the package."""

    def test_import_loads_no_scipy(self, tmp_path):
        proc = run_python(["-c", "import sys, chamferkit; print('scipy' in sys.modules)"], tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_gen_loads_no_scipy(self, tmp_path):
        args = ["gen", "--kind", "sphere-surface", "--n", "64", "--out", "g.xyz"]
        proc = run_python(["-c", CLI_THEN_REPORT_SCIPY, *args], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "False\n")
        assert len((tmp_path / "g.xyz").read_text().splitlines()) == 64

    def test_distance_output_unchanged(self, tmp_path):
        (tmp_path / "a.xyz").write_text("0 0 0\n1 2 3\n0.5 0.25 -1\n")
        (tmp_path / "b.ply").write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n1 0 0\n0 1 2\n"
        )
        proc = run_python(["-c", CLI_THEN_REPORT_SCIPY, "distance", "a.xyz", "b.ply"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "True\n")
        assert proc.stdout == (
            "value=3.310682376202342\nd1=1.6204848932921536\nd2=1.6901974829101885\n"
        )
