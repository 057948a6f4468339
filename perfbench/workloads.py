"""The benchmark's four workloads.

Each workload makes its inputs from the seed, runs its op the way a caller
would (`run`), runs the same op split into finer public calls with a span
around each (`run_traced`, whose outputs must equal `run`'s bit for bit), and
checks outputs outside the timed region (`prepare_checks` once on the
warm-up output, `check` on every op). Only public chamferkit names are used.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import chamferkit as ck

HYPER = ck.TransformSpec("hyper", alpha=1.0, beta=2.0)
L1 = ck.TransformSpec("l1")
L2 = ck.TransformSpec("l2")

# Two nearest candidates whose distances differ by at most this share count
# as a tie: the query then needs tie re-resolution to pick the lowest index.
TIE_RTOL = 1e-9
# Values computed along another arithmetic route than the library's.
VALUE_RTOL = 1e-12
SAMPLED_ROWS = 64
CHILD_TIMEOUT_S = 120

CLI_ENTRY = "from chamferkit.cli import entry; entry()"  # what the console script runs
CLI_ENTRY_TIMED = (
    "import sys, time; t0 = time.perf_counter(); from chamferkit.cli import main; "
    "sys.stderr.write(f'import_s={time.perf_counter() - t0!r}\\n'); sys.exit(main())"
)


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= VALUE_RTOL * max(abs(x), abs(y))


def tie_mask(queries: ck.PointCloud, target: ck.PointCloud) -> np.ndarray:
    """Queries whose two nearest target points are tied within TIE_RTOL."""
    dist, _ = cKDTree(target.points).query(queries.points, k=2)
    return dist[:, 1] - dist[:, 0] <= TIE_RTOL * dist[:, 0]


def sample_rows(rng: np.random.Generator, n: int, also=()) -> np.ndarray:
    rows = rng.choice(n, size=min(n, SAMPLED_ROWS), replace=False)
    return np.union1d(rows, np.asarray(also, dtype=np.int64))


def check_match_rows(queries, target, idx, sq, rows, label) -> list[str]:
    """Brute-scan sampled query rows against the whole target, lowest index winning ties."""
    bad = []
    for r in rows:
        full = ck.pair_sq(queries.points[r], target.points)
        best = int(np.flatnonzero(full == full.min())[0])
        if idx[r] != best or sq[r] != full[best]:
            bad.append(f"{label} row {r}: index {idx[r]} sq {float(sq[r])!r}, brute {best} sq {float(full[best])!r}")
    return bad


def check_match(a, b, match: ck.MatchResult, rng, tied_a=(), tied_b=()) -> list[str]:
    return check_match_rows(
        a, b, match.fwd_idx, match.fwd_sq, sample_rows(rng, len(a), tied_a), "fwd"
    ) + check_match_rows(b, a, match.bwd_idx, match.bwd_sq, sample_rows(rng, len(b), tied_b), "bwd")


def check_chamfer(report: ck.SetDistanceReport, spec: ck.TransformSpec) -> list[str]:
    m = report.match
    d1 = float(np.mean(ck.transform(spec, np.sqrt(m.fwd_sq))))
    d2 = float(np.mean(ck.transform(spec, np.sqrt(m.bwd_sq))))
    if _close(report.d1, d1) and _close(report.d2, d2) and report.value == report.d1 + report.d2:
        return []
    return [f"chamfer {report.value!r} = {report.d1!r} + {report.d2!r}, expected {d1!r} + {d2!r}"]


def check_eval(report: ck.EvalReport, gt: ck.PointCloud, match: ck.MatchResult) -> list[str]:
    """evaluate(pred, gt) at its defaults against values recomputed from the match."""
    d_f, d_b = np.sqrt(match.fwd_sq), np.sqrt(match.bwd_sq)
    threshold = ck.bounding_box(gt).diagonal / 100.0
    precision, recall = float(np.mean(d_f < threshold)), float(np.mean(d_b < threshold))
    expected = {
        "cd_l1": float(d_f.mean() + d_b.mean()),
        "cd_l2": float(match.fwd_sq.mean() + match.bwd_sq.mean()),
        "fscore": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        "fscore_threshold": threshold,
        "hausdorff": float(max(d_f.max(), d_b.max())),
    }
    got = report.to_dict()
    return [f"{k} {got[k]!r}, expected {v!r}" for k, v in expected.items() if not _close(got[k], v)]


def same_report(r: ck.SetDistanceReport, s: ck.SetDistanceReport) -> bool:
    return (r.value, r.d1, r.d2) == (s.value, s.d1, s.d2) and all(
        np.array_equal(getattr(r.match, f), getattr(s.match, f))
        for f in ("fwd_idx", "fwd_sq", "bwd_idx", "bwd_sq")
    )


def traced_evaluate(tr, pred: ck.PointCloud, gt: ck.PointCloud) -> ck.EvalReport:
    """evaluate(pred, gt) at its defaults, split into its public calls."""
    with tr.span("evaluation.evaluate"):
        threshold = 1.0 / 100.0 * ck.bounding_box(gt).diagonal
        with tr.span("matching.match_indexed", len(pred) + len(gt)):
            match = ck.match_indexed(pred, gt)
        with tr.span("distances.chamfer"):
            cd_l1 = ck.chamfer(pred, gt, L1, match=match).value
        with tr.span("distances.chamfer"):
            cd_l2 = ck.chamfer(pred, gt, L2, match=match).value
        return ck.EvalReport(
            cd_l1=cd_l1,
            cd_l2=cd_l2,
            fscore=ck.fscore(pred, gt, threshold, match=match),
            fscore_threshold=threshold,
            hausdorff=ck.hausdorff(pred, gt, match=match),
        )


class Workload:
    name = ""
    cycle: tuple[str, ...] = ("op",)  # op kinds, run in this rotation
    spawns_children = False  # if so, CPU and memory are the children's

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected: dict[str, object] = {}

    def timed_span(self, kind: str) -> str:
        """The traced span whose time compares with one untraced op."""
        return "op"


class PairsGrid(Workload):
    """A plane grid against itself shifted half a spacing in x and y: 4-way ties."""

    name = "pairs-grid"
    n = 16384

    def make_inputs(self):
        side = math.isqrt(self.n)
        grid = ck.gen_shape("plane-grid", self.n, self.seed).points
        half = 0.5 / (side - 1)
        rng = np.random.default_rng(self.seed)
        self.a = ck.PointCloud(grid[rng.permutation(self.n)])
        self.b = ck.PointCloud((grid + [half, half, 0.0])[rng.permutation(self.n)])

    def run(self, kind):
        return ck.chamfer(self.a, self.b, HYPER), ck.evaluate(self.a, self.b)

    def run_traced(self, kind, tr):
        a, b = self.a, self.b
        with tr.span("op"):
            with tr.span("matching.match_indexed", len(a) + len(b)):
                match = ck.match_indexed(a, b)
            with tr.span("distances.chamfer"):
                report = ck.chamfer(a, b, HYPER, match=match)
            return report, traced_evaluate(tr, a, b)

    def prepare_checks(self, warm):
        self.expected["op"] = warm
        report, ev = warm
        rng = np.random.default_rng(self.seed + 1)
        tied_a = np.flatnonzero(tie_mask(self.a, self.b))[:SAMPLED_ROWS]
        tied_b = np.flatnonzero(tie_mask(self.b, self.a))[:SAMPLED_ROWS]
        return (
            check_match(self.a, self.b, report.match, rng, tied_a, tied_b)
            + check_chamfer(report, HYPER)
            + check_eval(ev, self.b, report.match)
        )

    def check(self, kind, out):
        (report, ev), (ref, ref_ev) = out, self.expected[kind]
        return same_report(report, ref) and ev == ref_ev

    def properties(self):
        return cloud_pair_properties(self.a, self.b)


class FitOutliers(Workload):
    """The 5%-outlier fitting demo at n = 2048: jittered sphere onto a contaminated one."""

    name = "fit-outliers"
    n = 2048
    config = ck.FitConfig(spec=HYPER, learning_rate=0.05, epochs=50)

    def make_inputs(self):
        self.clean = ck.gen_shape("sphere-surface", self.n, self.seed)
        self.target, self.outliers = ck.displace_outliers(self.clean, 0.05, 20.0, self.seed + 1)
        self.initial = ck.jitter_cloud(self.clean, 0.1, self.seed + 2)

    def run(self, kind):
        traj = ck.fit(self.initial, self.target, self.config)
        return traj.final_cloud, traj.losses, traj.l1_cd, traj.final_l1_cd

    def run_traced(self, kind, tr):
        """fit(), epoch by epoch, in the public calls it is made of."""
        target, spec, lr, epochs = self.target, self.config.spec, self.config.learning_rate, self.config.epochs
        work = len(self.initial) + len(target)
        with tr.span("op"), tr.span("fitting.fit"):
            current = self.initial.points.copy()
            losses, l1_cd = np.empty(epochs), np.empty(epochs)
            for epoch in range(epochs):
                with tr.span("fitting.epoch"):
                    cloud = ck.PointCloud(current)
                    with np.errstate(over="ignore"):
                        with tr.span("matching.match_indexed", work):
                            match = ck.match_indexed(cloud, target)
                        with tr.span("distances.chamfer"):
                            losses[epoch] = ck.chamfer(cloud, target, spec, match=match).value
                        with tr.span("distances.chamfer"):
                            l1_cd[epoch] = ck.chamfer(cloud, target, L1, match=match).value
                        with tr.span("gradients.chamfer_gradient"):
                            grad = ck.chamfer_gradient(cloud, target, spec, match=match)
                        current = current - lr * grad.vectors
            final = ck.PointCloud(current)
            with tr.span("matching.match_indexed", work):
                match = ck.match_indexed(final, target)
            with tr.span("distances.chamfer"):
                final_l1 = ck.chamfer(final, target, L1, match=match).value
        return final, losses, l1_cd, final_l1

    def prepare_checks(self, warm):
        self.expected["op"] = warm
        final, losses, _, _ = warm
        bad = []
        if not np.isfinite(losses).all():
            bad.append("fit loss left the finite range")
        start = ck.chamfer(self.initial, self.clean, L1).value
        end = ck.chamfer(final, self.clean, L1).value
        if not end < start:
            bad.append(f"l1 chamfer to the clean sphere went from {start!r} to {end!r}")
        rng = np.random.default_rng(self.seed + 3)
        return bad + check_match(final, self.target, ck.match_indexed(final, self.target), rng)

    def check(self, kind, out):
        final, losses, l1_cd, final_l1 = out
        ref = self.expected[kind]
        return (
            final == ref[0]
            and np.array_equal(losses, ref[1])
            and np.array_equal(l1_cd, ref[2])
            and final_l1 == ref[3]
        )

    def properties(self):
        props = cloud_pair_properties(self.initial, self.target)
        props["outlier_share"] = len(self.outliers) / len(self.target)
        return props


def ball_cloud(rng: np.random.Generator, n: int, shell: int) -> ck.PointCloud:
    """n points inside the unit ball; the first `shell` have norms in [0.99, 0.999]."""
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = 0.9 * rng.random(n) ** (1.0 / 3.0)
    radii[:shell] = rng.uniform(0.99, 0.999, shell)
    return ck.PointCloud(dirs * radii[:, None])


class BallPoincare(Workload):
    """chamfer_poincare on clouds in the unit ball with a shell near its boundary."""

    name = "ball-poincare"
    n = 4096
    shell = 512

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.a = ball_cloud(rng, self.n, self.shell)
        self.b = ball_cloud(rng, self.n, self.shell)

    def run(self, kind):
        return ck.chamfer_poincare(self.a, self.b)

    def run_traced(self, kind, tr):
        with tr.span("op"), tr.span("distances.chamfer_poincare", len(self.a) * len(self.b)):
            return ck.chamfer_poincare(self.a, self.b)

    def prepare_checks(self, warm):
        self.expected["op"] = warm
        m = warm.match
        rng = np.random.default_rng(self.seed + 1)
        shell_rows = np.arange(min(self.shell, SAMPLED_ROWS))
        bad = self._check_rows(self.a, self.b, m.fwd_idx, m.fwd_sq, sample_rows(rng, self.n, shell_rows), "fwd")
        bad += self._check_rows(self.b, self.a, m.bwd_idx, m.bwd_sq, sample_rows(rng, self.n, shell_rows), "bwd")
        if not (np.isfinite(warm.value) and warm.value == warm.d1 + warm.d2):
            bad.append(f"poincare value {warm.value!r} is not {warm.d1!r} + {warm.d2!r}")
        return bad

    @staticmethod
    def _check_rows(queries, target, idx, sq, rows, label):
        """The chosen target must minimise the ball score 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))."""
        t = target.points
        t_free = 1.0 - (t * t).sum(axis=1)
        bad = []
        for r in rows:
            p = queries.points[r]
            full = ck.pair_sq(p, t)
            score = 2.0 * full / ((1.0 - p @ p) * t_free)
            best = score.min()
            if not (score[idx[r]] <= best * (1 + VALUE_RTOL) and _close(sq[r], full[idx[r]])):
                bad.append(f"{label} row {r}: index {idx[r]} score {float(score[idx[r]])!r}, brute {float(best)!r}")
        return bad

    def check(self, kind, out):
        return same_report(out, self.expected[kind])

    def properties(self):
        props = cloud_pair_properties(self.a, self.b)
        norms = np.concatenate([np.linalg.norm(c.points, axis=1) for c in (self.a, self.b)])
        props["near_boundary_share"] = float(np.mean(norms >= 0.99))
        return props


class CliFiles(Workload):
    """One chamferkit CLI child per op on 100k-point files, in a fixed rotation."""

    name = "cli-files"
    n = 100_000
    cycle = ("distance", "eval", "gen")
    spawns_children = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        src = Path(ck.__file__).resolve().parents[1]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.args = {
            "distance": ["distance", "a.xyz", "b.ply", "--kind", "hyper"],
            "eval": ["eval", "a.xyz", "b.ply"],
            "gen": ["gen", "--kind", "box-surface", "--n", str(self.n), "--seed", str(seed), "--out", "g.xyz"],
        }

    def make_inputs(self):
        self.a = ck.jitter_cloud(ck.gen_shape("sphere-surface", self.n, self.seed), 0.01, self.seed + 1)
        self.b = ck.gen_shape("sphere-surface", self.n, self.seed + 2)
        ck.write_cloud(self.a, self.workdir / "a.xyz")
        ck.write_cloud(self.b, self.workdir / "b.ply")

    def _child(self, kind, entry):
        proc = subprocess.run(
            [sys.executable, "-c", entry, *self.args[kind]],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _output(self, kind, returncode, stdout):
        """What check() compares: exit code, printed text and, for gen, the file written."""
        written = (self.workdir / "g.xyz").read_bytes() if kind == "gen" and returncode == 0 else None
        return returncode, stdout, written

    def run(self, kind):
        returncode, stdout, _ = self._child(kind, CLI_ENTRY)
        return returncode, stdout

    def check(self, kind, out):
        return self._output(kind, *out) == self.expected[kind]

    def timed_span(self, kind):
        return f"cli.{kind}"

    def run_traced(self, kind, tr):
        """The child, timing its own import, then the same op in-process, split."""
        with tr.span(f"cli.{kind}"):
            returncode, stdout, stderr = self._child(kind, CLI_ENTRY_TIMED)
        for line in stderr.splitlines():
            if line.startswith("import_s="):
                tr.record("cli.import_s", float(line.split("=", 1)[1]))
        if self._output(kind, returncode, stdout) != self.expected[kind]:
            return returncode, stdout  # check() reports it
        with tr.span("op"):
            if kind == "gen":
                replica = self.workdir / "g_replica.xyz"
                with tr.span("cloud.gen_shape"):
                    cloud = ck.gen_shape("box-surface", self.n, self.seed)
                with tr.span("io.write_cloud", len(self.expected["gen"][2]) / 1e6):
                    ck.write_cloud(cloud, replica)
                same = replica.read_bytes() == self.expected["gen"][2]
                return (returncode, stdout) if same else (returncode, "")
            a_path, b_path = self.workdir / "a.xyz", self.workdir / "b.ply"
            with tr.span("io.read_cloud", _mb(a_path)):
                a = ck.read_cloud(a_path)
            with tr.span("io.read_cloud", _mb(b_path)):
                b = ck.read_cloud(b_path)
            if kind == "distance":
                with tr.span("matching.match_indexed", len(a) + len(b)):
                    match = ck.match_indexed(a, b)
                with tr.span("distances.chamfer"):
                    text = self._distance_text(ck.chamfer(a, b, HYPER, match=match))
            else:
                text = self._eval_text(traced_evaluate(tr, a, b))
        return returncode, text

    @staticmethod
    def _distance_text(report):
        return f"value={report.value!r}\nd1={report.d1!r}\nd2={report.d2!r}\n"

    @staticmethod
    def _eval_text(report):
        return "".join(f"{k}={v!r}\n" for k, v in report.to_dict().items())

    def prepare_checks(self, warm):
        """Expected CLI outputs: the library's results on the same clouds, in-process."""
        a, b = self.a, self.b
        report = ck.chamfer(a, b, HYPER)
        ev = ck.evaluate(a, b)
        bad = check_match(a, b, report.match, np.random.default_rng(self.seed + 3))
        bad += check_chamfer(report, HYPER) + check_eval(ev, b, report.match)
        cloud = ck.gen_shape("box-surface", self.n, self.seed)
        ref = self.workdir / "g_ref.xyz"
        ck.write_cloud(cloud, ref)
        if ck.read_cloud(ref) != cloud:
            bad.append("gen file does not read back equal to gen_shape")
        self.expected = {
            "distance": (0, self._distance_text(report), None),
            "eval": (0, self._eval_text(ev), None),
            "gen": (0, f"wrote {self.n} points to g.xyz\n", ref.read_bytes()),
        }
        if not self.check(self.cycle[0], warm):
            bad.append(f"warm-up {self.cycle[0]} printed {warm!r}")
        return bad

    def properties(self):
        props = cloud_pair_properties(self.a, self.b)
        props["file_bytes"] = {p: os.path.getsize(self.workdir / p) for p in ("a.xyz", "b.ply")}
        return props


def cloud_pair_properties(a: ck.PointCloud, b: ck.PointCloud) -> dict:
    ties = np.concatenate([tie_mask(a, b), tie_mask(b, a)])
    return {
        "points": [len(a), len(b)],
        "array_bytes_computed": a.points.nbytes + b.points.nbytes,
        "tie_query_share": float(ties.mean()),
        "outlier_share": 0.0,
    }


WORKLOADS = {w.name: w for w in (CliFiles, PairsGrid, FitOutliers, BallPoincare)}
