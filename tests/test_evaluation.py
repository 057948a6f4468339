import numpy as np
import pytest

from chamferkit import PointCloud, TransformSpec, chamfer, evaluate, fscore, hausdorff
from chamferkit.evaluation import THRESHOLD_MODES

from testutil import uniform_cloud


class TestFscore:
    def test_perfect_match(self):
        rng = np.random.default_rng(60)
        c = uniform_cloud(rng, 30)
        assert fscore(c, c, 0.5) == 1.0

    def test_single_pair_below_threshold_scores_zero(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0]])
        assert fscore(a, b, 0.5) == 0.0

    def test_partial_coverage_hand_value(self):
        # forward: 1 of 2 points within 0.5; backward: 1 of 1
        a = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = PointCloud([[0.0, 0.0, 0.0]])
        assert fscore(a, b, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_threshold_comparison_is_strict(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0]])
        assert fscore(a, b, 1.0) == 0.0
        assert fscore(a, b, 1.0 + 1e-9) == 1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(61)
        a = uniform_cloud(rng, 80)
        b = uniform_cloud(rng, 70)
        thresholds = np.linspace(0.01, 1.5, 20)
        scores = [fscore(a, b, float(t)) for t in thresholds]
        assert all(s1 <= s2 for s1, s2 in zip(scores, scores[1:]))
        assert scores[-1] == 1.0

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(62)
        a = uniform_cloud(rng, 40)
        b = uniform_cloud(rng, 55)
        s = fscore(a, b, 0.2)
        assert 0.0 <= s <= 1.0
        assert fscore(b, a, 0.2) == s

    def test_threshold_validation(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="threshold"):
            fscore(a, a, 0.0)
        with pytest.raises(ValueError, match="threshold"):
            fscore(a, a, -1.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="threshold"):
                fscore(a, a, bad)


class TestHausdorff:
    def test_hand_value(self):
        a = PointCloud([[0.0, 0.0, 0.0]])
        b = PointCloud([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert hausdorff(a, b) == 3.0

    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(63)
        a = uniform_cloud(rng, 40)
        b = uniform_cloud(rng, 30)
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_dominates_mean_distances(self):
        rng = np.random.default_rng(64)
        a = uniform_cloud(rng, 50)
        b = uniform_cloud(rng, 45)
        rep = chamfer(a, b, TransformSpec("l1"))
        h = hausdorff(a, b)
        assert h >= rep.d1
        assert h >= rep.d2

    def test_single_outlier_dominates(self):
        rng = np.random.default_rng(65)
        base = uniform_cloud(rng, 60)
        pts = base.points.copy()
        pts[0] = [50.0, 0.0, 0.0]
        spiked = PointCloud(pts)
        assert hausdorff(spiked, base) > 48.0


class TestEvaluate:
    def test_identity_report(self):
        rng = np.random.default_rng(66)
        c = uniform_cloud(rng, 30)
        rep = evaluate(c, c)
        assert rep.cd_l1 == 0.0
        assert rep.cd_l2 == 0.0
        assert rep.fscore == 1.0
        assert rep.hausdorff == 0.0

    def test_percent_threshold_resolution(self):
        # unit-box ground truth: diagonal sqrt(3), default 1 percent
        gt = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        rep = evaluate(gt, gt)
        assert rep.fscore_threshold == pytest.approx(0.01 * np.sqrt(3.0), rel=1e-15)

    def test_absolute_threshold_passthrough(self):
        gt = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        rep = evaluate(gt, gt, threshold_mode="absolute", threshold=0.25)
        assert rep.fscore_threshold == 0.25

    def test_values_match_standalone_metrics(self):
        rng = np.random.default_rng(67)
        pred = uniform_cloud(rng, 60)
        gt = uniform_cloud(rng, 50)
        rep = evaluate(pred, gt, threshold_mode="absolute", threshold=0.3)
        assert rep.cd_l1 == chamfer(pred, gt, TransformSpec("l1")).value
        assert rep.cd_l2 == chamfer(pred, gt, TransformSpec("l2")).value
        assert rep.fscore == fscore(pred, gt, 0.3)
        assert rep.hausdorff == hausdorff(pred, gt)

    def test_scale_homogeneity(self):
        # scaling both clouds by s scales cd_l1 and hausdorff by s, cd_l2
        # by s^2, and leaves the percent-mode fscore unchanged
        rng = np.random.default_rng(68)
        pred = uniform_cloud(rng, 60)
        gt = uniform_cloud(rng, 50)
        base = evaluate(pred, gt)
        for s in (0.17, 3.0, 8.5):
            sp = PointCloud(pred.points * s)
            sg = PointCloud(gt.points * s)
            rep = evaluate(sp, sg)
            assert rep.cd_l1 == pytest.approx(s * base.cd_l1, rel=1e-10)
            assert rep.cd_l2 == pytest.approx(s * s * base.cd_l2, rel=1e-10)
            assert rep.hausdorff == pytest.approx(s * base.hausdorff, rel=1e-10)
            assert rep.fscore == base.fscore

    def test_degenerate_gt_box_rejected_in_percent_mode(self):
        gt = PointCloud([[1.0, 2.0, 3.0]])
        pred = PointCloud([[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            evaluate(pred, gt)
        rep = evaluate(pred, gt, threshold_mode="absolute", threshold=5.0)
        assert rep.fscore == 1.0

    def test_mode_and_threshold_validation(self):
        c = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="threshold_mode"):
            evaluate(c, c, threshold_mode="relative")
        with pytest.raises(ValueError, match="threshold"):
            evaluate(c, c, threshold=0.0)
        for mode in ("absolute", "percent"):
            for bad in (-1.0, np.inf, np.nan):
                with pytest.raises(ValueError, match="threshold"):
                    evaluate(c, c, threshold_mode=mode, threshold=bad)
        # finite, but a percent of this diagonal overflows
        wide = PointCloud([[0.0, 0.0, 0.0], [1e10, 0.0, 0.0]])
        with pytest.raises(ValueError, match="threshold 1e\\+308 percent .* overflows"):
            evaluate(wide, wide, threshold=1e308)
        assert evaluate(wide, wide, threshold_mode="absolute", threshold=1e308).fscore == 1.0

    def test_to_dict_keys(self):
        c = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        d = evaluate(c, c).to_dict()
        assert list(d) == ["cd_l1", "cd_l2", "fscore", "fscore_threshold", "hausdorff"]
        assert all(isinstance(v, float) for v in d.values())

    def test_modes_constant(self):
        assert THRESHOLD_MODES == ("absolute", "percent")
