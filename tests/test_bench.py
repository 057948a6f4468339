import time
from types import SimpleNamespace

import pytest

from chamferkit import bench, run_bench


class TestRunBenchValidation:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="sizes must be positive"):
            run_bench(sizes=[0])

    def test_rejects_no_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            run_bench(sizes=[8], kinds=("l2",), repeats=3, warmup=0)

    @pytest.mark.parametrize("size", [2.5, True, "8", float("nan")])
    def test_rejects_non_integral_size(self, size):
        with pytest.raises(ValueError, match=f"size must be a whole number, got {size!r}"):
            run_bench(sizes=[8, size], kinds=("l2",), repeats=3, warmup=1)

    @pytest.mark.parametrize("name, value", [("repeats", 3.5), ("warmup", 1.5), ("warmup", True)])
    def test_rejects_non_integral_rounds(self, name, value):
        rounds = {"repeats": 3, "warmup": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {value!r}"):
            run_bench(sizes=[8], kinds=("l2",), **rounds)

    def test_whole_number_floats_become_ints(self):
        report = run_bench(sizes=[8.0], kinds=("l2",), repeats=3.0, warmup=1.0)
        entry = report.entry("l2")
        assert (entry.n_a, entry.repeats) == (8, 3)
        assert type(entry.n_a) is int and type(entry.repeats) is int


class TestRunBenchTimesTreeBuilds:
    def test_each_timed_full_call_builds_both_trees(self, monkeypatch, kd_work):
        # a cloud keeps its tree once matched, so each timed full call of a
        # kd kind takes fresh copies of its pair and builds two trees inside
        # the timer; transform calls and the poincare scan build none
        reads = []  # the kd builds so far at each timer read, two per timed call

        def perf_counter():
            reads.append(len(kd_work.builds))
            return time.perf_counter()

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=perf_counter))
        run_bench(sizes=[64], kinds=("l2", "hyper", "poincare"), repeats=3, warmup=1)
        timed = [end - start for start, end in zip(reads[::2], reads[1::2])]
        # a round: l2 full and transform, hyper full and transform, poincare full
        assert timed == [2, 0, 2, 0, 0] * 4
