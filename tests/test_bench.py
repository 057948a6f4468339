import pytest

from chamferkit import run_bench


class TestRunBenchValidation:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="sizes must be positive"):
            run_bench(sizes=[0])

    def test_rejects_no_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            run_bench(sizes=[8], kinds=("l2",), repeats=3, warmup=0)
