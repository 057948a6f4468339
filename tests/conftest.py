"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest
import scipy.spatial


@pytest.fixture
def kd_work(monkeypatch):
    """The kd work of every match: builds, the points array of each tree
    built, kept by identity, and queries, (k, rows, bounded) of each kd
    query, both in call order. matching._kd_tree imports cKDTree at each
    build, so it builds the recording class patched in here."""
    work = SimpleNamespace(builds=[], queries=[])

    class Recording(scipy.spatial.cKDTree):
        def __init__(self, data, *args, **kwargs):
            work.builds.append(data)
            super().__init__(data, *args, **kwargs)

        def query(self, x, k=1, **kwargs):
            work.queries.append((k, len(x), "distance_upper_bound" in kwargs))
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Recording)
    return work
