from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from riskcast.data import Samples


def iid_samples(
    rng: np.random.Generator,
    n: int,
    horizon: int = 1,
    low: float = 50.0,
    high: float = 150.0,
    n_features: int = 4,
) -> Samples:
    """Targets i.i.d. uniform(low, high); features carry no information."""
    layout = tuple(f"junk.lag{j}" for j in range(n_features))
    X = rng.uniform(0.0, 1.0, size=(n, n_features))
    Y = rng.uniform(low, high, size=(n, horizon))
    return Samples(X=X, Y=Y, origin_index=np.arange(n), layout=layout)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240521)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each process pool made while the test runs."""
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recorded(real):
        def __init__(self, max_workers, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return made
