"""Shared fixtures and the einsum MTTKRP oracle used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.dense import DenseTensor

_LETTERS = "abcdefgh"


def mttkrp_oracle(tensor: DenseTensor, factors, n: int) -> np.ndarray:
    """Brute-force MTTKRP via einsum — the independent reference every
    algorithm is checked against."""
    arr = tensor.to_ndarray()
    N = arr.ndim
    subs, operands = [], []
    for k in range(N):
        if k == n:
            continue
        subs.append(_LETTERS[k] + "z")
        operands.append(np.asarray(factors[k]))
    expr = _LETTERS[:N] + "," + ",".join(subs) + "->" + _LETTERS[n] + "z"
    return np.einsum(expr, arr, *operands, optimize=True)


def krp_oracle(matrices) -> np.ndarray:
    """Column-wise Kronecker definition of the Khatri-Rao product."""
    mats = [np.asarray(m) for m in matrices]
    C = mats[0].shape[1]
    cols = []
    for c in range(C):
        col = mats[0][:, c]
        for m in mats[1:]:
            col = np.kron(col, m[:, c])
        cols.append(col)
    return np.stack(cols, axis=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _single_thread_default():
    """Keep the package default at 1 thread so tests are deterministic in
    cost; tests that exercise parallelism pass num_threads explicitly."""
    from repro.parallel.config import num_threads

    with num_threads(1):
        yield


def pytest_collection_modifyitems(config, items):
    """Keep ``bench``-marked wall-clock tests out of the default run.

    They assert on timings of a shared host, so they run only when the
    marker expression names them explicitly (e.g. ``-m bench``).
    """
    if "bench" in config.option.markexpr:
        return
    bench = [item for item in items if item.get_closest_marker("bench")]
    if bench:
        config.hook.pytest_deselected(items=bench)
        items[:] = [item for item in items if item not in bench]
