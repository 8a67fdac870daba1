"""Batched autotuner: crossover measurement, caching and key hygiene."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchedTensor, mttkrp_batched
from repro.tune.batched import (
    autotune_batched,
    batched_candidate_labels,
    candidate_set,
)
from repro.tune.cache import TuneKey, TuneRecord, TuningCache
from repro.util import prod


@pytest.fixture(autouse=True)
def _isolated_tune_cache(tmp_path, monkeypatch):
    from repro.tune import reset_cache

    monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "tune.json"))
    reset_cache()
    yield
    reset_cache()


def _operands(rng, B, shape=(4, 3, 2), C=2):
    bt = BatchedTensor(rng.standard_normal((B, prod(shape))), shape)
    factors = [rng.standard_normal((B, s, C)) for s in shape]
    return bt, factors


def test_candidate_set_is_the_two_lanes():
    labels = [c.label for c in candidate_set((4, 3, 2), 1, 8)]
    assert labels == ["batched", "batched-loop"]
    assert batched_candidate_labels() == ("batched", "batched-loop")


def test_tune_key_carries_batch_dimension():
    base = TuneKey.make((4, 3), 2, 0, 1, np.float64)
    fleet = TuneKey.make((4, 3), 2, 0, 1, np.float64, batch=17)
    assert base.batch == 1
    assert fleet.batch == 17
    assert base.to_str() != fleet.to_str()
    assert base.to_str().endswith(";batch=1")
    assert fleet.to_str().endswith(";batch=17")


def test_measured_decision_is_cached_per_fleet_size():
    rng = np.random.default_rng(40)
    bt, factors = _operands(rng, 5)
    cache = TuningCache(None)
    record = autotune_batched(bt, factors, 0, cache=cache, repeats=1)
    assert record.source == "measured"
    assert record.method in ("batched", "batched-loop")
    assert set(record.times) == {"batched", "batched-loop"}
    assert len(cache) == 1
    # A second call is a pure cache hit (same record object contents).
    again = autotune_batched(bt, factors, 0, cache=cache, repeats=1)
    assert again.method == record.method
    assert len(cache) == 1
    # A different fleet size gets its own entry.
    bt3, factors3 = _operands(np.random.default_rng(41), 3)
    autotune_batched(bt3, factors3, 0, cache=cache, repeats=1)
    assert len(cache) == 2


def test_degenerate_single_item_skips_measurement():
    rng = np.random.default_rng(42)
    bt, factors = _operands(rng, 1)
    cache = TuningCache(None)
    record = autotune_batched(bt, factors, 1, cache=cache)
    assert record.source == "degenerate"
    assert record.method == "batched"
    assert record.times == {}


def test_stale_foreign_entry_is_remeasured():
    rng = np.random.default_rng(43)
    bt, factors = _operands(rng, 4)
    cache = TuningCache(None)
    from repro.parallel.config import resolve_threads

    key = TuneKey.make(
        bt.shape, 2, 0, resolve_threads(None), np.float64, batch=4
    )
    cache.put(key, TuneRecord(method="onestep", source="measured"))
    record = autotune_batched(bt, factors, 0, cache=cache, repeats=1)
    assert record.method in ("batched", "batched-loop")
    assert cache.get(key).method == record.method


def test_autotune_dispatch_matches_direct_call():
    rng = np.random.default_rng(44)
    bt, factors = _operands(rng, 4)
    via_autotune = mttkrp_batched(bt, factors, 1, method="autotune")
    record = autotune_batched(bt, factors, 1)
    via_label = mttkrp_batched(bt, factors, 1, method=record.method)
    np.testing.assert_array_equal(via_autotune, via_label)


def test_large_fleet_measures_on_a_proxy_slice():
    from repro.tune.batched import _PROXY_BATCH_LIMIT, _proxy_batch

    rng = np.random.default_rng(45)
    bt, factors = _operands(rng, _PROXY_BATCH_LIMIT + 9)
    sub, sub_factors = _proxy_batch(bt, factors)
    assert sub.batch == _PROXY_BATCH_LIMIT
    assert all(f.shape[0] == _PROXY_BATCH_LIMIT for f in sub_factors)
    np.testing.assert_array_equal(sub.flat, bt.flat[:_PROXY_BATCH_LIMIT])
