"""Tuning-cache persistence contracts (see ``repro.tune.cache``).

Covers the failure modes a persisted cache must absorb: corrupt or
truncated files fall back to re-measurement instead of crashing, so do
files at an older schema, keys separate dtype, concurrent writers land
complete files via write-to-temp + atomic rename, a cache written by
one process is served (with zero measurements) in another, and a
version-2 file from before the single-tensor tuner was removed still
loads cleanly and drives the same coalescing decisions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.batch import BatchedTensor, mttkrp_batched
from repro.tune import (
    TuneCacheWarning,
    TuneKey,
    TuneRecord,
    TuningCache,
    autotune_batched,
    default_cache_path,
    get_cache,
    reset_cache,
)
from repro.util import prod

pytestmark = pytest.mark.tune


def _key(**overrides) -> TuneKey:
    base = dict(
        shape=(4, 5, 6), rank=3, mode=1, num_threads=2, dtype="float64",
        batch=4,
    )
    base.update(overrides)
    return TuneKey.make(**base)


def _problem(shape=(4, 5, 6), rank=3, seed=0, batch=4):
    rng = np.random.default_rng(seed)
    return (
        BatchedTensor(rng.standard_normal((batch, prod(shape))), shape),
        [rng.standard_normal((batch, s, rank)) for s in shape],
    )


class TestRoundTrip:
    def test_put_get_across_instances(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = TuningCache(path)
        record = TuneRecord(
            method="batched-loop",
            times={"batched-loop": 1e-4, "batched": 2e-4},
        )
        cache.put(_key(), record)

        fresh = TuningCache(path)
        got = fresh.get(_key())
        assert got is not None
        assert got.method == "batched-loop"
        assert got.times == pytest.approx(record.times)
        assert got.source == "measured"

    def test_file_is_valid_schema_json(self, tmp_path):
        path = tmp_path / "tune.json"
        TuningCache(path).put(_key(), TuneRecord(method="batched"))
        raw = json.loads(path.read_text())
        assert raw["version"] == 2
        assert _key().to_str() in raw["entries"]

    def test_in_memory_when_no_path(self):
        cache = TuningCache(None)
        cache.put(_key(), TuneRecord(method="batched"))
        assert cache.get(_key()).method == "batched"
        assert cache.path is None


class TestTolerantLoads:
    @pytest.mark.parametrize(
        "content",
        [
            "{not json at all",
            '{"version": 2, "entries": {"k": {"method": "x"',  # truncated
            '{"version": 99, "entries": {}}',  # future schema
            '["a", "list"]',  # wrong top-level type
            '{"version": 2, "entries": {"k": {"no-method": true}}}',
        ],
        ids=["garbage", "truncated", "future-version", "wrong-type",
             "bad-record"],
    )
    def test_unreadable_file_is_empty_cache(self, tmp_path, content):
        path = tmp_path / "tune.json"
        path.write_text(content)
        with pytest.warns(TuneCacheWarning):
            cache = TuningCache(path)
        assert len(cache) == 0
        # ... and a put rewrites a valid file over the wreckage.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TuneCacheWarning)
            cache.put(_key(), TuneRecord(method="batched"))
        assert TuningCache(path).get(_key()).method == "batched"

    def test_autotune_remeasures_over_corrupt_cache(self, tmp_path):
        """End to end: a corrupt cache file must not break autotuning."""
        path = tmp_path / "tune.json"
        path.write_text("}}} definitely not json {{{")
        with pytest.warns(TuneCacheWarning):
            cache = TuningCache(path)
        X, U = _problem()
        record = autotune_batched(X, U, 1, num_threads=1, cache=cache,
                                  repeats=1)
        assert record.method in ("batched", "batched-loop")
        assert record.times  # measured, not served from the broken file
        assert json.loads(path.read_text())["version"] == 2

    def test_old_schema_with_backend_keys_is_remeasured(self, tmp_path):
        """Version-1 keys also named an execution backend: such a file
        loads as an empty cache with one warning, and the next autotune
        measures afresh and writes the current schema."""
        path = tmp_path / "tune.json"
        X, U = _problem()
        old_key = (
            "shape=4x5x6;rank=3;mode=1;threads=1;backend=thread;"
            "dtype=float64;batch=4"
        )
        path.write_text(json.dumps({
            "version": 1,
            "entries": {old_key: {"method": "batched-loop", "kwargs": {},
                                  "times": {}, "source": "measured"}},
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = TuningCache(path)
            assert len(cache) == 0
            tracer = obs.enable()
            try:
                record = autotune_batched(X, U, 1, num_threads=1,
                                          cache=cache, repeats=1)
            finally:
                obs.disable()
        assert [w.category for w in caught] == [TuneCacheWarning]
        assert obs.counter_total(tracer, "tune.cache_miss") == 1
        assert obs.counter_total(tracer, "tune.measure") > 0
        assert record.times
        raw = json.loads(path.read_text())
        assert raw["version"] == 2
        assert list(raw["entries"]) == [
            TuneKey.make(X.shape, 3, 1, 1, "float64", batch=4).to_str()
        ]

    def test_missing_file_is_empty(self, tmp_path):
        cache = TuningCache(tmp_path / "absent.json")
        assert len(cache) == 0


class TestKeySeparation:
    def test_dtype_distinguishes_entries(self, tmp_path):
        cache = TuningCache(tmp_path / "tune.json")
        cache.put(_key(dtype="float64"), TuneRecord(method="batched-loop"))
        cache.put(_key(dtype="float32"), TuneRecord(method="batched"))
        assert cache.get(_key(dtype="float64")).method == "batched-loop"
        assert cache.get(_key(dtype="float32")).method == "batched"
        assert len(cache) == 2

    def test_every_key_component_matters(self):
        base = _key()
        variants = [
            _key(shape=(4, 5, 7)),
            _key(rank=4),
            _key(mode=2),
            _key(num_threads=3),
            _key(dtype="float32"),
            _key(batch=8),
        ]
        strs = {base.to_str()} | {v.to_str() for v in variants}
        assert len(strs) == 7


class TestConcurrency:
    def test_concurrent_writers_do_not_clobber(self, tmp_path):
        path = tmp_path / "tune.json"
        threads_n = 8
        per_thread = 6
        barrier = threading.Barrier(threads_n)
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                cache = TuningCache(path)  # own instance: real contention
                barrier.wait()
                for j in range(per_thread):
                    cache.put(
                        _key(mode=0, rank=worker * per_thread + j + 1),
                        TuneRecord(method="batched"),
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(w,))
            for w in range(threads_n)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        # The file is always a complete, valid document, and the
        # merge-on-write keeps every distinct key.
        final = TuningCache(path)
        assert len(final) == threads_n * per_thread
        assert not list(Path(tmp_path).glob("*.tmp"))

    def test_cross_process_round_trip(self, tmp_path):
        """Acceptance: a cache written by one process serves another with
        zero measurements."""
        path = tmp_path / "tune.json"
        env = dict(os.environ, REPRO_TUNE_CACHE=str(path))
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else "src"
        )
        script = (
            "from tests.test_tune_cache import _problem\n"
            "from repro.tune import autotune_batched, get_cache\n"
            "X, U = _problem()\n"
            "r = autotune_batched(X, U, 1, num_threads=1, repeats=1)\n"
            "assert get_cache().path is not None\n"
            "print(r.method)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(__file__).parent.parent,
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        child_pick = proc.stdout.strip()

        X, U = _problem()
        cache = TuningCache(path)
        tracer = obs.enable()
        try:
            record = autotune_batched(X, U, 1, num_threads=1, cache=cache)
        finally:
            obs.disable()
        assert record.method == child_pick
        assert obs.counter_total(tracer, "tune.cache_hit") == 1
        assert obs.counter_total(tracer, "tune.measure") == 0


class TestGlobalCache:
    def test_env_var_switches_files(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(a))
        reset_cache()
        try:
            cache_a = get_cache()
            assert cache_a.path == str(a)
            cache_a.put(_key(), TuneRecord(method="batched"))
            monkeypatch.setenv("REPRO_TUNE_CACHE", str(b))
            cache_b = get_cache()
            assert cache_b.path == str(b)
            assert cache_b.get(_key()) is None
        finally:
            reset_cache()

    def test_unset_env_is_in_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
        assert default_cache_path() is None
        reset_cache()
        try:
            assert get_cache().path is None
        finally:
            reset_cache()


class TestStaleRecords:
    """Persisted decisions that name no batched lane.

    Cache files outlive code: an entry written by a different package
    version may name a lane that does not exist.  Replaying it verbatim
    would make ``mttkrp_batched(method="autotune")`` fail on a
    configuration it could perfectly well compute; a stale entry must
    instead fall back to re-measurement and be overwritten.
    """

    def test_unknown_method_falls_back_to_measurement(
        self, tmp_path, monkeypatch
    ):
        from repro.batch.mttkrp import mttkrp_batched_loop

        X, U = _problem(shape=(5, 7, 4))
        path = tmp_path / "tune.json"
        key = TuneKey.make(X.shape, 3, 1, 1, "float64", batch=X.batch)
        path.write_text(json.dumps({"version": 2, "entries": {
            key.to_str(): {"method": "fused-v99", "times": {},
                           "source": "measured"},
        }}))
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
        reset_cache()
        try:
            tracer = obs.enable()
            try:
                out = mttkrp_batched(X, U, 1, method="autotune",
                                     num_threads=1)
            finally:
                obs.disable()
            np.testing.assert_array_equal(
                out, mttkrp_batched_loop(X, U, 1, num_threads=1)
            )
            assert obs.counter_total(tracer, "tune.cache_stale") == 1
            assert obs.counter_total(tracer, "tune.measure") > 0
            # The stale entry was overwritten with a runnable decision.
            assert get_cache().get(key).method in ("batched", "batched-loop")
            # Second call: clean hit, no measurement.
            tracer2 = obs.enable()
            try:
                mttkrp_batched(X, U, 1, method="autotune", num_threads=1)
            finally:
                obs.disable()
            assert obs.counter_total(tracer2, "tune.cache_hit") == 1
            assert obs.counter_total(tracer2, "tune.measure") == 0
        finally:
            reset_cache()


# A version-2 file as the removed single-tensor tuner left it: per-mode
# (batch=1) records, with kwargs, a variant pick and an order-2
# "degenerate" record, next to batched-lane records.
_LEGACY_FILE = {
    "version": 2,
    "entries": {
        "shape=4x5x6;rank=3;mode=0;threads=1;dtype=float64;batch=1": {
            "kwargs": {}, "method": "baseline", "source": "measured",
            "times": {"baseline": 5.9e-05, "dimtree": 2.3e-04,
                      "onestep": 6.3e-05}},
        "shape=4x5x6;rank=3;mode=1;threads=1;dtype=float64;batch=1": {
            "kwargs": {"side": "left"}, "method": "twostep",
            "source": "measured",
            "times": {"baseline": 8.2e-05, "twostep:left": 7.4e-05}},
        "shape=4x5x6;rank=3;mode=2;threads=1;dtype=float64;batch=1": {
            "kwargs": {}, "method": "onestep", "source": "prior",
            "times": {"onestep": 5.1e-05}},
        "shape=5x4;rank=3;mode=0;threads=2;dtype=float64;batch=1": {
            "kwargs": {}, "method": "onestep", "source": "degenerate",
            "times": {}},
        "shape=4x5x6;rank=3;mode=0;threads=1;dtype=float64;batch=4": {
            "kwargs": {}, "method": "batched-loop", "source": "measured",
            "times": {"batched": 2e-4, "batched-loop": 1e-4}},
        "shape=4x5x6;rank=3;mode=0;threads=1;dtype=float64;batch=8": {
            "kwargs": {}, "method": "batched", "source": "measured",
            "times": {"batched": 1e-4, "batched-loop": 2e-4}},
        "shape=5x4;rank=3;mode=0;threads=2;dtype=float64;batch=64": {
            "kwargs": {}, "method": "batched-loop", "source": "measured",
            "times": {"batched": 3e-4, "batched-loop": 2e-4}},
    },
}

# ((shape, num_threads), group_size) -> batching_pays, as the code
# before the single-tensor tuner's removal answered for _LEGACY_FILE.
_LEGACY_DECISIONS = {
    (((4, 5, 6), 1), 1): False,
    (((4, 5, 6), 1), 2): True,
    (((4, 5, 6), 1), 4): False,
    (((4, 5, 6), 1), 8): True,
    (((4, 5, 6), 1), 100): True,
    (((5, 4), 2), 1): False,
    (((5, 4), 2), 2): True,
    (((5, 4), 2), 64): False,
    (((5, 4), 2), 200): False,
}


class TestLegacyFile:
    def test_loads_without_warning(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps(_LEGACY_FILE))
        with warnings.catch_warnings():
            warnings.simplefilter("error", TuneCacheWarning)
            cache = TuningCache(path)
        assert len(cache) == len(_LEGACY_FILE["entries"])
        record = cache.get(TuneKey.make((4, 5, 6), 3, 1, 1, "float64"))
        assert record.method == "twostep" and record.source == "measured"

    def test_batching_pays_decisions_unchanged(self, tmp_path, monkeypatch):
        from repro.serve.scheduler import GroupKey, batching_pays

        path = tmp_path / "tune.json"
        path.write_text(json.dumps(_LEGACY_FILE))
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
        reset_cache()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", TuneCacheWarning)
                got = {
                    ((shape, T), size): batching_pays(
                        GroupKey(shape, 3, "float64", 10, 1e-8, T), size
                    )
                    for (shape, T), size in _LEGACY_DECISIONS
                }
        finally:
            reset_cache()
        assert got == _LEGACY_DECISIONS
