"""Tuning-cache persistence contracts (see ``repro.tune.cache``).

Covers the failure modes a persisted cache must absorb: corrupt or
truncated files fall back to re-measurement instead of crashing, so do
files at an older schema, keys separate dtype, concurrent writers land
complete files via
write-to-temp + atomic rename, and a cache written by one process is
served (with zero measurements) in another.
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
from repro.tensor.generate import random_factors, random_tensor
from repro.tune import (
    TuneCacheWarning,
    TuneKey,
    TuneRecord,
    TuningCache,
    autotune,
    default_cache_path,
    get_cache,
    reset_cache,
)

pytestmark = pytest.mark.tune


def _key(**overrides) -> TuneKey:
    base = dict(
        shape=(4, 5, 6), rank=3, mode=1, num_threads=2, dtype="float64",
    )
    base.update(overrides)
    return TuneKey.make(**base)


def _problem(shape=(4, 5, 6), rank=3, seed=0):
    return (
        random_tensor(shape, rng=seed),
        random_factors(shape, rank, rng=seed + 1),
    )


class TestRoundTrip:
    def test_put_get_across_instances(self, tmp_path):
        path = tmp_path / "tune.json"
        cache = TuningCache(path)
        record = TuneRecord(
            method="twostep", kwargs={"side": "left"},
            times={"twostep:left": 1e-4, "onestep": 2e-4},
        )
        cache.put(_key(), record)

        fresh = TuningCache(path)
        got = fresh.get(_key())
        assert got is not None
        assert got.method == "twostep"
        assert got.kwargs == {"side": "left"}
        assert got.times == pytest.approx(record.times)
        assert got.label == "twostep:left"

    def test_file_is_valid_schema_json(self, tmp_path):
        path = tmp_path / "tune.json"
        TuningCache(path).put(_key(), TuneRecord(method="onestep"))
        raw = json.loads(path.read_text())
        assert raw["version"] == 2
        assert _key().to_str() in raw["entries"]

    def test_in_memory_when_no_path(self):
        cache = TuningCache(None)
        cache.put(_key(), TuneRecord(method="onestep"))
        assert cache.get(_key()).method == "onestep"
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
            cache.put(_key(), TuneRecord(method="onestep"))
        assert TuningCache(path).get(_key()).method == "onestep"

    def test_autotune_remeasures_over_corrupt_cache(self, tmp_path):
        """End to end: a corrupt cache file must not break autotuning."""
        path = tmp_path / "tune.json"
        path.write_text("}}} definitely not json {{{")
        with pytest.warns(TuneCacheWarning):
            cache = TuningCache(path)
        X, U = _problem()
        record = autotune(X, U, 1, num_threads=1, cache=cache, repeats=1)
        assert record.method in ("onestep", "twostep", "dimtree", "baseline")
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
            "dtype=float64;batch=1"
        )
        path.write_text(json.dumps({
            "version": 1,
            "entries": {old_key: {"method": "baseline", "kwargs": {},
                                  "times": {}, "source": "measured"}},
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = TuningCache(path)
            assert len(cache) == 0
            tracer = obs.enable()
            try:
                record = autotune(X, U, 1, num_threads=1, cache=cache,
                                  repeats=1)
            finally:
                obs.disable()
        assert [w.category for w in caught] == [TuneCacheWarning]
        assert obs.counter_total(tracer, "tune.cache_miss") == 1
        assert obs.counter_total(tracer, "tune.measure") > 0
        assert record.times
        raw = json.loads(path.read_text())
        assert raw["version"] == 2
        assert list(raw["entries"]) == [
            TuneKey.make(X.shape, 3, 1, 1, "float64").to_str()
        ]

    def test_missing_file_is_empty(self, tmp_path):
        cache = TuningCache(tmp_path / "absent.json")
        assert len(cache) == 0


class TestKeySeparation:
    def test_dtype_distinguishes_entries(self, tmp_path):
        cache = TuningCache(tmp_path / "tune.json")
        cache.put(_key(dtype="float64"), TuneRecord(method="twostep"))
        cache.put(_key(dtype="float32"), TuneRecord(method="onestep"))
        assert cache.get(_key(dtype="float64")).method == "twostep"
        assert cache.get(_key(dtype="float32")).method == "onestep"
        assert len(cache) == 2

    def test_every_key_component_matters(self):
        base = _key()
        variants = [
            _key(shape=(4, 5, 7)),
            _key(rank=4),
            _key(mode=2),
            _key(num_threads=3),
            _key(dtype="float32"),
            _key(batch=4),
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
                        TuneRecord(method="onestep"),
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
            "from repro.tensor.generate import random_tensor, random_factors\n"
            "from repro.tune import autotune, get_cache\n"
            "X = random_tensor((4, 5, 6), rng=0)\n"
            "U = random_factors((4, 5, 6), 3, rng=1)\n"
            "r = autotune(X, U, 1, num_threads=1, repeats=1)\n"
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
            record = autotune(X, U, 1, num_threads=1, cache=cache)
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
            cache_a.put(_key(), TuneRecord(method="onestep"))
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
    """Persisted decisions whose method is no longer eligible for the key.

    Cache files outlive code: an entry written by a different package
    version may name a kernel that no longer exists.  Replaying it
    verbatim used to make ``mttkrp(method="autotune")`` raise on a
    configuration it could perfectly well compute; a stale entry must
    instead warn once, fall back to re-measurement and be overwritten.
    """

    def _stale_file(self, path, shape, method, kwargs=None, mode=1):
        key = TuneKey.make(shape, 3, mode, 1, "float64")
        payload = {
            "version": 2,
            "entries": {
                key.to_str(): {
                    "method": method,
                    "kwargs": kwargs or {},
                    "times": {},
                    "source": "measured",
                }
            },
        }
        path.write_text(json.dumps(payload))
        return key

    def test_unknown_method_falls_back_to_measurement(
        self, tmp_path, monkeypatch
    ):
        from repro.core.dispatch import mttkrp
        from repro.core.mttkrp_baseline import mttkrp_baseline

        # "fused-v99" was never a kernel; "blocked" is one this package
        # used to ship and has since deleted.  Both are misses.
        for stale, shape in (("fused-v99", (5, 7, 4)), ("blocked", (5, 6, 4))):
            path = tmp_path / f"{stale}.json"
            key = self._stale_file(path, shape, stale)
            monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
            reset_cache()
            try:
                X, U = _problem(shape=shape)
                tracer = obs.enable()
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = mttkrp(
                            X, U, 1, method="autotune",
                            num_threads=1,
                        )
                finally:
                    obs.disable()
                stale_warnings = [
                    w for w in caught
                    if issubclass(w.category, TuneCacheWarning)
                ]
                assert len(stale_warnings) == 1
                assert repr(stale) in str(stale_warnings[0].message)
                np.testing.assert_allclose(
                    out, mttkrp_baseline(X, U, 1), atol=1e-10
                )
                assert obs.counter_total(tracer, "tune.cache_stale") == 1
                assert obs.counter_total(tracer, "tune.measure") > 0
                # The stale entry was overwritten with a runnable decision.
                replaced = get_cache().get(key)
                assert replaced is not None and replaced.method != stale
                # Second call: clean hit, no measurement, no further warning.
                tracer2 = obs.enable()
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", TuneCacheWarning)
                        mttkrp(
                            X, U, 1, method="autotune",
                            num_threads=1,
                        )
                finally:
                    obs.disable()
                assert obs.counter_total(tracer2, "tune.cache_hit") == 1
                assert obs.counter_total(tracer2, "tune.measure") == 0
            finally:
                reset_cache()

    def test_ineligible_twostep_for_external_mode_is_stale(self, tmp_path):
        # A 2-step ordering recorded for an external-mode key is not in
        # that mode's candidate set and would emit the degenerate-kwargs
        # warning (or worse) on replay — it must be re-measured instead.
        shape = (6, 4, 5)
        path = tmp_path / "tune.json"
        key = self._stale_file(
            path, shape, "twostep", kwargs={"side": "left"}, mode=0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TuneCacheWarning)
            cache = TuningCache(path)
        X, U = _problem(shape=shape)
        with pytest.warns(TuneCacheWarning, match="twostep:left"):
            record = autotune(
                X, U, 0, num_threads=1, cache=cache, repeats=1,
            )
        assert record.label in ("onestep", "dimtree", "baseline")
        assert cache.get(key).label == record.label
