"""Autotuner behaviour: candidates, measurement, caching, degeneracy, CLI.

The persistence layer has its own suite (``test_tune_cache.py``); the
randomized correctness sweep lives in ``test_oracle_differential.py``.
This module pins the tuner's *decision* behaviour: which candidates are
eligible, that ``method="autotune"`` returns exactly what the selected
kernel returns, that a warm cache means zero measurements, that 2-way
tensors skip measurement without warning, and that the CLI round-trips.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.core.dispatch import MTTKRP_METHODS, mttkrp
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.machine.model import host_model_default
from repro.parallel.workspace import Workspace
from repro.tensor.generate import random_factors, random_tensor
from repro.tune import (
    TuningCache,
    autotune,
    candidate_set,
    is_degenerate,
    proxy_operands,
    reset_cache,
)
from repro.tune.tuner import _prior_order, run_candidate

pytestmark = pytest.mark.tune


@pytest.fixture(autouse=True)
def _fresh_in_memory_cache(monkeypatch):
    monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
    reset_cache()
    yield
    reset_cache()


def _problem(shape=(4, 5, 6), rank=3, seed=0):
    return (
        random_tensor(shape, rng=seed),
        random_factors(shape, rank, rng=seed + 1),
    )


class TestCandidates:
    def test_internal_mode_has_all_kernels(self):
        labels = {c.label for c in candidate_set((4, 5, 6), 1)}
        assert labels == {
            "onestep", "twostep:left", "twostep:right", "dimtree",
            "baseline",
        }

    def test_external_mode_excludes_twostep(self):
        # The 2-step degenerates to the 1-step on external modes;
        # measuring it separately would only duplicate a candidate.
        for n in (0, 2):
            labels = {c.label for c in candidate_set((4, 5, 6), n)}
            assert labels == {"onestep", "dimtree", "baseline"}

    def test_two_way_is_degenerate(self):
        assert is_degenerate((7, 9))
        assert not is_degenerate((7, 9, 2))
        assert [c.label for c in candidate_set((7, 9), 0)] == ["onestep"]

    def test_every_candidate_is_dispatchable(self):
        X, U = _problem()
        for n in range(3):
            ref = mttkrp_baseline(X, U, n)
            for cand in candidate_set(X.shape, n):
                out = run_candidate(cand, X, U, n, num_threads=1)
                np.testing.assert_allclose(out, ref, atol=1e-10)
                assert cand.method in MTTKRP_METHODS


class TestAutotuneDispatch:
    def test_result_bit_identical_to_selected_kernel(self):
        X, U = _problem()
        for n in range(3):
            record = autotune(X, U, n, num_threads=1, repeats=1)
            via_autotune = mttkrp(X, U, n, method="autotune", num_threads=1)
            direct = mttkrp(X, U, n, method=record.label, num_threads=1)
            assert np.array_equal(via_autotune, direct)

    def test_second_invocation_measures_nothing(self):
        """Acceptance: warm key => zero measurements, one cache hit."""
        X, U = _problem(shape=(3, 4, 5, 2), rank=2, seed=3)
        mttkrp(X, U, 2, method="autotune", num_threads=1)  # cold: measures
        tracer = obs.enable()
        try:
            mttkrp(X, U, 2, method="autotune", num_threads=1)
        finally:
            obs.disable()
        assert obs.counter_total(tracer, "tune.measure") == 0
        assert obs.counter_total(tracer, "tune.cache_hit") == 1
        assert obs.counter_total(tracer, "tune.cache_miss") == 0

    def test_cold_invocation_measures_each_candidate(self):
        X, U = _problem()
        tracer = obs.enable()
        try:
            record = autotune(X, U, 1, num_threads=1, repeats=2)
        finally:
            obs.disable()
        n_candidates = len(record.times)
        assert n_candidates >= 2
        # repeats timed runs + 1 warm-up per measured candidate.
        assert obs.counter_total(tracer, "tune.measure") == 3 * n_candidates
        assert obs.counter_total(tracer, "tune.cache_miss") == 1
        assert record.source == "measured"
        assert min(record.times.values()) == record.times[
            min(record.times, key=record.times.get)
        ]

    def test_force_remeasures(self):
        X, U = _problem()
        cache = TuningCache(None)
        autotune(X, U, 1, num_threads=1, cache=cache, repeats=1)
        tracer = obs.enable()
        try:
            autotune(X, U, 1, num_threads=1, cache=cache, repeats=1,
                     force=True)
        finally:
            obs.disable()
        assert obs.counter_total(tracer, "tune.measure") > 0

    def test_distinct_threads_are_distinct_keys(self):
        X, U = _problem()
        cache = TuningCache(None)
        autotune(X, U, 1, num_threads=1, cache=cache, repeats=1)
        autotune(X, U, 1, num_threads=2, cache=cache, repeats=1)
        assert len(cache) == 2


class TestTwoWayDegenerate:
    """Regression: ``method="autotune"`` on a 2-way tensor must skip
    measurement entirely and not warn (every kernel is one GEMM there,
    mirroring the twostep->onestep degenerate-kwargs behaviour)."""

    def test_no_measurement_and_no_warning(self):
        X, U = _problem(shape=(6, 7), rank=4, seed=5)
        tracer = obs.enable()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for n in range(2):
                    out = mttkrp(X, U, n, method="autotune", num_threads=1)
                    np.testing.assert_allclose(
                        out, mttkrp_baseline(X, U, n), atol=1e-12
                    )
        finally:
            obs.disable()
        assert obs.counter_total(tracer, "tune.measure") == 0
        assert obs.counter_total(tracer, "tune.cache_miss") == 0

    def test_degenerate_record_is_cached(self):
        X, U = _problem(shape=(6, 7), rank=4, seed=5)
        cache = TuningCache(None)
        record = autotune(X, U, 0, num_threads=1, cache=cache)
        assert record.method == "onestep"
        assert record.source == "degenerate"
        assert record.times == {}
        assert len(cache) == 1
        # A second call is a plain cache hit.
        again = autotune(X, U, 0, num_threads=1, cache=cache)
        assert again.method == "onestep"


class TestPriorAndProxy:
    def test_prior_order_keeps_at_least_two(self):
        cands = candidate_set((4, 5, 6), 1)
        kept = _prior_order(
            cands, (4, 5, 6), 3, 1, host_model_default(), 1,
            prune_ratio=1.0 + 1e-12,  # prune as hard as possible
        )
        assert len(kept) >= 2
        assert set(c.label for c in kept) <= set(c.label for c in cands)

    def test_prior_handles_more_threads_than_model_cores(self):
        cands = candidate_set((4, 5, 6), 1)
        model = host_model_default().with_cores(1)
        kept = _prior_order(cands, (4, 5, 6), 3, 8, model, 1, 10.0)
        assert kept  # widened with with_cores instead of raising

    def test_proxy_identity_for_small_tensors(self):
        X, U = _problem()
        PX, PU = proxy_operands(X, U)
        assert PX is X and [id(f) for f in PU] == [id(f) for f in U]

    def test_proxy_shrinks_large_tensors_shape_faithfully(self):
        X, U = _problem(shape=(24, 6, 12), rank=3, seed=2)
        PX, PU = proxy_operands(X, U, entry_limit=200)
        assert PX.size <= 2 * 200  # rounding slack
        assert PX.ndim == X.ndim
        assert PX.dtype == X.dtype
        # Aspect ordering is preserved and every dim stays >= 1.
        assert PX.shape[0] >= PX.shape[2] >= PX.shape[1] >= 1
        assert all(f.shape == (s, 3) for f, s in zip(PU, PX.shape))

    def test_tuner_uses_proxy_result_but_runs_real_operands(self):
        """The decision may come from a proxy; the dispatch result must
        still be computed on the real operands."""
        X, U = _problem(shape=(8, 9, 7), rank=2, seed=4)
        record = autotune(X, U, 1, num_threads=1, repeats=1)
        out = mttkrp(X, U, 1, method="autotune", num_threads=1)
        np.testing.assert_allclose(
            out, mttkrp(X, U, 1, method=record.label, num_threads=1),
            atol=0,
        )


class TestWorkspaceIntegration:
    def test_measurement_scratch_is_releasable(self):
        X, U = _problem()
        ws = Workspace()
        autotune(X, U, 1, num_threads=1, workspace=ws, repeats=1)
        tune_buffers = [
            name for name in ws._buffers if name.startswith("tune.")
        ]
        assert tune_buffers  # the dimtree candidate drew scratch
        dropped = ws.release("tune.")
        assert dropped == len(tune_buffers)
        assert not any(n.startswith("tune.") for n in ws._buffers)


class TestCli:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else "src"
        )
        env.pop("REPRO_TUNE_CACHE", None)
        return subprocess.run(
            [sys.executable, "-m", "repro.tune", *args],
            cwd=Path(__file__).parent.parent,
            env=env, capture_output=True, text=True, timeout=180,
        )

    def test_tune_show_clear_round_trip(self, tmp_path):
        cache = str(tmp_path / "cli.json")
        proc = self._run(
            "5x4x6", "--rank", "3", "--threads", "1", "--repeats", "1",
            "--cache", cache,
        )
        assert proc.returncode == 0, proc.stderr
        assert "mode 0:" in proc.stdout and "mode 2:" in proc.stdout
        entries = json.loads(Path(cache).read_text())["entries"]
        assert len(entries) == 3

        shown = self._run("--show", "--cache", cache)
        assert shown.returncode == 0, shown.stderr
        assert "3 entries" in shown.stdout

        cleared = self._run("--clear", "--cache", cache)
        assert cleared.returncode == 0, cleared.stderr
        assert json.loads(Path(cache).read_text())["entries"] == {}

    def test_bad_shape_is_an_argument_error(self):
        proc = self._run("not-a-shape")
        assert proc.returncode == 2
        assert "cannot parse shape" in proc.stderr
