"""``cp_als(tune=True)``: tuned runs are replayable, validated, and lean.

The contract under test: tuning happens once before the iteration loop,
its picks are recorded in ``result.tuning`` as replayable method specs,
the tuned run's iterates are bit-identical to an untuned run given the
same per-mode methods, the workspace arena allocates nothing after the
first run warms it up, and everything holds under the runtime sanitizer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dispatch import MTTKRP_METHODS
from repro.cpd.cp_als import cp_als
from repro.parallel.sanitizer import sanitize
from repro.parallel.workspace import Workspace
from repro.tensor.generate import random_tensor
from repro.tune import reset_cache

pytestmark = pytest.mark.tune

SHAPE = (6, 5, 4, 3)
RANK = 2


@pytest.fixture(autouse=True)
def _fresh_in_memory_cache(monkeypatch):
    monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
    reset_cache()
    yield
    reset_cache()


@pytest.fixture
def tensor():
    return random_tensor(SHAPE, rng=11)


class TestTunedRun:
    def test_tuning_records_populated(self, tensor):
        result = cp_als(tensor, RANK, n_iter_max=2, tol=0.0, rng=0, tune=True)
        assert result.tuning is not None
        assert len(result.tuning) == tensor.ndim
        for record in result.tuning:
            assert record.method in MTTKRP_METHODS
            assert record.source in ("measured", "degenerate", "prior")

    def test_untuned_run_has_no_tuning(self, tensor):
        result = cp_als(tensor, RANK, n_iter_max=1, tol=0.0, rng=0)
        assert result.tuning is None

    def test_bit_identical_to_explicit_per_mode_replay(self, tensor):
        """Acceptance: a tuned run equals an untuned run whose per-mode
        ``method`` list is exactly the recorded picks."""
        tuned = cp_als(tensor, RANK, n_iter_max=3, tol=0.0, rng=0, tune=True)
        labels = [r.label for r in tuned.tuning]
        replay = cp_als(
            tensor, RANK, n_iter_max=3, tol=0.0, rng=0, method=labels
        )
        assert tuned.fits == replay.fits
        for a, b in zip(tuned.model.factors, replay.model.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(tuned.model.weights, replay.model.weights)

    def test_second_tuned_run_hits_the_cache(self, tensor):
        import repro.obs as obs

        cp_als(tensor, RANK, n_iter_max=1, tol=0.0, rng=0, tune=True)
        tracer = obs.enable()
        try:
            cp_als(tensor, RANK, n_iter_max=1, tol=0.0, rng=0, tune=True)
        finally:
            obs.disable()
        assert obs.counter_total(tracer, "tune.measure") == 0
        assert obs.counter_total(tracer, "tune.cache_hit") == tensor.ndim


class TestValidation:
    def test_tune_requires_per_mode_strategy(self, tensor):
        with pytest.raises(ValueError, match="per-mode"):
            cp_als(tensor, RANK, n_iter_max=1, rng=0, tune=True,
                   mode_strategy="dimtree")

    def test_method_list_wrong_length_raises(self, tensor):
        with pytest.raises(ValueError, match="per-mode methods"):
            cp_als(tensor, RANK, n_iter_max=1, rng=0,
                   method=["onestep", "baseline"])

    def test_method_list_with_dimtree_strategy_raises(self, tensor):
        with pytest.raises(ValueError, match="per-mode"):
            cp_als(tensor, RANK, n_iter_max=1, rng=0,
                   method=["onestep"] * tensor.ndim,
                   mode_strategy="dimtree")

    def test_explicit_method_list_works(self, tensor):
        methods = ["onestep", "twostep:left", "dimtree", "baseline"]
        result = cp_als(
            tensor, RANK, n_iter_max=2, tol=0.0, rng=0, method=methods
        )
        reference = cp_als(
            tensor, RANK, n_iter_max=2, tol=0.0, rng=0, method="onestep"
        )
        assert result.fits == pytest.approx(reference.fits, abs=1e-12)


class TestWorkspaceHygiene:
    def test_no_allocations_after_warm_up(self, tensor):
        """Acceptance: the second identical tuned run allocates nothing —
        tuning is a cache hit and the iteration buffers are reused."""
        ws = Workspace()
        cp_als(tensor, RANK, n_iter_max=2, tol=0.0, rng=0, tune=True,
               workspace=ws)
        warm = ws.stats.allocations
        cp_als(tensor, RANK, n_iter_max=2, tol=0.0, rng=0, tune=True,
               workspace=ws)
        assert ws.stats.allocations == warm
        ws.close()

    def test_measurement_scratch_released_after_tuning(self, tensor):
        ws = Workspace()
        cp_als(tensor, RANK, n_iter_max=1, tol=0.0, rng=0, tune=True,
               workspace=ws)
        assert not any(n.startswith("tune.") for n in ws._buffers)
        ws.close()

    def test_external_workspace_not_closed(self, tensor):
        ws = Workspace()
        cp_als(tensor, RANK, n_iter_max=1, tol=0.0, rng=0, tune=True,
               workspace=ws)
        ws.buffer("still-open", (2,))  # raises if cp_als closed it
        ws.close()


class TestSanitized:
    def test_tuned_run_is_clean_under_sanitizer(self, tensor):
        with sanitize():
            result = cp_als(
                tensor, RANK, n_iter_max=2, tol=0.0, rng=0, tune=True
            )
        assert np.isfinite(result.final_fit)
        assert result.tuning is not None

    def test_autotune_clean_under_sanitizer(self, tensor):
        from repro.tensor.generate import random_factors
        from repro.tune import autotune

        factors = random_factors(tensor.shape, RANK, rng=1)
        with sanitize():
            record = autotune(tensor, factors, 1, num_threads=2, repeats=1)
        assert record.method in MTTKRP_METHODS
