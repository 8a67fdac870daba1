"""Differential oracle: serving must not change a single bit of a result.

Seeded like ``test_oracle_differential.py``: every configuration is
derived from ``(MASTER_SEED, index)`` alone, so a failure replays in
isolation.  Two equalities are pinned, both **bitwise**:

* a job served **solo** equals a direct
  :func:`repro.cpd.cp_als.cp_als` call with the same tensor, seed and
  options;
* a **coalesced** group equals a direct
  :func:`repro.batch.fleet.cp_als_fleet` call over the same ordered
  member list with the same seeds.

(Fleet iterates agree with solo iterates only to rounding — the batched
engine's documented contract — so the oracle compares each serving path
against its own direct equivalent, never across paths.)

Grouping is made deterministic by pausing the server, submitting the
whole batch, then resuming with one worker: the single tender claims
the group in submission order, and :meth:`JobServer.dispatch_log`
verifies the composition the oracle then replays.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.batch.fleet import cp_als_fleet
from repro.cpd.cp_als import cp_als
from repro.serve import JobServer, JobSpec, ServeConfig
from repro.tensor.dense import DenseTensor

pytestmark = pytest.mark.serve

MASTER_SEED = 20180224  # PPoPP'18


def draw_tensor(index: int, shape=(4, 3, 2), dtype=np.float64) -> DenseTensor:
    rng = np.random.default_rng([MASTER_SEED, index])
    return DenseTensor(rng.standard_normal(shape).astype(dtype))


def assert_model_bits(result, model, label: str) -> None:
    weights = np.asarray(model.weights)
    assert result.weights.dtype == weights.dtype, label
    assert (result.weights == weights).all(), label
    assert len(result.factors) == len(model.factors), label
    for k, (served, direct) in enumerate(zip(result.factors, model.factors)):
        direct = np.asarray(direct)
        assert served.shape == direct.shape, f"{label} mode {k}"
        assert (served == direct).all(), f"{label} mode {k}"


# --------------------------------------------------------------------- #
# Solo path
# --------------------------------------------------------------------- #


def test_solo_bit_identical_to_direct_cp_als():
    configs = []
    for index in range(4):
        rng = np.random.default_rng([MASTER_SEED, 50, index])
        shape = tuple(int(rng.integers(2, 6)) for _ in range(3))
        rank = int(rng.integers(1, 4))
        configs.append((index, shape, rank))
    with JobServer(ServeConfig(workers=2, batching=False,
                               max_threads=4)) as server:
        handles = [
            (
                server.submit(JobSpec(
                    rank=rank, tensor=draw_tensor(index, shape), seed=index,
                    n_iter_max=4, num_threads=2,
                )),
                index, shape, rank,
            )
            for index, shape, rank in configs
        ]
        for handle, index, shape, rank in handles:
            result = handle.result(timeout=60.0)
            assert result.group_size == 1 and not result.batched
            direct = cp_als(
                draw_tensor(index, shape), rank, n_iter_max=4,
                num_threads=2, rng=index,
            )
            assert_model_bits(
                result, direct.model,
                f"solo index={index} shape={shape} rank={rank}",
            )
            assert result.fit == direct.final_fit
            assert result.iterations == direct.iterations


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="needs memfd")
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_solo_memfd_job_bit_identical_to_direct_cp_als(dtype, memfd_sends):
    # A tensor of at least MEMFD_MIN_BYTES reaches the worker through a
    # read-only memfd mapping instead of the pickle stream; the bits of
    # the result must not notice.  A small job on the same server stays
    # on the pipe.
    from repro.serve.worker import MEMFD_MIN_BYTES

    big = draw_tensor(800, shape=(96, 64, 48), dtype=dtype)
    small = draw_tensor(801, dtype=dtype)
    assert big.nbytes >= MEMFD_MIN_BYTES > small.nbytes
    with JobServer(ServeConfig(workers=1, batching=False)) as server:
        results = [
            server.submit(JobSpec(rank=3, tensor=t, seed=seed,
                                  n_iter_max=3)).result(timeout=60.0)
            for t, seed in ((big, 800), (small, 801))
        ]
    assert memfd_sends == [big.nbytes]
    for (t, seed), result in zip(((big, 800), (small, 801)), results):
        direct = cp_als(t, 3, n_iter_max=3, rng=seed)
        assert_model_bits(result, direct.model, f"{dtype.__name__} seed={seed}")
        assert result.fit == direct.final_fit


def test_solo_ref_job_bit_identical(tmp_path):
    from repro.io import save_tensor

    tensor = draw_tensor(7)
    ref = tmp_path / "tensor.npz"
    save_tensor(ref, tensor)
    with JobServer(ServeConfig(workers=1)) as server:
        handle = server.submit(
            JobSpec(rank=2, tensor_ref=str(ref), seed=7, n_iter_max=4)
        )
        result = handle.result(timeout=60.0)
    direct = cp_als(tensor, 2, n_iter_max=4, rng=7)
    assert_model_bits(result, direct.model, "ref job")


def test_solo_rerun_is_deterministic():
    tensor = draw_tensor(11)
    fits = []
    for _ in range(2):
        with JobServer(ServeConfig(workers=1)) as server:
            handle = server.submit(
                JobSpec(rank=3, tensor=tensor, seed=11, n_iter_max=4)
            )
            result = handle.result(timeout=60.0)
            fits.append((result.fit, result.weights.tobytes(),
                         tuple(f.tobytes() for f in result.factors)))
    assert fits[0] == fits[1]


# --------------------------------------------------------------------- #
# Coalesced path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("stale_cache", [False, True],
                         ids=["no-cache-file", "stale-loop-record"])
def test_coalesced_bit_identical_to_direct_fleet(
    stale_cache, tmp_path, monkeypatch
):
    # Coalescing depends on the jobs alone: a leftover tuning-cache file
    # that records the loop lane for exactly this group's key must not
    # split the group into solos.
    if stale_cache:
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({"version": 2, "entries": {
            "shape=4x3x2;rank=2;mode=0;threads=2;dtype=float64;batch=5": {
                "method": "batched-loop", "times": {}, "source": "measured",
            },
        }}))
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
    B = 5
    tensors = [draw_tensor(100 + b) for b in range(B)]
    seeds = [200 + b for b in range(B)]
    with JobServer(ServeConfig(workers=1, paused=True, batch_limit=8,
                               max_threads=4)) as server:
        handles = [
            server.submit(JobSpec(
                rank=2, tensor=tensors[b], seed=seeds[b], n_iter_max=4,
                num_threads=2,
            ))
            for b in range(B)
        ]
        server.resume()
        results = [h.result(timeout=60.0) for h in handles]
        log = server.dispatch_log()
    assert log == [("group",) + tuple(h.job_id for h in handles)]
    assert all(r.batched and r.group_size == B for r in results)
    direct = cp_als_fleet(
        tensors, 2, seeds=seeds, n_iter_max=4, num_threads=2,
    )
    for b, result in enumerate(results):
        assert_model_bits(
            result, direct.model(b), f"coalesced b={b}"
        )
        assert result.fit == float(direct.fits[b])
        assert result.iterations == int(direct.iterations[b])


def test_coalesced_group_respects_priority_order():
    # Higher-priority members are claimed first, so the fleet order —
    # and therefore the bits — is the priority order, not submission
    # order.  The oracle replays the dispatch log's actual order.
    B = 4
    tensors = [draw_tensor(300 + b) for b in range(B)]
    priorities = [0, 5, 1, 3]
    with JobServer(ServeConfig(workers=1, paused=True, batch_limit=8)) as server:
        handles = [
            server.submit(JobSpec(
                rank=2, tensor=tensors[b], seed=400 + b, n_iter_max=3,
                priority=priorities[b],
            ))
            for b in range(B)
        ]
        server.resume()
        for h in handles:
            h.wait(timeout=60.0)
        log = server.dispatch_log()
    assert len(log) == 1 and log[0][0] == "group"
    order = [int(jid.split("-")[1]) - 1 for jid in log[0][1:]]
    # Head = highest priority at pop time; claimed members follow in
    # priority order.
    assert order[0] == 1  # priority 5 submitted second
    assert order[1:] == [3, 2, 0]  # priorities 3, 1, 0
    direct = cp_als_fleet(
        [tensors[i] for i in order], 2, seeds=[400 + i for i in order],
        n_iter_max=3,
    )
    for pos, i in enumerate(order):
        result = handles[i].result(timeout=60.0)
        assert_model_bits(result, direct.model(pos), f"priority member {i}")


def test_mixed_solo_and_coalesced_batch():
    # One oversized (never coalesced) job among coalescible small ones:
    # the small ones group, the big one runs solo, and both equal their
    # direct counterparts.
    small = [draw_tensor(500 + b) for b in range(3)]
    big = draw_tensor(600, shape=(17, 16, 15))  # > max_item_elems below
    with JobServer(ServeConfig(workers=1, paused=True, batch_limit=8,
                               max_item_elems=1000)) as server:
        big_handle = server.submit(
            JobSpec(rank=2, tensor=big, seed=600, n_iter_max=3, priority=10)
        )
        small_handles = [
            server.submit(JobSpec(rank=2, tensor=small[b], seed=700 + b,
                                  n_iter_max=3))
            for b in range(3)
        ]
        server.resume()
        big_result = big_handle.result(timeout=60.0)
        small_results = [h.result(timeout=60.0) for h in small_handles]
        log = server.dispatch_log()
    assert log[0] == ("solo", big_handle.job_id)
    assert log[1] == ("group",) + tuple(h.job_id for h in small_handles)
    assert not big_result.batched
    direct_big = cp_als(big, 2, n_iter_max=3, rng=600)
    assert_model_bits(big_result, direct_big.model, "oversized solo")
    direct_fleet = cp_als_fleet(small, 2, seeds=[700, 701, 702], n_iter_max=3)
    for b, result in enumerate(small_results):
        assert result.batched
        assert_model_bits(result, direct_fleet.model(b), f"small member {b}")
