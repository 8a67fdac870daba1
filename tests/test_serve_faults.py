"""Fault injection against the job server: dead workers, poisoned payloads.

The serving robustness contract (ISSUE acceptance, pinned here):

* SIGKILL-ing a worker mid-job fails **only** that job — with a
  :class:`~repro.parallel.pool.WorkerError` whose ``__cause__`` chain
  records the death — the pool respawns the process, and the very next
  job on the same server succeeds;
* a Python exception inside a job (bad ref contents) fails only that
  job and leaves the worker process alive;
* malformed submissions (NaN tensor, wrong dtype, rank 0, both/neither
  payload sources, absurd budgets) are rejected **at admission** with
  typed errors and never reach the queue or the workers.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest

from repro.parallel.pool import WorkerError
from repro.serve import (
    AdmissionError,
    BudgetError,
    JobServer,
    JobSpec,
    JobState,
    ServeConfig,
)
from repro.tensor.dense import DenseTensor

pytestmark = pytest.mark.serve

SEED = 20180224


def small_tensor(seed: int = 0, shape=(4, 3, 2)) -> DenseTensor:
    rng = np.random.default_rng([SEED, seed])
    return DenseTensor(rng.standard_normal(shape))


def long_job_spec(seed: int = 1) -> JobSpec:
    """A job that runs until cancelled/killed (tol=0 never converges)."""
    rng = np.random.default_rng([SEED, 999, seed])
    tensor = DenseTensor(rng.standard_normal((24, 24, 24)))
    return JobSpec(rank=6, tensor=tensor, seed=seed, n_iter_max=1_000_000,
                   tol=0.0, batchable=False)  # each must run solo


def wait_running(server: JobServer, job_id: str, timeout: float = 30.0) -> None:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if server.status(job_id).state is JobState.RUNNING:
            return
        time.sleep(0.005)
    raise AssertionError(f"{job_id} never started running")


# --------------------------------------------------------------------- #
# Worker death
# --------------------------------------------------------------------- #


def test_sigkill_mid_job_fails_only_that_job_and_pool_respawns():
    with JobServer(ServeConfig(workers=1)) as server:
        victim = server.submit(long_job_spec(seed=1))
        wait_running(server, victim.job_id)
        pid_before = server._handles[0].pid
        server._handles[0].kill()

        assert victim.wait(timeout=30.0)
        status = victim.status()
        assert status.state is JobState.FAILED
        with pytest.raises(WorkerError) as excinfo:
            victim.result()
        # The failure chain must record the death, not just wrap it.
        assert excinfo.value.__cause__ is not None
        assert "died" in str(excinfo.value.__cause__)

        # The pool respawned: a subsequent job on the same server works.
        survivor = server.submit(
            JobSpec(rank=2, tensor=small_tensor(2), seed=2, n_iter_max=3)
        )
        result = survivor.result(timeout=30.0)
        assert result.iterations == 3
        assert np.isfinite(result.fit)
        stats = server.stats()
        assert stats["respawns"] >= 1
        assert server._handles[0].pid != pid_before
        # Exactly one job was hurt.
        assert stats["failed"] == 1
        assert stats["completed"] == 1


def _parent_fds() -> list[str]:
    gc.collect()  # finalizers of a reaped worker close its fds
    targets = []
    for name in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(f"/proc/self/fd/{name}"))
        except OSError:  # the listing's own descriptor, already closed
            pass
    return targets


@pytest.mark.skipif(
    not (os.path.isdir("/proc/self/fd") and hasattr(os, "memfd_create")),
    reason="needs /proc/self/fd and memfd",
)
def test_sigkill_mid_memfd_job_leaks_nothing(memfd_sends):
    from repro.serve.worker import MEMFD_MIN_BYTES

    rng = np.random.default_rng([SEED, 998])
    big = DenseTensor(rng.standard_normal((64, 48, 48)))
    assert big.nbytes >= MEMFD_MIN_BYTES
    with JobServer(ServeConfig(workers=1)) as server:
        fds_before = len(_parent_fds())
        victim = server.submit(JobSpec(
            rank=4, tensor=big, seed=1, n_iter_max=1_000_000, tol=0.0,
        ))
        wait_running(server, victim.job_id)
        # Running means dispatched; wait for the worker to be computing.
        end = time.monotonic() + 30.0
        while victim.status().progress is None:
            assert time.monotonic() < end, "memfd job never made progress"
            time.sleep(0.005)
        assert memfd_sends == [big.nbytes]
        server._handles[0].kill()

        assert victim.wait(timeout=30.0)
        assert victim.status().state is JobState.FAILED
        with pytest.raises(WorkerError):
            victim.result()

        survivor = server.submit(
            JobSpec(rank=2, tensor=small_tensor(7), seed=7, n_iter_max=3)
        )
        assert survivor.result(timeout=30.0).iterations == 3
        stats = server.stats()
        assert (stats["failed"], stats["completed"]) == (1, 1)
        assert stats["respawns"] == 1
        fds_after = _parent_fds()
        assert len(fds_after) == fds_before
        assert not [t for t in fds_after if t.startswith("/memfd:")]


def test_sigkill_with_other_workers_unaffected():
    with JobServer(ServeConfig(workers=2)) as server:
        victim = server.submit(long_job_spec(seed=3))
        bystander = server.submit(long_job_spec(seed=4))
        wait_running(server, victim.job_id)
        wait_running(server, bystander.job_id)
        victim_handle = server._jobs[victim.job_id].handle
        assert victim_handle is not None
        victim_handle.kill()

        assert victim.wait(timeout=30.0)
        assert victim.status().state is JobState.FAILED
        # The bystander kept running on its own worker.
        assert bystander.status().state is JobState.RUNNING
        assert bystander.cancel("test done")
        assert bystander.wait(timeout=30.0)
        assert bystander.status().state is JobState.CANCELLED


def test_job_exception_fails_job_but_worker_survives(tmp_path):
    # A ref whose file exists at admission but is junk when the worker
    # loads it: the job fails with the worker's exception, the process
    # survives (no respawn), and the next job succeeds.
    bad_ref = tmp_path / "junk.npz"
    bad_ref.write_bytes(b"this is not an npz archive")
    with JobServer(ServeConfig(workers=1)) as server:
        doomed = server.submit(JobSpec(rank=2, tensor_ref=str(bad_ref)))
        assert doomed.wait(timeout=30.0)
        assert doomed.status().state is JobState.FAILED
        with pytest.raises(Exception) as excinfo:
            doomed.result()
        assert not isinstance(excinfo.value, WorkerError)

        follow_up = server.submit(
            JobSpec(rank=2, tensor=small_tensor(5), seed=5, n_iter_max=3)
        )
        assert follow_up.result(timeout=30.0).iterations == 3
        assert server.stats()["respawns"] == 0


def test_dead_at_dispatch_retries_on_fresh_worker():
    # Kill the idle worker, then submit: dispatch hits the broken pipe,
    # respawns, retries — the job still succeeds (it never double-runs
    # because nothing was dispatched to the dead process).
    with JobServer(ServeConfig(workers=1)) as server:
        server._handles[0].kill()
        time.sleep(0.1)
        job = server.submit(
            JobSpec(rank=2, tensor=small_tensor(6), seed=6, n_iter_max=3)
        )
        result = job.result(timeout=30.0)
        assert result.iterations == 3


# --------------------------------------------------------------------- #
# Poisoned payloads: typed admission rejections
# --------------------------------------------------------------------- #


def test_nan_tensor_rejected():
    spec = JobSpec(rank=2, tensor=np.full((3, 3), np.nan))
    assert _reject(spec).field == "tensor"


def test_inf_tensor_rejected():
    arr = np.ones((3, 3))
    arr[1, 1] = np.inf
    assert _reject(JobSpec(rank=2, tensor=arr)).field == "tensor"


def test_wrong_dtype_rejected():
    spec = JobSpec(rank=2, tensor=np.ones((3, 3), dtype=np.int64))
    assert _reject(spec).field == "tensor"


def test_wrong_shape_rejected():
    spec = JobSpec(rank=2, tensor=np.ones(5))  # order 1
    assert _reject(spec).field == "tensor"


def test_rank_zero_rejected():
    assert _reject(JobSpec(rank=0, tensor=np.ones((3, 3)))).field == "rank"


def test_both_payload_sources_rejected(tmp_path):
    ref = tmp_path / "t.npz"
    ref.write_bytes(b"x")
    spec = JobSpec(rank=2, tensor=np.ones((3, 3)), tensor_ref=str(ref))
    assert _reject(spec).field == "tensor"


def test_neither_payload_source_rejected():
    assert _reject(JobSpec(rank=2)).field == "tensor"


def test_missing_ref_rejected():
    spec = JobSpec(rank=2, tensor_ref="/no/such/file.npz")
    assert _reject(spec).field == "tensor_ref"


def test_thread_budget_rejected():
    spec = JobSpec(rank=2, tensor=np.ones((3, 3)), num_threads=1_000_000)
    err = _reject(spec, BudgetError)
    assert err.field == "num_threads"
    assert err.requested == 1_000_000
    assert err.allowed >= 1


def test_default_thread_count_resolved_at_admission():
    # A num_threads=None job is charged, grouped and run at the package
    # default thread count, the count a direct cp_als call would pick.
    from repro.parallel.config import num_threads

    with num_threads(2), JobServer(ServeConfig(
        workers=1, paused=True, max_threads=4,
    )) as server:
        handle = server.submit(JobSpec(rank=2, tensor=small_tensor(8)))
        job = server._jobs[handle.job_id]
        assert job.spec.num_threads == 2
        assert server._solo_payload(job)["num_threads"] == 2
        handle.cancel()
    with num_threads(2), JobServer(ServeConfig(
        workers=1, paused=True, max_threads=1,
    )) as server:
        with pytest.raises(BudgetError) as excinfo:
            server.submit(JobSpec(rank=2, tensor=small_tensor(8)))
        assert (excinfo.value.requested, excinfo.value.allowed) == (2, 1)


def test_arena_budget_rejected():
    spec = JobSpec(rank=4, tensor=np.ones((8, 8, 8)), arena_bytes=16)
    err = _reject(spec, BudgetError)
    assert err.field == "arena_bytes"
    assert err.requested > err.allowed == 16


def test_rejections_never_touch_queue_or_workers():
    # One rejection of each kind, back to back on the same server.
    for spec in (
        JobSpec(rank=2, tensor=np.full((3, 3), np.nan)),
        JobSpec(rank=0, tensor=np.ones((3, 3))),
        JobSpec(rank=2),
        JobSpec(rank=2, tensor_ref="/no/such/file.npz"),
        JobSpec(rank=2, tensor=np.ones((3, 3)), num_threads=1_000_000),
        JobSpec(rank=4, tensor=np.ones((8, 8, 8)), arena_bytes=16),
    ):
        _reject(spec)


_SHARED = None


def _reject(spec: JobSpec, error: type[AdmissionError] = AdmissionError):
    """Submit ``spec`` to one module-scoped, admission-only server and
    expect ``error``; the rejection must leave the queue and the workers
    untouched.  Returns the raised error."""
    global _SHARED
    if _SHARED is None:
        _SHARED = JobServer(ServeConfig(workers=1, paused=True))
    with pytest.raises(error) as excinfo:
        _SHARED.submit(spec)
    stats = _SHARED.stats()
    assert stats["admitted"] == 0
    assert stats["queue_depth"] == 0
    return excinfo.value


def teardown_module() -> None:
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown(drain=False, timeout=10.0)
        _SHARED = None
