"""Stress the job server: concurrency, priorities, cancellation, shedding.

Invariants pinned here (the ISSUE's acceptance scenario):

* **no job lost, none run twice** — with hundreds of mixed-size jobs
  submitted from many threads at once, every admitted job reaches
  exactly one terminal state and appears exactly once in the dispatch
  log;
* **priority order holds** — with coalescing off, a single worker
  dispatches strictly by (priority desc, submission order);
* **cancellation lands** — for queued jobs (dropped before dispatch)
  and for running solo jobs (cooperative stop at an iteration
  boundary), picked at random under concurrent load;
* **backpressure sheds** — submissions past the depth bound raise
  :class:`~repro.serve.job.QueueFullError`, the queue never exceeds its
  bound, and shed submissions are counted;
* **shutdown drains** — ``shutdown(drain=True)`` completes everything
  admitted before it returns.

Sizes are tiny on purpose — the properties under test are scheduling
properties, not numerics — so the suite stays green under
``REPRO_SANITIZE=1`` where every shared-array write is checked and slow.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    JobServer,
    JobSpec,
    JobState,
    QueueFullError,
    ServeConfig,
)
from repro.tensor.dense import DenseTensor

pytestmark = pytest.mark.serve

SEED = 20180224


def make_tensor(seed: int, shape=(3, 3, 2)) -> DenseTensor:
    rng = np.random.default_rng([SEED, seed])
    return DenseTensor(rng.standard_normal(shape))


def assert_dispatched_exactly_once(server: JobServer, job_ids) -> None:
    dispatched = [
        jid for entry in server.dispatch_log() for jid in entry[1:]
    ]
    assert len(dispatched) == len(set(dispatched)), "a job ran twice"
    assert set(dispatched) <= set(job_ids)


def test_many_concurrent_mixed_jobs_none_lost_none_run_twice():
    """The >=200-job acceptance scenario: mixed sizes, many submitters."""
    n_jobs = 200
    n_submitters = 8
    handles: list = []
    handles_lock = threading.Lock()

    with JobServer(ServeConfig(workers=2, queue_depth=n_jobs,
                               batch_limit=16)) as server:

        def submitter(t: int) -> None:
            rng = random.Random(SEED * 31 + t)
            local = []
            for i in range(n_jobs // n_submitters):
                seed = t * 1000 + i
                shape = (3, 3, 2) if rng.random() < 0.8 else (6, 5, 4)
                local.append(server.submit(JobSpec(
                    rank=2, tensor=make_tensor(seed, shape), seed=seed,
                    n_iter_max=2, priority=rng.randrange(4),
                )))
            with handles_lock:
                handles.extend(local)

        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in range(n_submitters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(handles) == n_jobs

        for handle in handles:
            result = handle.result(timeout=120.0)
            assert np.isfinite(result.fit)

        stats = server.stats()
        assert stats["completed"] == n_jobs
        assert stats["failed"] == 0 and stats["cancelled"] == 0
        assert stats["shed"] == 0
        # Coalescing actually engaged under this load.
        assert stats["coalesced_jobs"] > 0
        assert_dispatched_exactly_once(server, [h.job_id for h in handles])


def test_priority_order_holds_without_batching():
    priorities = [3, 0, 7, 1, 9, 4, 2, 8, 5, 6]
    with JobServer(ServeConfig(workers=1, batching=False,
                               paused=True)) as server:
        handles = [
            server.submit(JobSpec(rank=2, tensor=make_tensor(i), seed=i,
                                  n_iter_max=2, priority=p))
            for i, p in enumerate(priorities)
        ]
        server.resume()
        for handle in handles:
            assert handle.wait(timeout=60.0)
        log = server.dispatch_log()
    order = [entry[1] for entry in log]
    by_id = {h.job_id: p for h, p in zip(handles, priorities)}
    dispatched_priorities = [by_id[jid] for jid in order]
    assert dispatched_priorities == sorted(priorities, reverse=True)


def test_fifo_within_equal_priority():
    with JobServer(ServeConfig(workers=1, batching=False,
                               paused=True)) as server:
        handles = [
            server.submit(JobSpec(rank=2, tensor=make_tensor(100 + i),
                                  seed=i, n_iter_max=2, priority=5))
            for i in range(6)
        ]
        server.resume()
        for handle in handles:
            assert handle.wait(timeout=60.0)
        log = server.dispatch_log()
    assert [e[1] for e in log] == [h.job_id for h in handles]


def test_random_cancellations_and_deadlines_under_load():
    n_jobs = 60
    rng = random.Random(SEED)
    with JobServer(ServeConfig(workers=2, queue_depth=n_jobs,
                               paused=True)) as server:
        plans = []  # (handle, plan) with plan in {run, cancel, deadline}
        for i in range(n_jobs):
            roll = rng.random()
            if roll < 0.2:
                # Already-expired deadline: must resolve as TIMEOUT at
                # dispatch, never run.
                spec = JobSpec(rank=2, tensor=make_tensor(200 + i), seed=i,
                               n_iter_max=2, timeout=1e-6,
                               priority=rng.randrange(4))
                plan = "deadline"
            else:
                spec = JobSpec(rank=2, tensor=make_tensor(200 + i), seed=i,
                               n_iter_max=2, priority=rng.randrange(4))
                plan = "cancel" if roll < 0.5 else "run"
            plans.append((server.submit(spec), plan))
        time.sleep(0.01)  # let the expired deadlines actually expire

        cancelled_ids = set()
        for handle, plan in plans:
            if plan == "cancel" and handle.cancel("stress cancel"):
                cancelled_ids.add(handle.job_id)
        server.resume()

        for handle, plan in plans:
            assert handle.wait(timeout=120.0), f"{handle.job_id} lost"
            state = handle.status().state
            if handle.job_id in cancelled_ids:
                assert state is JobState.CANCELLED
            elif plan == "deadline":
                assert state is JobState.TIMEOUT
            else:
                assert state is JobState.DONE
        assert_dispatched_exactly_once(
            server, [h.job_id for h, _ in plans]
        )
        # Cancelled-while-queued and timed-out jobs never dispatched.
        dispatched = {
            jid for e in server.dispatch_log() for jid in e[1:]
        }
        assert not (cancelled_ids & dispatched)


def test_cancel_running_job_lands_mid_load():
    with JobServer(ServeConfig(workers=1)) as server:
        rng_t = np.random.default_rng([SEED, 42])
        blocker = server.submit(JobSpec(
            rank=4, tensor=DenseTensor(rng_t.standard_normal((16, 16, 16))),
            seed=1, n_iter_max=1_000_000, tol=0.0, batchable=False,
        ))
        queued = server.submit(JobSpec(rank=2, tensor=make_tensor(43),
                                       seed=2, n_iter_max=2))
        deadline = time.monotonic() + 30.0
        while server.status(blocker.job_id).state is not JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert blocker.cancel("make way")
        assert blocker.wait(timeout=30.0)
        assert blocker.status().state is JobState.CANCELLED
        # The queue kept moving afterwards.
        assert queued.result(timeout=60.0).iterations == 2


def test_finished_job_keeps_no_tensor_and_still_answers():
    # A finished job drops its tensor (for C-order input, the admission
    # copy) and its own Event; wait() and result() keep working, and a
    # waiter that blocked before completion still wakes.
    c_order = np.random.default_rng([SEED, 44]).standard_normal((5, 4, 3))
    with JobServer(ServeConfig(workers=1, paused=True)) as server:
        handle = server.submit(JobSpec(rank=2, tensor=c_order, seed=3,
                                       n_iter_max=2))
        job = server._jobs[handle.job_id]
        assert job.tensor is not None and job.spec.tensor is not None
        old_event = job.done
        early: list = []
        waiter = threading.Thread(
            target=lambda: early.append(handle.result(timeout=60.0))
        )
        waiter.start()
        server.resume()
        waiter.join(timeout=60.0)
        assert not waiter.is_alive()
        assert old_event.is_set()
        result = handle.result(timeout=0)
        assert early == [result] and result.iterations == 2
        assert handle.wait(timeout=0)
        assert job.tensor is None and job.spec.tensor is None
        assert job.done is not old_event


def test_backpressure_sheds_past_depth_bound():
    depth = 8
    with JobServer(ServeConfig(workers=1, queue_depth=depth,
                               paused=True)) as server:
        admitted = []
        shed = 0
        for i in range(depth + 5):
            try:
                admitted.append(server.submit(JobSpec(
                    rank=2, tensor=make_tensor(300 + i), seed=i,
                    n_iter_max=2,
                )))
            except QueueFullError as exc:
                assert exc.depth == depth
                shed += 1
        assert len(admitted) == depth
        assert shed == 5
        assert server.stats()["shed"] == 5
        assert server.stats()["queue_depth"] == depth
        # Cancelling a queued job frees a slot immediately.
        assert admitted[-1].cancel()
        replacement = server.submit(JobSpec(
            rank=2, tensor=make_tensor(400), seed=0, n_iter_max=2,
        ))
        server.resume()
        assert replacement.result(timeout=60.0).iterations == 2


def test_shutdown_drains_everything_admitted():
    server = JobServer(ServeConfig(workers=2, queue_depth=64, paused=True))
    handles = [
        server.submit(JobSpec(rank=2, tensor=make_tensor(500 + i), seed=i,
                              n_iter_max=2))
        for i in range(24)
    ]
    server.resume()
    server.shutdown(drain=True, timeout=120.0)
    for handle in handles:
        assert handle.status().state is JobState.DONE
    assert server.stats()["completed"] == len(handles)


def test_fast_shutdown_cancels_queued_jobs():
    server = JobServer(ServeConfig(workers=1, queue_depth=64, paused=True))
    handles = [
        server.submit(JobSpec(rank=2, tensor=make_tensor(600 + i), seed=i,
                              n_iter_max=2))
        for i in range(8)
    ]
    server.shutdown(drain=False, timeout=60.0)
    states = {h.status().state for h in handles}
    assert states == {JobState.CANCELLED}
    from repro.serve import ServerClosedError

    with pytest.raises(ServerClosedError):
        server.submit(JobSpec(rank=2, tensor=make_tensor(9), seed=9,
                              n_iter_max=2))
