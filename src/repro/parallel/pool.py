"""A persistent worker-thread pool with an OpenMP-style ``parallel_for``.

The paper's algorithms are structured as OpenMP ``parallel for`` regions
with static contiguous scheduling, thread-private temporaries, and a final
reduction.  :class:`ThreadPool` reproduces that structure:

* workers are created once and persist across regions (like an OpenMP
  runtime's thread team), so region launch overhead is a couple of
  condition-variable signals rather than thread creation;
* :meth:`ThreadPool.parallel_for` runs ``fn(t, start, stop)`` on every
  thread ``t`` with the contiguous block schedule of
  :func:`repro.parallel.partition.contiguous_blocks`;
* :meth:`ThreadPool.run_tasks` runs one arbitrary callable per thread
  (used for irregular regions such as the internal-mode block loop).

NumPy's BLAS kernels and most elementwise ufuncs release the GIL, so worker
threads overlap on real multi-core machines.  On a single-core host the pool
still executes correctly (and is exercised by the tests); wall-clock scaling
is then evaluated through :mod:`repro.machine`.

Exceptions raised inside workers are captured and re-raised in the calling
thread after the region completes, with the worker index attached.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Callable, Sequence

from repro.obs.tracer import get_tracer
from repro.parallel.partition import contiguous_blocks
from repro.parallel.sanitizer import get_sanitizer

__all__ = ["ThreadPool", "get_pool", "shutdown_all_pools"]

# Traced regions number their worker spans (``region=`` arg) so a phase
# breakdown can tell one region's workers from another's.
_region_ids = itertools.count()


class WorkerError(RuntimeError):
    """An exception raised by a pool worker, annotated with its index.

    Attributes
    ----------
    worker:
        Index of the worker that raised.
    original:
        The exception the worker raised.  It is also installed as this
        error's ``__cause__`` (so tracebacks show the worker-side frames).
    others:
        :class:`WorkerError` instances from any *other* workers that failed
        in the same region — a multi-worker failure loses no information.
    """

    def __init__(self, worker: int, original: BaseException) -> None:
        super().__init__(f"worker {worker} raised {original!r}")
        self.worker = worker
        self.original = original
        self.others: tuple["WorkerError", ...] = ()


class ThreadPool:
    """Persistent team of ``num_threads`` worker threads.

    The calling thread never executes region work itself; this keeps the
    mapping ``worker index == thread index`` stable across regions, which
    the algorithms rely on for private-buffer indexing.

    A pool with ``num_threads == 1`` short-circuits: regions run inline on
    the calling thread with zero synchronization overhead, so sequential
    benchmarks measure pure algorithm time.
    """

    def __init__(self, num_threads: int) -> None:
        num_threads = int(num_threads)
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        self.num_threads = num_threads
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._done_cv = threading.Condition(self._lock)
        # Serializes whole region launches: two caller threads sharing one
        # pool take turns instead of corrupting _tasks/_pending/_generation.
        self._region_lock = threading.Lock()
        self._worker_idents: frozenset[int] = frozenset()
        self._tasks: Sequence[Callable[[], None]] | None = None
        self._generation = 0
        self._pending = 0
        self._errors: list[WorkerError] = []
        self._shutdown = False
        self._shared = False  # True for pools owned by the get_pool cache
        self._threads: list[threading.Thread] = []
        if num_threads > 1:
            for t in range(num_threads):
                th = threading.Thread(
                    target=self._worker_loop,
                    args=(t,),
                    name=f"repro-pool-{id(self):x}-{t}",
                    daemon=True,
                )
                th.start()
                self._threads.append(th)
            # Frozen after startup: membership tests need no locking.  Set
            # before any region can run, so a worker that launches a nested
            # region is always recognized.
            self._worker_idents = frozenset(
                th.ident for th in self._threads if th.ident is not None
            )

    # ------------------------------------------------------------------ #

    def _worker_loop(self, index: int) -> None:
        seen_generation = 0
        while True:
            with self._work_cv:
                while self._generation == seen_generation and not self._shutdown:
                    self._work_cv.wait()
                if self._shutdown:
                    return
                seen_generation = self._generation
                task = self._tasks[index] if self._tasks else None
            error: WorkerError | None = None
            if task is not None:
                try:
                    task()
                except BaseException as exc:  # noqa: BLE001 - reraised in caller
                    error = WorkerError(index, exc)
            with self._done_cv:
                if error is not None:
                    self._errors.append(error)
                self._pending -= 1
                if self._pending == 0:
                    self._done_cv.notify_all()

    def run_tasks(
        self,
        tasks: Sequence[Callable[[], None]],
        label: str | None = None,
    ) -> None:
        """Execute one callable per thread; blocks until all complete.

        ``tasks`` must have exactly ``num_threads`` entries; ``None``
        entries are allowed and mean "this thread idles this region".

        When tracing is enabled (:mod:`repro.obs`), the region is recorded
        as a span named ``label`` (default ``"pool.region"``) carrying the
        per-worker wall times and the load-imbalance metric (max/mean
        worker time), plus one child span per participating worker on that
        worker's own thread lane; the region and its worker spans carry the
        region's sequence number (``region=``).  With tracing disabled this adds one attribute check
        to the region launch.
        """
        if len(tasks) != self.num_threads:
            raise ValueError(
                f"expected {self.num_threads} tasks, got {len(tasks)}"
            )
        if self._shutdown:
            raise RuntimeError("pool has been shut down")
        tracer = get_tracer()
        name = label or "pool.region"
        if not tracer.enabled:
            self._dispatch(tasks, name)
            return
        times: list[float | None] = [None] * self.num_threads
        region = next(_region_ids)

        def timed(index: int, task: Callable[[], None]) -> Callable[[], None]:
            def run() -> None:
                start = time.perf_counter()
                try:
                    with tracer.span(
                        f"{name}.worker", worker=index, region=region
                    ):
                        task()
                finally:
                    times[index] = time.perf_counter() - start

            return run

        wrapped = [
            None if task is None else timed(i, task)
            for i, task in enumerate(tasks)
        ]
        region_start = time.perf_counter()
        try:
            self._dispatch(wrapped, name)
        finally:
            span = tracer.record_region(
                name,
                region_start,
                time.perf_counter(),
                [s for s in times if s is not None],
            )
            span.args["region"] = region

    def _dispatch(
        self,
        tasks: Sequence[Callable[[], None] | None],
        label: str,
    ) -> None:
        """Run a region, bracketed by the write-set sanitizer when enabled.

        Each task's thread is tagged with its worker index for the duration
        of the task, so writes to instrumented arrays attribute correctly;
        the region barrier then asserts pairwise disjointness of the
        recorded write sets (:mod:`repro.parallel.sanitizer`).  The check
        only runs when the region itself succeeded — a ``WorkerError`` must
        surface unmasked.
        """
        san = get_sanitizer()
        if not san.enabled:
            self._execute(tasks)
            return

        def tagged(index: int, task: Callable[[], None]) -> Callable[[], None]:
            def run() -> None:
                san.set_worker(index)
                try:
                    task()
                finally:
                    san.set_worker(None)

            return run

        wrapped = [
            None if task is None else tagged(i, task)
            for i, task in enumerate(tasks)
        ]
        san.region_begin(label)
        ok = False
        try:
            self._execute(wrapped)
            ok = True
        finally:
            san.region_end(label, check=ok)

    def _execute(self, tasks: Sequence[Callable[[], None] | None]) -> None:
        if self.num_threads == 1:
            if tasks[0] is not None:
                tasks[0]()
            return
        if threading.get_ident() in self._worker_idents:
            # A worker of *this* pool launching a region on it would wait
            # forever for itself; fail fast instead (nested parallelism
            # needs a different pool, as with OpenMP nested teams).
            raise RuntimeError(
                "nested parallel region: a worker of this pool cannot "
                "launch a region on its own pool; use a separate pool "
                "for nested parallelism"
            )
        # The region lock serializes concurrent launches from independent
        # caller threads — without it they interleave on _tasks/_pending/
        # _generation and both regions misbehave.
        with self._region_lock:
            with self._work_cv:
                if self._shutdown:
                    raise RuntimeError("pool has been shut down")
                self._tasks = tasks
                self._errors = []
                self._pending = self.num_threads
                self._generation += 1
                self._work_cv.notify_all()
            with self._done_cv:
                while self._pending > 0:
                    self._done_cv.wait()
                errors = self._errors
                self._tasks = None
        if errors:
            errors.sort(key=lambda e: e.worker)
            err = errors[0]
            err.others = tuple(errors[1:])
            # Chain so the worker-side traceback survives re-raising here.
            raise err from err.original

    def parallel_for(
        self,
        fn: Callable[[int, int, int], None],
        num_items: int,
        schedule: str = "static",
        chunk: int | None = None,
        label: str | None = None,
    ) -> None:
        """OpenMP-style worksharing loop: ``fn(t, start, stop)`` per chunk.

        Parameters
        ----------
        fn:
            Receives the worker index and a contiguous half-open item
            range.  Under the static schedule each thread is invoked at
            most once (with its whole block); under the dynamic schedule a
            thread may be invoked many times with successive chunks.
        num_items:
            Iteration-space size.
        schedule:
            ``"static"`` — contiguous ceiling blocks (the paper's
            ``b = ceil(I/T)``; default, zero coordination);
            ``"dynamic"`` — threads self-schedule fixed-size chunks from a
            shared counter (OpenMP's ``schedule(dynamic, chunk)``), useful
            when per-item cost varies (e.g. matricization blocks of a
            ragged workload).
        chunk:
            Dynamic chunk size; defaults to
            ``max(num_items // (8 * num_threads), 1)``.
        label:
            Region name used when tracing is enabled (see
            :meth:`run_tasks`).
        """
        if schedule == "static":
            blocks = contiguous_blocks(num_items, self.num_threads)
            tasks: list[Callable[[], None] | None] = []
            for t, (start, stop) in enumerate(blocks):
                if start >= stop:
                    tasks.append(None)
                else:
                    tasks.append(
                        lambda t=t, start=start, stop=stop: fn(t, start, stop)
                    )
            self.run_tasks(tasks, label=label)
            return
        if schedule != "dynamic":
            raise ValueError(
                f"schedule must be 'static' or 'dynamic', got {schedule!r}"
            )
        num_items = int(num_items)
        if num_items < 0:
            raise ValueError(f"num_items must be non-negative, got {num_items}")
        if chunk is None:
            chunk = max(num_items // (8 * self.num_threads), 1)
        chunk = int(chunk)
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        cursor_lock = threading.Lock()
        cursor = 0

        def worker_loop(t: int) -> None:
            nonlocal cursor
            while True:
                with cursor_lock:
                    start = cursor
                    if start >= num_items:
                        return
                    cursor = stop = min(start + chunk, num_items)
                fn(t, start, stop)

        self.run_tasks(
            [lambda t=t: worker_loop(t) for t in range(self.num_threads)],
            label=label,
        )

    def shutdown(self) -> None:
        """Terminate worker threads.  The pool cannot be used afterwards.

        A shut-down pool is also evicted from the :func:`get_pool` cache
        (deterministically, for every thread count including 1), so the
        next :func:`get_pool` call builds a fresh pool rather than finding
        a dead one.
        """
        _evict_cached_pool(self)
        if self.num_threads == 1:
            self._shutdown = True
            return
        with self._work_cv:
            if self._shutdown:
                return
            self._shutdown = True
            self._work_cv.notify_all()
        for th in self._threads:
            th.join(timeout=5.0)

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc) -> None:
        # Shared pools (handed out by get_pool) are owned by the cache, not
        # by any one `with` block: exiting the block must not tear down a
        # pool other callers may hold.  Call shutdown() explicitly to
        # retire a shared pool (which also evicts it from the cache).
        if not self._shared:
            self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadPool(num_threads={self.num_threads})"


_pool_cache: dict[int, ThreadPool] = {}
_pool_cache_lock = threading.Lock()


def _evict_cached_pool(pool: ThreadPool) -> None:
    """Drop ``pool`` from the cache if it is the cached entry for its size."""
    with _pool_cache_lock:
        if _pool_cache.get(pool.num_threads) is pool:
            del _pool_cache[pool.num_threads]


def get_pool(num_threads: int) -> ThreadPool:
    """Return a shared persistent pool with ``num_threads`` workers.

    Pools are cached per thread count (mirroring an OpenMP runtime that
    keeps its thread team alive between parallel regions), so benchmark
    loops do not pay thread-creation costs per call.

    Ownership: the returned pool belongs to the cache.  Using it as a
    context manager is allowed (``with get_pool(4) as pool: ...``) but the
    ``with`` block does **not** shut the pool down on exit — otherwise one
    caller's block would silently retire the pool for every later caller.
    Call :meth:`ThreadPool.shutdown` (or :func:`shutdown_all_pools`) to
    retire it explicitly; that also evicts it from the cache.
    """
    num_threads = int(num_threads)
    if num_threads <= 0:
        raise ValueError(f"num_threads must be positive, got {num_threads}")
    with _pool_cache_lock:
        pool = _pool_cache.get(num_threads)
        if pool is None or pool._shutdown:
            pool = ThreadPool(num_threads)
            pool._shared = True
            _pool_cache[num_threads] = pool
        return pool


def shutdown_all_pools() -> None:
    """Shut down and drop every cached pool (used by tests)."""
    with _pool_cache_lock:
        pools = list(_pool_cache.values())
        _pool_cache.clear()
    for pool in pools:
        pool.shutdown()
