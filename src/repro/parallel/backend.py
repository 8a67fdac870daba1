"""Execution-backend abstraction: thread-pool and shared-memory process-pool.

The paper's parallel regions assume an OpenMP-style executor: a persistent
team of ``T`` workers, contiguous static (or chunked dynamic) worksharing,
thread-private outputs, and a final reduction.  :class:`Executor` captures
exactly that contract, with two implementations:

* :class:`ThreadExecutor` — the existing persistent
  :class:`~repro.parallel.pool.ThreadPool`.  NumPy's BLAS kernels release
  the GIL, so the GEMM-bound phases overlap; the *Python-level* loops
  (row-wise KRP with reuse, the internal-mode block loop, the multi-TTV
  GEMV loop) serialize on the GIL.
* :class:`ProcessExecutor` — a persistent team of worker **processes**.
  Operands and private outputs live in :mod:`multiprocessing.shared_memory`
  segments (:mod:`repro.parallel.shm`), viewed zero-copy on both sides, so
  regions ship only a function reference plus small argument descriptors —
  and the Python-level loops run with one GIL *per worker*.

Region kernels have the signature ``fn(worker, start, stop, *args)`` over a
half-open item range.  Under the process backend ``fn`` must be picklable
(a module-level function) and every :class:`numpy.ndarray`,
:class:`~repro.tensor.dense.DenseTensor`, or (nested) list/tuple of arrays
in ``args`` is transparently re-materialized in the workers as a view of
shared memory.  Arrays a worker must *write* (private outputs, timing
scratch) have to come from :meth:`Executor.allocate_private` /
:meth:`Executor.allocate_shared`, which the process backend serves straight
from the arena so parent and workers address the same pages.

Observability (:mod:`repro.obs`) flows through both backends: the thread
backend records regions in the pool as before; the process backend collects
spans and counters inside each worker under a region-local tracer, ships
them back on the results channel, and replays them into the parent tracer —
so Chrome traces and imbalance metrics stay complete either way.

Backend selection: :func:`get_executor` honours the package default from
:mod:`repro.parallel.config` (``set_backend()`` / ``use_backend()`` /
``REPRO_BACKEND=thread|process``); kernels in :mod:`repro.core` and the
CP-ALS driver dispatch through it.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import traceback
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from repro.obs.tracer import get_tracer
from repro.parallel.config import resolve_backend, resolve_threads
from repro.parallel.partition import contiguous_blocks
from repro.parallel.pool import ThreadPool, WorkerError, get_pool
from repro.parallel.reduction import parallel_reduce
from repro.parallel.sanitizer import get_sanitizer
from repro.parallel.shm import ShmArena, ShmHandle, attach

__all__ = [
    "Executor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "reset_worker_runtime_state",
    "shutdown_all_executors",
]

_clock = time.perf_counter

# Set in worker processes: forbids spawning nested process teams from
# inside a region kernel.
_IN_WORKER = False


def _default_chunk(num_items: int, num_workers: int) -> int:
    return max(num_items // (8 * num_workers), 1)


class Executor(ABC):
    """An OpenMP-style parallel-region executor (see module docstring)."""

    #: Backend name, ``"thread"`` or ``"process"``.
    backend: str = ""
    #: Worker-team size ``T``.
    num_workers: int = 1

    @abstractmethod
    def parallel_for(
        self,
        fn: Callable[..., None],
        num_items: int,
        *,
        args: Sequence = (),
        schedule: str = "static",
        chunk: int | None = None,
        label: str | None = None,
    ) -> None:
        """Run ``fn(worker, start, stop, *args)`` over ``[0, num_items)``.

        ``schedule="static"`` gives each worker one contiguous ceiling
        block (the paper's ``b = ceil(I/T)``); ``"dynamic"`` lets workers
        claim fixed-size chunks from a shared cursor.  Blocks until the
        region completes; worker exceptions re-raise here as
        :class:`~repro.parallel.pool.WorkerError` (first worker's error,
        with the rest attached as ``.others``).
        """

    @abstractmethod
    def allocate_shared(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Zero-initialized array whose worker writes the caller can read."""

    def allocate_private(
        self, copies: int, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Per-worker private output buffers: a ``(copies, *shape)`` array.

        ``buffers[t]`` is worker ``t``'s private slab (Alg. 3's ``M_t``);
        the backend guarantees worker writes are visible to the caller.
        """
        copies = int(copies)
        if copies <= 0:
            raise ValueError(f"copies must be positive, got {copies}")
        return self.allocate_shared((copies,) + tuple(shape), dtype)

    def owns_shared(self, array: np.ndarray) -> bool:
        """Whether worker writes to ``array`` are visible to the caller.

        True for every array on the thread backend; on the process backend
        only for arrays served by :meth:`allocate_shared` /
        :meth:`allocate_private` (views of the executor's arena).
        """
        return True

    @abstractmethod
    def reduce(self, buffers: np.ndarray, label: str | None = None) -> np.ndarray:
        """Tree-sum ``buffers`` over axis 0 (Alg. 3 line 19); returns the total.

        The reduction tree has the same pairing structure on every backend,
        so results are bit-identical across backends for a fixed ``T``.
        """

    @abstractmethod
    def shutdown(self) -> None:
        """Release workers and any shared segments.  Idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        # Mirrors ThreadPool ownership semantics: executors handed out by
        # the get_executor cache are shared and survive `with` blocks.
        if not getattr(self, "_shared", False):
            self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_workers={self.num_workers})"


class ThreadExecutor(Executor):
    """Executor over the persistent :class:`ThreadPool` (default backend)."""

    backend = "thread"

    def __init__(self, num_workers: int | None = None, pool: ThreadPool | None = None):
        if pool is not None:
            self._pool = pool
        else:
            self._pool = get_pool(resolve_threads(num_workers))
        self.num_workers = self._pool.num_threads

    def parallel_for(
        self,
        fn: Callable[..., None],
        num_items: int,
        *,
        args: Sequence = (),
        schedule: str = "static",
        chunk: int | None = None,
        label: str | None = None,
    ) -> None:
        if args:
            work = lambda t, lo, hi: fn(t, lo, hi, *args)  # noqa: E731
        else:
            work = fn
        self._pool.parallel_for(
            work, num_items, schedule=schedule, chunk=chunk, label=label
        )

    def allocate_shared(self, shape, dtype=np.float64) -> np.ndarray:
        # When the sanitizer is on, shared allocations come back
        # instrumented so worker writes are race-checked at the barrier;
        # wrap() is the identity when it is off.
        return get_sanitizer().wrap(np.zeros(tuple(shape), dtype=dtype))

    def reduce(self, buffers: np.ndarray, label: str | None = None) -> np.ndarray:
        return parallel_reduce(buffers, self._pool)

    def shutdown(self) -> None:
        self._shut = True
        _evict_cached_executor(self)
        self._pool.shutdown()


# --------------------------------------------------------------------- #
# Process backend
# --------------------------------------------------------------------- #

_ARR, _TENSOR, _SEQ, _VAL = "arr", "tensor", "seq", "val"


def _k_reduce_level(worker, start, stop, buffers, pairs):
    """One level of the reduction tree: disjoint ``dst += src`` pairs."""
    for i in range(start, stop):
        dst, src = int(pairs[i, 0]), int(pairs[i, 1])
        buffers[dst] += buffers[src]


class ProcessExecutor(Executor):
    """Persistent worker-process team over shared-memory operands.

    Parameters
    ----------
    num_workers:
        Team size; defaults to the package-wide thread count.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``REPRO_MP_START``
        or ``"fork"`` where available (instant worker startup; workers
        reset inherited runtime state), else ``"spawn"``.

    A team with ``num_workers == 1`` runs regions inline, exactly like a
    one-thread :class:`ThreadPool` — no processes, no segments.
    """

    backend = "process"

    def __init__(self, num_workers: int | None = None, start_method: str | None = None):
        if _IN_WORKER:
            raise RuntimeError(
                "nested parallel region: cannot create a process team "
                "inside a process-backend worker"
            )
        self.num_workers = resolve_threads(num_workers)
        self._pid = os.getpid()
        self._region_lock = threading.Lock()
        self._shut = False
        self._arena: ShmArena | None = None
        self._procs: list = []
        self._conns: list = []
        if self.num_workers == 1:
            return
        import multiprocessing as mp

        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START", "").strip() or None
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        ctx = mp.get_context(start_method)
        self._arena = ShmArena()
        # Shared cursor for the dynamic schedule: created once (so it works
        # under fork inheritance and spawn argument passing alike), reset
        # by the parent before each dynamic region.
        self._cursor = ctx.Value("q", 0, lock=True)
        try:
            for rank in range(self.num_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(rank, child_conn, self._cursor),
                    name=f"repro-procpool-{rank}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            self.shutdown()
            raise

    # -- argument marshalling ------------------------------------------ #

    def _marshal(self, obj):
        from repro.tensor.dense import DenseTensor

        if isinstance(obj, np.ndarray):
            return (_ARR, self._arena.export(obj))
        if isinstance(obj, DenseTensor):
            return (_TENSOR, self._arena.export(obj.data), obj.shape)
        if isinstance(obj, (list, tuple)) and any(
            isinstance(x, (np.ndarray, DenseTensor, list, tuple)) for x in obj
        ):
            return (_SEQ, type(obj) is tuple, [self._marshal(x) for x in obj])
        return (_VAL, obj)

    # -- region launch -------------------------------------------------- #

    def parallel_for(
        self,
        fn: Callable[..., None],
        num_items: int,
        *,
        args: Sequence = (),
        schedule: str = "static",
        chunk: int | None = None,
        label: str | None = None,
    ) -> None:
        num_items = int(num_items)
        if num_items < 0:
            raise ValueError(f"num_items must be non-negative, got {num_items}")
        if schedule not in ("static", "dynamic"):
            raise ValueError(
                f"schedule must be 'static' or 'dynamic', got {schedule!r}"
            )
        if schedule == "dynamic":
            if chunk is None:
                chunk = _default_chunk(num_items, self.num_workers)
            chunk = int(chunk)
            if chunk <= 0:
                raise ValueError(f"chunk must be positive, got {chunk}")
        if self._shut:
            raise RuntimeError("executor has been shut down")
        if self.num_workers == 1:
            self._run_inline(fn, num_items, args, schedule, chunk)
            return
        with self._region_lock:
            self._launch(fn, num_items, args, schedule, chunk, label)

    def _run_inline(self, fn, num_items, args, schedule, chunk) -> None:
        if num_items == 0:
            return
        if schedule == "static":
            fn(0, 0, num_items, *args)
            return
        for start in range(0, num_items, chunk):
            fn(0, start, min(start + chunk, num_items), *args)

    def _launch(self, fn, num_items, args, schedule, chunk, label) -> None:
        tracer = get_tracer()
        name = label or "pool.region"
        spec = [self._marshal(a) for a in args]
        if schedule == "static":
            ranges = contiguous_blocks(num_items, self.num_workers)
            plans = [("static", ranges[rank]) for rank in range(self.num_workers)]
        else:
            with self._cursor.get_lock():
                self._cursor.value = 0
            plans = [("dynamic", num_items, chunk)] * self.num_workers
        try:
            payloads = [
                pickle.dumps(("region", fn, spec, plans[rank], tracer.enabled))
                for rank in range(self.num_workers)
            ]
        except Exception as exc:
            raise TypeError(
                f"process backend requires a picklable region kernel and "
                f"arguments (module-level function, no closures): {exc}"
            ) from exc

        region_start = _clock()
        for conn, payload in zip(self._conns, payloads):
            conn.send_bytes(payload)

        errors: list[WorkerError] = []
        worker_seconds: list[float] = []
        replays: list[tuple[int, list, dict]] = []
        try:
            for rank, conn in enumerate(self._conns):
                msg = self._recv(rank, conn)
                kind, elapsed = msg[0], msg[1]
                if kind == "done":
                    _, _, spans, counters = msg
                    worker_seconds.append(elapsed)
                    replays.append((rank, spans, counters))
                else:
                    _, _, exc_bytes, exc_repr, tb_text = msg
                    original = _revive_exception(exc_bytes, exc_repr, tb_text)
                    errors.append(WorkerError(rank, original))
        except WorkerError:
            # A worker *process* died (not a Python exception in a kernel):
            # the team is desynchronized beyond repair — tear it down so
            # later regions fail fast instead of reading stale replies.
            self.shutdown()
            raise
        region_end = _clock()

        if tracer.enabled:
            for rank, spans, counters in replays:
                for sname, s0, s1, sargs, scounters in spans:
                    sargs = dict(sargs)
                    sargs.setdefault("worker", rank)
                    sp = tracer.record(sname, s0, s1, **sargs)
                    for key, value in scounters.items():
                        sp.add(key, value)
                for key, value in counters.items():
                    tracer.add_counter(key, value)
            tracer.record_region(name, region_start, region_end, worker_seconds)

        if errors:
            errors.sort(key=lambda e: e.worker)
            err = errors[0]
            err.others = tuple(errors[1:])
            raise err from err.original

    def _recv(self, rank: int, conn):
        proc = self._procs[rank]
        while not conn.poll(0.05):
            if not proc.is_alive():
                # One last drain: the worker may have replied just before
                # exiting (e.g. killed between send and the next recv).
                if conn.poll(0):
                    break
                raise WorkerError(
                    rank,
                    RuntimeError(
                        f"process worker {rank} died unexpectedly "
                        f"(exitcode={proc.exitcode})"
                    ),
                )
        try:
            return pickle.loads(conn.recv_bytes())
        except (EOFError, ConnectionError) as exc:
            raise WorkerError(
                rank,
                RuntimeError(
                    f"process worker {rank} closed its channel mid-region "
                    f"({exc!r}, exitcode={proc.exitcode})"
                ),
            ) from None

    # -- shared allocations and reduction ------------------------------- #

    def allocate_shared(self, shape, dtype=np.float64) -> np.ndarray:
        if self.num_workers == 1:
            return np.zeros(tuple(shape), dtype=dtype)
        view, _ = self._arena.allocate(tuple(shape), dtype)
        return view

    def owns_shared(self, array: np.ndarray) -> bool:
        return self.num_workers == 1 or self._arena.owns(array)

    def reduce(self, buffers: np.ndarray, label: str | None = None) -> np.ndarray:
        buffers = np.asarray(buffers)
        if buffers.ndim < 1 or buffers.shape[0] == 0:
            raise ValueError("buffers must have a leading axis of size >= 1")
        T = buffers.shape[0]
        if T == 1:
            return buffers[0]
        if self.num_workers == 1:
            np.sum(buffers, axis=0, out=buffers[0])
            return buffers[0]
        if not self._arena.owns(buffers):
            # Copy once into the arena so the tree levels run shared.
            shared = self.allocate_shared(buffers.shape, buffers.dtype)
            np.copyto(shared, buffers)
            buffers = shared
        stride = 1
        while stride < T:
            pairs = np.array(
                [(t, t + stride) for t in range(0, T - stride, 2 * stride)],
                dtype=np.int64,
            )
            self.parallel_for(
                _k_reduce_level,
                len(pairs),
                args=(buffers, pairs),
                label=label or "reduce.tree",
            )
            stride *= 2
        return buffers[0]

    # -- lifetime -------------------------------------------------------- #

    def shutdown(self) -> None:
        if self._shut or os.getpid() != self._pid:
            # Never tear down a parent's team (or unlink its segments)
            # from a forked child.
            return
        self._shut = True
        _evict_cached_executor(self)
        for conn in self._conns:
            try:
                conn.send_bytes(pickle.dumps(("stop",)))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._conns.clear()
        self._procs.clear()
        if self._arena is not None:
            self._arena.close()


def _revive_exception(exc_bytes, exc_repr: str, tb_text: str) -> BaseException:
    original: BaseException | None = None
    if exc_bytes is not None:
        try:
            original = pickle.loads(exc_bytes)
        except Exception:
            original = None
    if original is None:
        original = RuntimeError(f"{exc_repr}\n{tb_text}")
    else:
        original.worker_traceback = tb_text
    return original


# --------------------------------------------------------------------- #
# Worker process main loop
# --------------------------------------------------------------------- #


def reset_worker_runtime_state(
    *,
    num_threads: int | None = 1,
    blas_threads: int | None = 1,
    leaf_worker: bool = True,
) -> None:
    """Give a (possibly forked) worker process a clean parallel/obs runtime.

    Under ``fork`` the child inherits the parent's pool caches (whose
    threads do not exist here), executor caches (whose pipes belong to
    the parent), and active tracer.  All are reset.  Two kinds of worker
    call this:

    * **executor workers** (:func:`_worker_main`, the leaves of a
      :class:`ProcessExecutor` team) — the defaults: one thread, one
      BLAS thread, and ``leaf_worker=True`` so nested process teams are
      forbidden;
    * **service workers** (:mod:`repro.serve.worker`) — intermediate
      processes that *run whole decompositions* and may legitimately
      spawn their own executor teams: they pass ``leaf_worker=False``
      and leave the thread counts to the job's resource budget
      (``num_threads=None`` keeps the inherited package default, so a
      job's result matches a direct in-parent call bit-for-bit).
    """
    global _IN_WORKER
    _IN_WORKER = bool(leaf_worker)
    from repro.obs import tracer as tracer_mod
    from repro.parallel import pool as pool_mod
    from repro.parallel.config import set_num_threads

    with _executor_cache_lock:
        _executor_cache.clear()
    pool_mod._pool_cache.clear()
    tracer_mod.disable()
    if num_threads is not None:
        set_num_threads(num_threads)
    if blas_threads is not None:
        try:
            # One BLAS thread per leaf worker: the team supplies the
            # parallelism; T workers x T BLAS threads would oversubscribe.
            from repro.parallel.blas import set_blas_threads

            set_blas_threads(blas_threads)
        except Exception:  # pragma: no cover - best-effort
            pass


def _resolve(spec, cache):
    from repro.tensor.dense import DenseTensor

    kind = spec[0]
    if kind == _ARR:
        return attach(spec[1], cache)
    if kind == _TENSOR:
        return DenseTensor(attach(spec[1], cache), spec[2])
    if kind == _SEQ:
        seq = [_resolve(x, cache) for x in spec[2]]
        return tuple(seq) if spec[1] else seq
    return spec[1]


def _dump_spans(tracer) -> tuple[list, dict]:
    spans = [
        (sp.name, sp.start, sp.end, sp.args, sp.counters)
        for sp in tracer.spans()
    ]
    return spans, dict(tracer.counters)


def _worker_main(rank: int, conn, cursor) -> None:
    reset_worker_runtime_state()
    from repro.obs.tracer import Tracer, disable as tracer_disable, enable as tracer_enable

    attachments: dict = {}
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            msg = pickle.loads(payload)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            # An undecodable region message (e.g. a kernel defined in an
            # unimportable __main__) must not kill the worker: report it
            # and stay in the loop.
            reply = (
                "error", 0.0, None, repr(exc),
                f"worker {rank} could not unpickle the region message "
                f"(is the kernel a module-level function?):\n"
                f"{traceback.format_exc()}",
            )
            conn.send_bytes(pickle.dumps(reply))
            continue
        if msg[0] == "stop":
            break
        _, fn, spec, plan, trace = msg
        t0 = _clock()
        local_tracer = None
        try:
            args = [_resolve(s, attachments) for s in spec]
            if trace:
                local_tracer = tracer_enable(Tracer())
            if plan[0] == "static":
                start, stop = plan[1]
                if start < stop:
                    fn(rank, start, stop, *args)
            else:
                num_items, chunk = plan[1], plan[2]
                while True:
                    with cursor.get_lock():
                        start = cursor.value
                        if start >= num_items:
                            break
                        cursor.value = stop = min(start + chunk, num_items)
                    fn(rank, start, stop, *args)
            elapsed = _clock() - t0
            spans, counters = (
                _dump_spans(local_tracer) if local_tracer is not None else ([], {})
            )
            reply = ("done", elapsed, spans, counters)
        except BaseException as exc:  # noqa: BLE001 - reraised in parent
            elapsed = _clock() - t0
            tb_text = traceback.format_exc()
            try:
                exc_bytes = pickle.dumps(exc)
            except Exception:
                exc_bytes = None
            reply = ("error", elapsed, exc_bytes, repr(exc), tb_text)
        finally:
            if local_tracer is not None:
                tracer_disable()
        try:
            conn.send_bytes(pickle.dumps(reply))
        except Exception:  # pragma: no cover - parent went away
            break


# --------------------------------------------------------------------- #
# Shared executor cache
# --------------------------------------------------------------------- #

_executor_cache: dict[tuple[str, int], Executor] = {}
_executor_cache_lock = threading.Lock()


def _evict_cached_executor(executor: Executor) -> None:
    with _executor_cache_lock:
        key = (executor.backend, executor.num_workers)
        if _executor_cache.get(key) is executor:
            del _executor_cache[key]


def get_executor(
    num_workers: int | None = None, backend: str | None = None
) -> Executor:
    """Return the shared executor for ``(backend, num_workers)``.

    ``backend`` defaults to the package-wide setting
    (:func:`repro.parallel.config.get_backend` — ``REPRO_BACKEND``);
    ``num_workers`` to the package-wide thread count.  Like
    :func:`~repro.parallel.pool.get_pool`, the returned executor is owned
    by the cache: a ``with`` block does not shut it down; call
    :meth:`Executor.shutdown` or :func:`shutdown_all_executors` to retire
    it (which also evicts it deterministically).
    """
    name = resolve_backend(backend)
    T = resolve_threads(num_workers)
    key = (name, T)
    with _executor_cache_lock:
        cached = _executor_cache.get(key)
        if cached is not None and not getattr(cached, "_shut", False):
            return cached
    # Construct outside the lock: process-team startup can take a while.
    executor: Executor = (
        ThreadExecutor(T) if name == "thread" else ProcessExecutor(T)
    )
    executor._shared = True
    with _executor_cache_lock:
        cached = _executor_cache.get(key)
        if cached is not None and not getattr(cached, "_shut", False):
            racing = executor
        else:
            _executor_cache[key] = executor
            racing = None
    if racing is not None:
        racing._shared = False
        racing.shutdown()
        with _executor_cache_lock:
            return _executor_cache[key]
    return executor


def shutdown_all_executors() -> None:
    """Shut down and drop every cached executor (used by tests and atexit)."""
    with _executor_cache_lock:
        executors = list(_executor_cache.values())
        _executor_cache.clear()
    for executor in executors:
        executor.shutdown()


atexit.register(shutdown_all_executors)
