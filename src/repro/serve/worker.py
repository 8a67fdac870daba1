"""Service worker processes: run decompositions, stream progress, survive.

One :class:`WorkerHandle` per pool slot.  The child process
(:func:`serve_worker_main`) is deliberately simple — a message loop that
runs **one job at a time** on a private thread.  While the job runs, the
loop blocks on two things at once: the pipe, so cancellation messages
land mid-run and are delivered to the job through its
:class:`~repro.util.cancel.CancelToken` (checked by the drivers at
iteration boundaries), and a self-pipe the job thread writes one byte to
when it finishes, so the reply leaves the moment the result exists.

Transport: payloads are pickled through the pipe, except that a solo
tensor of at least :data:`MEMFD_MIN_BYTES` is copied once into an
anonymous ``memfd`` whose descriptor follows the job message over the
same socket (``SCM_RIGHTS``).  The worker maps it read-only and runs on
the mapping without a copy.  The buffer has no name, so it is freed
when the last descriptor and mapping go, however the worker exits.

Robustness contract (the fault-injection suite pins this):

* a worker process dying mid-job — SIGKILL, OOM, segfault — is detected
  by the parent tender through the pipe + liveness probe
  (:meth:`WorkerHandle.recv`), fails **only the job(s) it was running**
  with a :class:`~repro.parallel.pool.WorkerError` whose ``__cause__``
  records the death, and the handle respawns a fresh process
  (:meth:`WorkerHandle.respawn`) so the pool keeps serving;
* a Python exception *inside* a job (singular solve, bad ref file) is
  caught in the worker, shipped back pickled, and fails only that job —
  the process survives and takes the next one.

Workers are **not** daemonic: the server owns their teardown (shutdown
protocol + terminate/kill escalation + atexit sweep), so interpreter exit
never terminates a worker behind the server's back.
"""

from __future__ import annotations

import mmap
import os
import pickle
import threading
import time
import traceback
from contextlib import nullcontext
from multiprocessing.connection import wait
from multiprocessing.reduction import recv_handle, send_handle

import numpy as np

from repro.parallel.pool import WorkerError

__all__ = [
    "MEMFD_MIN_BYTES",
    "WorkerHandle",
    "WorkerDied",
    "reset_worker_runtime_state",
    "serve_worker_main",
]

_clock = time.monotonic

#: Solo tensors of at least this many bytes reach the worker through a
#: memfd instead of the pickle stream.  Below it, creating and mapping
#: the buffer costs more than pickling the bytes.
MEMFD_MIN_BYTES = 1 << 20

#: ``os.memfd_create`` is Linux-only; elsewhere every tensor is pickled.
_HAVE_MEMFD = hasattr(os, "memfd_create")


class WorkerDied(RuntimeError):
    """Parent-side signal: the worker process is gone (raised by recv)."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"serve worker {rank} died: {detail}")
        self.rank = rank
        self.detail = detail

    def as_worker_error(self) -> WorkerError:
        """The job-facing error: ``WorkerError`` chained to the death."""
        cause = RuntimeError(str(self))
        err = WorkerError(self.rank, cause)
        err.__cause__ = cause  # chained like a raised `raise ... from`
        return err


# --------------------------------------------------------------------- #
# Child process
# --------------------------------------------------------------------- #


def _execute_payload(payload: dict, token) -> object:
    """Run one job payload; returns the reply message tuple."""
    import repro.obs as obs
    from repro.util.cancel import Cancelled

    job_id = payload["job_id"]
    trace = bool(payload.get("trace"))
    capture_ctx = obs.capture() if trace else nullcontext()
    try:
        with capture_ctx as tracer:
            if payload["kind"] == "solo":
                results = [_run_solo(payload, token)]
            else:
                results = _run_group(payload, token)
        if trace and tracer is not None:
            results[0]["trace"] = obs.chrome_trace(tracer)
            results[0]["counters"] = obs.counters_snapshot(tracer)
    except Cancelled as exc:
        return ("cancelled", job_id, exc.reason)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        tb_text = traceback.format_exc()
        try:
            exc_bytes = pickle.dumps(exc)
        except Exception:
            exc_bytes = None
        return ("failed", job_id, exc_bytes, repr(exc), tb_text)
    if payload["kind"] == "solo":
        return ("done", job_id, results[0])
    return ("done-group", job_id, results)


def _load_tensor(payload: dict):
    from repro.tensor.dense import DenseTensor

    if payload.get("ref") is not None:
        from repro.io import load_tensor

        return load_tensor(payload["ref"])
    if payload.get("fd") is not None:
        dtype = np.dtype(payload["memfd"])
        nbytes = dtype.itemsize * int(np.prod(payload["shape"]))
        # mmap keeps its own duplicate of the descriptor; the mapping
        # (and with it the buffer) goes when the tensor does.
        buf = mmap.mmap(payload["fd"], nbytes, access=mmap.ACCESS_READ)
        return DenseTensor(np.frombuffer(buf, dtype=dtype), payload["shape"])
    return DenseTensor(payload["data"], payload["shape"])


def _run_solo(payload: dict, token) -> dict:
    from repro.cpd.cp_als import cp_als

    tensor = _load_tensor(payload)
    res = cp_als(
        tensor,
        payload["rank"],
        n_iter_max=payload["n_iter_max"],
        tol=payload["tol"],
        method=payload["method"],
        num_threads=payload["num_threads"],
        rng=payload["seed"],
        cancel=token,
    )
    model = res.model
    return {
        "weights": np.asarray(model.weights),
        "factors": [np.asarray(f) for f in model.factors],
        "fit": float(res.final_fit),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "counters": {},
        "trace": None,
    }


def _run_group(payload: dict, token) -> list[dict]:
    from repro.batch.fleet import cp_als_fleet
    from repro.tensor.dense import DenseTensor

    shape = payload["shape"]
    tensors = [DenseTensor(d, shape) for d in payload["datas"]]
    res = cp_als_fleet(
        tensors,
        payload["rank"],
        seeds=payload["seeds"],
        n_iter_max=payload["n_iter_max"],
        tol=payload["tol"],
        num_threads=payload["num_threads"],
        cancel=token,
    )
    results = []
    for b in range(len(tensors)):
        model = res.model(b)
        results.append({
            "weights": np.asarray(model.weights),
            "factors": [np.asarray(f) for f in model.factors],
            "fit": float(res.fits[b]),
            "iterations": int(res.iterations[b]),
            "converged": bool(res.converged[b]),
            "counters": {},
            "trace": None,
        })
    return results


def reset_worker_runtime_state() -> None:
    """Give a (possibly forked) worker process a clean parallel/obs runtime.

    Under ``fork`` the child inherits the parent's pool cache, whose
    threads do not exist here, and its active tracer; both are reset.
    Thread counts keep the inherited package defaults, so a job's result
    matches a direct in-parent call bit-for-bit.
    """
    from repro.obs import tracer as tracer_mod
    from repro.parallel import pool as pool_mod

    pool_mod._pool_cache.clear()
    tracer_mod.disable()


def serve_worker_main(rank: int, conn) -> None:
    """Child-process entry: message loop around a one-job-at-a-time thread."""
    reset_worker_runtime_state()
    send_lock = threading.Lock()

    def send(msg) -> None:
        payload = pickle.dumps(msg)
        with send_lock:
            conn.send_bytes(payload)

    wake_r, wake_w = os.pipe()
    stop = False
    try:
        while not stop:
            try:
                msg = pickle.loads(conn.recv_bytes())
                if msg[0] == "job" and msg[1].get("memfd") is not None:
                    # The descriptor is the next byte on the socket.
                    msg[1]["fd"] = recv_handle(conn)
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            if msg[0] != "job":  # stale cancel for a finished job
                continue
            stop = _run_job(msg[1], conn, send, wake_r, wake_w)
    finally:
        os.close(wake_r)
        os.close(wake_w)


def _run_job(payload: dict, conn, send, wake_r: int, wake_w: int) -> bool:
    """Run one job on a thread; True if the loop must stop afterwards.

    The thread writes one byte to ``wake_w`` when it finishes; until
    then the pipe stays live for cancel and stop messages.
    """
    from repro.util.cancel import CancelToken

    job_id = payload["job_id"]
    remaining = payload.get("timeout_remaining")
    token = CancelToken(
        deadline=None if remaining is None else _clock() + remaining
    )
    every = int(payload.get("progress_every") or 0)
    if every > 0:
        def on_progress(it, fit):
            if it % every == 0:
                send(("progress", job_id, int(it), float(fit)))

        token.on_progress = on_progress

    reply_box: list = []

    def run() -> None:
        try:
            reply_box.append(_execute_payload(payload, token))
        finally:
            os.write(wake_w, b"\0")

    stop = False
    try:
        thread = threading.Thread(
            target=run, name=f"repro-serve-job-{job_id}", daemon=True
        )
        thread.start()
        # Block until the job finishes; cancel and stop land mid-run.
        watch = [conn, wake_r]
        while wake_r not in wait(watch):
            try:
                ctl = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):
                ctl = ("stop",)
                watch = [wake_r]  # the parent is gone; EOF stays readable
            if ctl[0] == "stop":
                token.cancel("server shutdown")
                stop = True
            elif ctl[0] == "cancel" and ctl[1] == job_id:
                token.cancel(ctl[2] if len(ctl) > 2 else "cancelled")
        os.read(wake_r, 1)
        thread.join()
    finally:
        if payload.get("fd") is not None:
            os.close(payload["fd"])
    if reply_box:
        try:
            send(reply_box[0])
        except (OSError, ValueError):  # parent went away
            return True
    return stop


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


def _tensor_memfd(data: np.ndarray) -> int:
    """A new anonymous memfd holding one copy of ``data``'s bytes.

    The caller owns (and closes) the returned descriptor.
    """
    fd = os.memfd_create("repro-serve-tensor", os.MFD_CLOEXEC)
    try:
        view = memoryview(np.ascontiguousarray(data)).cast("B")
        while view:
            view = view[os.write(fd, view):]
    except BaseException:
        os.close(fd)
        raise
    return fd


class WorkerHandle:
    """Parent-side handle: spawn / message / detect death / respawn."""

    def __init__(self, rank: int, ctx) -> None:
        self.rank = rank
        self._ctx = ctx
        self._proc = None
        self._conn = None
        self.respawns = 0
        # Dispatch (tender thread) and cancellation (client thread) both
        # send; a Connection tolerates one concurrent sender only.
        self._send_lock = threading.Lock()
        self.spawn()

    # -- lifecycle ------------------------------------------------------ #

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=serve_worker_main,
            args=(self.rank, child_conn),
            name=f"repro-serve-worker-{self.rank}",
            daemon=False,  # the server owns teardown (module docstring)
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn

    def respawn(self) -> None:
        """Replace a dead (or wedged) process with a fresh one."""
        self._teardown(graceful=False)
        self.respawns += 1
        self.spawn()

    def stop(self, timeout: float = 2.0) -> None:
        self._teardown(graceful=True, timeout=timeout)

    def _teardown(self, graceful: bool, timeout: float = 2.0) -> None:
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if conn is not None and graceful and proc is not None and proc.is_alive():
            try:
                conn.send_bytes(pickle.dumps(("stop",)))
            except (OSError, ValueError):
                pass
        if proc is not None:
            proc.join(timeout if graceful else 0.1)
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():  # pragma: no cover - stuck in C code
                proc.kill()
                proc.join(1.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- messaging ------------------------------------------------------ #

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def send_job(self, payload: dict) -> None:
        """Ship a job payload; a ``data`` tensor of at least
        :data:`MEMFD_MIN_BYTES` goes by memfd (module docstring).

        Raises :class:`WorkerDied` on a broken pipe, and ``OSError`` if
        no memfd can be made for the tensor.
        """
        data = payload.get("data")
        if data is None or data.nbytes < MEMFD_MIN_BYTES or not _HAVE_MEMFD:
            self.send(("job", payload))
            return
        fd = _tensor_memfd(data)
        try:
            self.send(
                ("job", {**payload, "data": None, "memfd": data.dtype.str}), fd
            )
        finally:
            # Once sent, the worker holds its own reference to the buffer.
            os.close(fd)

    def send(self, msg, fd: int | None = None) -> None:
        """Ship a message, then ``fd`` if given; :class:`WorkerDied` on a
        broken pipe.

        The descriptor goes under the same lock as the message, so no
        other message can land between the two.
        """
        conn, proc = self._conn, self._proc
        if conn is None or proc is None:
            raise WorkerDied(self.rank, "no process")
        try:
            with self._send_lock:
                conn.send_bytes(pickle.dumps(msg))
                if fd is not None:
                    send_handle(conn, fd, proc.pid)
        except (OSError, ValueError) as exc:
            raise WorkerDied(self.rank, f"pipe send failed ({exc!r})") from None

    def recv(self, timeout: float = 0.05):
        """One message, or ``None`` on timeout; :class:`WorkerDied` on death.

        After the process exits, a final drain attempt still returns a
        reply that raced the death.
        """
        conn, proc = self._conn, self._proc
        if conn is None or proc is None:
            raise WorkerDied(self.rank, "no process")
        if not conn.poll(timeout):
            if proc.is_alive():
                return None
            if not conn.poll(0):
                raise WorkerDied(
                    self.rank, f"exitcode={proc.exitcode}"
                )
        try:
            return pickle.loads(conn.recv_bytes())
        except (EOFError, OSError, ConnectionError) as exc:
            raise WorkerDied(
                self.rank,
                f"channel closed mid-job ({exc!r}, exitcode={proc.exitcode})",
            ) from None

    def kill(self) -> None:
        """Hard-kill the process (fault-injection hook; SIGKILL)."""
        if self._proc is not None and self._proc.pid is not None:
            try:
                os.kill(self._proc.pid, 9)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
