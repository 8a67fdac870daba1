"""Async facade and wire protocol for :class:`~repro.serve.server.JobServer`.

Two layers, both thin by design — all policy lives in the sync core:

* :class:`AsyncJobServer` — an asyncio-native wrapper for in-process
  use: ``await`` on submission, status, results.  Blocking waits run on
  the event loop's default executor, so thousands of pending
  ``result()`` awaits cost threads only while jobs actually finish.
* :func:`serve_unix` / :func:`request` — a newline-delimited-JSON
  protocol over a unix domain socket, one request object per line, one
  response object per line.  This is what the ``repro-serve`` CLI
  speaks.  Tensors cross the socket as nested lists (small payloads) or
  as ``repro.io`` file refs (the recommended path for anything big).

Wire ops: ``ping``, ``submit``, ``status``, ``result``, ``cancel``,
``stats``, ``shutdown``.  Every response carries ``"ok"``; failures
carry the exception type name in ``"error"`` so clients can re-raise
typed admission errors.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.serve.job import JobSpec
from repro.serve.server import JobServer, ServeConfig

__all__ = ["AsyncJobServer", "serve_unix", "request"]


class AsyncJobServer:
    """Asyncio-native view of a (possibly shared) :class:`JobServer`."""

    def __init__(self, server: JobServer | None = None,
                 config: ServeConfig | None = None, **overrides) -> None:
        self.server = server if server is not None else JobServer(
            config, **overrides
        )

    async def _run(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: fn(*args, **kwargs)
        )

    async def submit(self, spec: JobSpec | None = None, /, **kwargs):
        """Admission runs off-loop (it may copy/validate a whole tensor)."""
        return await self._run(self.server.submit, spec, **kwargs)

    async def result(self, job_id: str, timeout: float | None = None):
        return await self._run(self.server.result, job_id, timeout=timeout)

    async def wait(self, job_id: str, timeout: float | None = None) -> bool:
        return await self._run(self.server.wait, job_id, timeout=timeout)

    def status(self, job_id: str):
        return self.server.status(job_id)  # non-blocking snapshot

    def cancel(self, job_id: str, reason: str = "cancelled") -> bool:
        return self.server.cancel(job_id, reason=reason)

    def stats(self) -> dict:
        return self.server.stats()

    async def shutdown(self, drain: bool = True,
                       timeout: float | None = 30.0) -> None:
        await self._run(self.server.shutdown, drain=drain, timeout=timeout)

    async def __aenter__(self) -> "AsyncJobServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown(drain=exc == (None, None, None))


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #

_SPEC_FIELDS = (
    "rank", "tensor_ref", "n_iter_max", "tol", "method", "num_threads",
    "seed", "priority", "timeout", "arena_bytes", "batchable", "trace",
)


def _spec_from_wire(obj: dict) -> JobSpec:
    kwargs = {k: obj[k] for k in _SPEC_FIELDS if k in obj}
    if obj.get("tensor") is not None:
        dtype = obj.get("dtype", "float64")
        kwargs["tensor"] = np.asarray(obj["tensor"], dtype=dtype)
    return JobSpec(**kwargs)


def _result_to_wire(result) -> dict:
    return {
        "job_id": result.job_id,
        "weights": np.asarray(result.weights).tolist(),
        "factors": [np.asarray(f).tolist() for f in result.factors],
        "fit": result.fit,
        "iterations": result.iterations,
        "converged": result.converged,
        "batched": result.batched,
        "group_size": result.group_size,
        "wait_seconds": result.wait_seconds,
        "run_seconds": result.run_seconds,
        "counters": result.counters,
    }


async def _handle_request(facade: AsyncJobServer, obj: dict) -> dict:
    op = obj.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "submit":
        handle = await facade.submit(_spec_from_wire(obj.get("spec") or {}))
        return {"ok": True, "job_id": handle.job_id}
    if op == "status":
        return {"ok": True,
                "status": facade.status(obj["job_id"]).as_dict()}
    if op == "result":
        result = await facade.result(
            obj["job_id"], timeout=obj.get("timeout")
        )
        return {"ok": True, "result": _result_to_wire(result)}
    if op == "cancel":
        ok = facade.cancel(obj["job_id"],
                           reason=obj.get("reason", "cancelled"))
        return {"ok": True, "cancelled": ok}
    if op == "stats":
        return {"ok": True, "stats": facade.stats()}
    if op == "shutdown":
        return {"ok": True, "shutdown": True}  # handled by the caller
    return {"ok": False, "error": "ValueError",
            "message": f"unknown op {op!r}"}


async def serve_unix(server: JobServer, path: str,
                     ready: "asyncio.Event | None" = None) -> None:
    """Serve the JSON-lines protocol on a unix socket until ``shutdown``.

    One coroutine per connection; requests on one connection are handled
    sequentially (submit from many connections for concurrency).  The
    ``shutdown`` op drains the server and stops accepting.
    """
    facade = AsyncJobServer(server)
    done = asyncio.Event()
    shutdown_opts: dict = {}

    async def on_connect(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    reply = {"ok": False, "error": "JSONDecodeError",
                             "message": str(exc)}
                else:
                    try:
                        reply = await _handle_request(facade, obj)
                    except Exception as exc:  # typed errors cross as names
                        reply = {
                            "ok": False,
                            "error": type(exc).__name__,
                            "message": str(exc),
                        }
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
                if reply.get("shutdown"):
                    shutdown_opts["drain"] = bool(obj.get("drain", True))
                    done.set()
                    break
        finally:
            writer.close()

    sock_server = await asyncio.start_unix_server(on_connect, path=path)
    if ready is not None:
        ready.set()
    try:
        await done.wait()
    finally:
        sock_server.close()
        await sock_server.wait_closed()
        await facade.shutdown(drain=shutdown_opts.get("drain", True))


def request(path: str, obj: dict, timeout: float | None = 60.0) -> dict:
    """One synchronous round-trip against :func:`serve_unix` (CLI client)."""
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall(json.dumps(obj).encode() + b"\n")
        chunks = []
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
            if data.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        raise ConnectionError(f"no reply from {path}")
    return json.loads(raw)
