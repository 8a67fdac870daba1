"""The JSON-lines socket protocol of :mod:`repro.serve.api`.

Each test runs :func:`repro.serve.api.serve_unix` on a private unix
socket in a background thread and talks to it the way the
``repro-serve`` CLI does: one JSON object per line, one reply per line.
Replies carry ``"ok"``; failures carry the exception type name in
``"error"`` and its message in ``"message"``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.cpd.cp_als import cp_als
from repro.serve import JobServer, ServeConfig
from repro.serve.api import request, serve_unix
from repro.tensor.dense import DenseTensor

pytestmark = pytest.mark.serve


@pytest.fixture
def served(tmp_path):
    """``(socket path, serving thread)`` of a one-worker server."""
    path = str(tmp_path / "serve.sock")
    server = JobServer(ServeConfig(workers=1, batching=False))
    started = threading.Event()

    async def serve() -> None:
        ready = asyncio.Event()
        task = asyncio.create_task(serve_unix(server, path, ready))
        await ready.wait()
        started.set()
        await task

    thread = threading.Thread(target=asyncio.run, args=(serve(),),
                              daemon=True)
    thread.start()
    try:
        assert started.wait(timeout=60.0), "server never came up"
        yield path, thread
    finally:
        if thread.is_alive():
            request(path, {"op": "shutdown", "drain": False})
            thread.join(timeout=60.0)
        server.shutdown(drain=False, timeout=5.0)


def _raw_line(path: str, line: bytes) -> dict:
    """Send one raw line (not necessarily JSON) and parse the reply."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60.0)
        sock.connect(path)
        sock.sendall(line)
        return json.loads(sock.makefile("rb").readline())


def test_ping(served):
    path, _ = served
    assert request(path, {"op": "ping"}) == {"ok": True, "pong": True}


def test_inline_seeded_submit_matches_direct_cp_als(served):
    path, _ = served
    X = np.random.default_rng(11).standard_normal((5, 4, 3))
    reply = request(path, {"op": "submit", "spec": {
        "rank": 3, "tensor": X.tolist(), "seed": 7, "n_iter_max": 5,
        "num_threads": 1,
    }})
    assert reply["ok"], reply
    reply = request(path, {"op": "result", "job_id": reply["job_id"],
                           "timeout": 60.0})
    assert reply["ok"], reply
    result = reply["result"]
    direct = cp_als(DenseTensor(X), 3, n_iter_max=5, num_threads=1,
                    rng=7).model
    # JSON floats round-trip exactly, so the comparison is bitwise.
    assert (np.asarray(result["weights"]) == direct.weights).all()
    assert len(result["factors"]) == len(direct.factors)
    for served_factor, factor in zip(result["factors"], direct.factors):
        assert (np.asarray(served_factor) == factor).all()


def test_nan_tensor_is_rejected_at_admission(served):
    path, _ = served
    X = np.ones((3, 3, 3))
    X[1, 2, 0] = np.nan
    reply = request(path, {"op": "submit",
                           "spec": {"rank": 2, "tensor": X.tolist()}})
    assert not reply["ok"]
    assert reply["error"] == "AdmissionError"


def test_unknown_op(served):
    path, _ = served
    reply = request(path, {"op": "frobnicate"})
    assert reply == {"ok": False, "error": "ValueError",
                     "message": "unknown op 'frobnicate'"}


def test_non_json_line(served):
    path, _ = served
    reply = _raw_line(path, b"this is not json\n")
    assert not reply["ok"]
    assert reply["error"] == "JSONDecodeError"


def test_unknown_job_id(served):
    path, _ = served
    reply = request(path, {"op": "status", "job_id": "nope"})
    assert reply == {"ok": False, "error": "JobNotFoundError",
                     "message": "unknown job id 'nope'"}


def test_shutdown_joins_serving_thread(served):
    path, thread = served
    assert request(path, {"op": "shutdown"}) == {"ok": True,
                                                  "shutdown": True}
    thread.join(timeout=60.0)
    assert not thread.is_alive()
