"""RA008 positive: workspace buffers used past their lifetime."""

from repro.parallel.workspace import Workspace


def use_after_close(ws):
    buf = ws.buffer("acc", (8,), "float64")
    ws.close()
    return buf[0]


def use_after_with_scope(fill):
    with Workspace() as ws:
        scratch = ws.private("partials", 4, (8,), "float64")
        fill(scratch)
    return scratch.mean()
