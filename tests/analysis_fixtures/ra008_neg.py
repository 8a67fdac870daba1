"""RA008 negative: workspace lifetimes respected."""

from repro.parallel.workspace import Workspace


def use_before_close(ws, fill):
    buf = ws.buffer("krp.left", (64,), "float64")
    fill(buf)
    total = buf.sum()
    ws.close()
    return total


def inside_with_scope(fill):
    with Workspace() as ws:
        scratch = ws.private("partials", 4, (8,), "float64")
        fill(scratch)
        total = scratch.sum()
    return total


def rebound_after_with_scope(fill, fresh):
    with Workspace() as ws:
        scratch = ws.private("partials", 4, (8,), "float64")
        fill(scratch)
    scratch = fresh()
    return scratch.sum()
