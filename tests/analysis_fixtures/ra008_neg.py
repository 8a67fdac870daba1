"""RA008 negative: workspace lifetimes respected (or not provable)."""

from repro.parallel.workspace import Workspace


def use_before_release(ws, fill):
    buf = ws.buffer("krp.left", (64,), "float64")
    fill(buf)
    total = buf.sum()
    ws.release("krp")
    return total


def reacquire_after_release(ws):
    buf = ws.buffer("krp.left", (64,), "float64")
    ws.release("krp")
    buf = ws.buffer("krp.left", (64,), "float64")
    return buf.sum()


def dynamic_prefix_stays_quiet(ws, prefix):
    # The released prefix is not a literal: no static proof, no finding.
    buf = ws.buffer("krp.left", (64,), "float64")
    ws.release(prefix)
    return buf.sum()


def unrelated_prefix(ws):
    buf = ws.buffer("gram", (8, 8), "float64")
    ws.release("krp")
    return buf.sum()


def inside_with_scope(fill):
    with Workspace() as ws:
        scratch = ws.private("partials", 4, (8,), "float64")
        fill(scratch)
        total = scratch.sum()
    return total
