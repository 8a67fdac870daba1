"""End-to-end trace smoke test: CP-ALS with tracing on (the CI gate).

A small traced CP-ALS run must produce (a) exactly one ``mode[n]`` span per
iteration x mode, (b) per-region load imbalance within ``[1, num_threads]``,
(c) MTTKRP spans carrying FLOP counters (per-mode MTTKRP spans, or the
dimension tree's partial GEMM and node spans), (d) a Chrome trace that
survives a ``json.load`` round trip, and (e) a phase breakdown
(:func:`repro.obs.phase_totals`) with the paper's phase names.
"""

import json

import pytest

import repro.obs as obs
from repro import cp_als, random_factors, random_tensor

SHAPE = (8, 7, 6)
RANK = 4
ITERS = 3
THREADS = 2


def _traced_cp_als(**kwargs):
    tracer = obs.enable()
    X = random_tensor(SHAPE, rng=0)
    init = random_factors(SHAPE, RANK, rng=1)
    result = cp_als(
        X, RANK, n_iter_max=ITERS, tol=0.0, init=init, num_threads=THREADS,
        **kwargs,
    )
    obs.disable()
    return tracer, result


@pytest.fixture
def traced_run():
    return _traced_cp_als()


@pytest.fixture
def traced_per_mode_run():
    return _traced_cp_als(mode_strategy="per-mode")


def test_one_span_per_iteration_and_mode(traced_run):
    tracer, result = traced_run
    spans = tracer.spans()
    assert result.iterations == ITERS
    iter_spans = [s for s in spans if s.name.startswith("iter[")]
    assert len(iter_spans) == ITERS
    mode_spans = [s for s in spans if s.name.startswith("mode[")]
    assert len(mode_spans) == ITERS * len(SHAPE)
    # Each mode span sits under its iteration under the cp_als root.
    for it in range(ITERS):
        for n in range(len(SHAPE)):
            matching = [
                s for s in mode_spans
                if s.path == f"cp_als/iter[{it}]/mode[{n}]"
            ]
            assert len(matching) == 1, (it, n)


def test_imbalance_within_bounds(traced_run):
    tracer, _ = traced_run
    regions = [s for s in tracer.spans() if "imbalance" in s.counters]
    assert regions, "traced parallel run must record regions"
    for region in regions:
        workers = region.counters["workers"]
        assert 1 <= workers <= THREADS
        assert 1.0 - 1e-9 <= region.counters["imbalance"] <= workers + 1e-9
        assert region.counters["max_worker_s"] >= region.counters[
            "mean_worker_s"
        ] >= 0.0


def test_mttkrp_spans_carry_flop_counters(traced_per_mode_run):
    tracer, _ = traced_per_mode_run
    mttkrp_spans = [
        s for s in tracer.spans()
        if s.name.startswith("mttkrp.") and "flops" in s.counters
    ]
    assert len(mttkrp_spans) == ITERS * len(SHAPE)
    for s in mttkrp_spans:
        assert s.counters["flops"] > 0
        assert s.counters["bytes_read"] > 0
        assert s.counters["bytes_written"] > 0


def test_phase_totals_of_traced_run(traced_run):
    tracer, _ = traced_run
    phases = obs.phase_totals(tracer)
    assert {"gram", "solve", "gemm"} <= set(phases)
    assert all(seconds >= 0.0 for seconds in phases.values())


def test_chrome_export_roundtrip(traced_run, tmp_path):
    tracer, _ = traced_run
    path = str(tmp_path / "cp_als_trace.json")
    obs.save_chrome_trace(tracer, path)
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    mode_events = [e for e in events if e["name"].startswith("mode[")]
    assert len(mode_events) == ITERS * len(SHAPE)
    assert all(e["dur"] >= 0 for e in events)


def test_summary_renders(traced_run):
    tracer, _ = traced_run
    text = obs.summary(tracer)
    assert "phase breakdown" in text
    assert "parallel regions" in text


def test_dimtree_strategy_also_traced():
    tracer = obs.enable()
    try:
        X = random_tensor((6, 5, 4, 3), rng=2)
        init = random_factors(X.shape, 3, rng=3)
        cp_als(
            X, 3, n_iter_max=2, tol=0.0, init=init,
            mode_strategy="dimtree", num_threads=1,
        )
    finally:
        obs.disable()
    spans = tracer.spans()
    mode_spans = [s for s in spans if s.name.startswith("mode[")]
    assert len(mode_spans) == 2 * 4
    assert any(s.name == "partial[left]" for s in spans)
    assert any(s.name == "partial[right]" for s in spans)


@pytest.fixture
def traced_dimtree_run():
    tracer = obs.enable()
    try:
        X = random_tensor((6, 5, 4, 3), rng=2)
        init = random_factors(X.shape, 3, rng=3)
        result = cp_als(
            X, 3, n_iter_max=ITERS, tol=0.0, init=init,
            mode_strategy="dimtree", num_threads=THREADS,
        )
    finally:
        obs.disable()
    return tracer, result


def test_dimtree_partials_carry_gemm_counters(traced_dimtree_run):
    tracer, _ = traced_dimtree_run
    partials = [
        s for s in tracer.spans()
        if s.name in ("partial[left]", "partial[right]")
    ]
    assert len(partials) == 2 * ITERS
    # Each half is one big GEMM plus a parallel KRP on the pool.
    gemm_spans = [s for s in tracer.spans() if s.name == "gemm"]
    dimtree_gemms = [
        s for s in gemm_spans if "partial[" in s.path
    ]
    assert len(dimtree_gemms) == 2 * ITERS
    for s in dimtree_gemms:
        assert s.counters.get("gemm_calls") == 1
    krp_spans = [
        s for s in tracer.spans()
        if s.name == "krp.parallel" and "partial[" in s.path
    ]
    assert len(krp_spans) == 2 * ITERS


def test_dimtree_spans_carry_flop_counters(traced_dimtree_run):
    tracer, _ = traced_dimtree_run
    spans = tracer.spans()
    partial_gemms = [
        s for s in spans if s.name == "gemm" and "/partial[" in s.path
    ]
    sides = sorted(s.args["side"] for s in partial_gemms)
    assert sides == ["left"] * ITERS + ["right"] * ITERS
    for s in partial_gemms:
        assert s.counters["flops"] > 0
        assert s.counters["bytes_read"] > 0
        assert s.counters["bytes_written"] > 0
    # The Ballard-Rouse-Knight bound: once per mode update, on its span.
    bounded = [s for s in spans if "bytes_lower_bound" in s.counters]
    assert len(bounded) == ITERS * 4
    assert all(s.name.startswith("mode[") for s in bounded)
    assert all(s.counters["bytes_lower_bound"] > 0 for s in bounded)


def test_dimtree_node_spans_and_imbalance(traced_dimtree_run):
    tracer, _ = traced_dimtree_run
    node_spans = [s for s in tracer.spans() if s.name == "node_mttkrp"]
    # One per mode per iteration, nested under its mode span.
    assert len(node_spans) == ITERS * 4
    for s in node_spans:
        assert "/mode[" in s.path
        assert s.counters.get("flops", 0) > 0
        assert s.counters.get("gemm_calls", 0) >= 1
    # The pool-parallel node contraction records region imbalance.
    regions = [
        s for s in tracer.spans()
        if s.name == "dimtree.node" and "imbalance" in s.counters
    ]
    assert regions
    for region in regions:
        assert 1 <= region.counters["workers"] <= THREADS
    # The phase breakdown of the same run has the dimtree phases.
    assert {"lr_krp", "gemm", "node_krp", "node_gemm"} <= set(
        obs.phase_totals(tracer)
    )
