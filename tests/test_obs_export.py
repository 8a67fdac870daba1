"""Exporters: Chrome trace JSON schema, summaries, phase breakdowns, and
the report CLI."""

import json
import os
import subprocess
import sys
import time

import pytest

import repro.obs as obs
from repro import random_factors, random_tensor
from repro.core.dispatch import KERNELS, mttkrp
from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound
from repro.obs.export import records_from_events, summarize_records
from repro.obs.report import main as report_main
from repro.obs.tracer import Tracer
from repro.parallel.pool import get_pool


def _sample_tracer():
    tr = Tracer()
    with tr.span("cp_als", rank=4):
        with tr.span("iter[0]"):
            with tr.span("mode[0]"):
                with tr.span("mttkrp.onestep", mode=0) as sp:
                    sp.add("flops", 2.0e6)
                    with tr.span("full_krp"):
                        pass
                    with tr.span("gemm") as g:
                        g.add("gemm_calls", 1)
    tr.record_region("pool.region", tr.epoch, tr.epoch + 0.5, [0.5, 0.25])
    return tr


class TestChromeTrace:
    def test_event_schema(self):
        trace = obs.chrome_trace(_sample_tracer())
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        m_events = [e for e in events if e["ph"] == "M"]
        assert len(x_events) == 7
        assert m_events, "thread_name metadata events expected"
        for ev in x_events:
            assert set(ev) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"
            }
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert ev["pid"] == os.getpid()
            assert "path" in ev["args"]

    def test_span_counters_ride_in_args(self):
        trace = obs.chrome_trace(_sample_tracer())
        mttkrp = next(
            e for e in trace["traceEvents"] if e["name"] == "mttkrp.onestep"
        )
        assert mttkrp["args"]["flops"] == 2.0e6
        assert mttkrp["args"]["mode"] == 0
        region = next(
            e for e in trace["traceEvents"] if e["name"] == "pool.region"
        )
        assert region["args"]["imbalance"] == pytest.approx(0.5 / 0.375)

    def test_save_and_json_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert obs.save_chrome_trace(_sample_tracer(), path) == path
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        names = {e["name"] for e in loaded["traceEvents"]}
        assert {"cp_als", "iter[0]", "mode[0]", "gemm"} <= names
        records = records_from_events(loaded["traceEvents"])
        by_name = {r["name"]: r for r in records}
        assert by_name["mttkrp.onestep"]["counters"]["flops"] == 2.0e6
        assert by_name["gemm"]["path"].endswith("mttkrp.onestep/gemm")


class TestSummaries:
    def test_phase_totals_uses_leaves_only(self):
        tr = _sample_tracer()
        totals = obs.phase_totals(tr)
        # Leaves are the innermost phases; ancestors and regions excluded.
        assert set(totals) == {"full_krp", "gemm"}

    def test_summary_sections(self):
        text = obs.summary(_sample_tracer())
        assert "phase breakdown" in text
        assert "full_krp" in text
        assert "algorithm spans" in text and "mttkrp.onestep" in text
        assert "parallel regions" in text and "pool.region" in text

    def test_summarize_records_from_loaded_trace(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(_sample_tracer(), path)
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        text = summarize_records(records_from_events(events))
        assert "full_krp" in text and "pool.region" in text


def _two_worker_regions(tr, per_worker, regions=1):
    """Run ``regions`` 2-worker pool regions; worker ``w`` records one span
    of ``seconds`` per ``(name, seconds)`` in ``per_worker[w]``.

    Span lengths are synthetic (``record`` takes its own end), so the
    totals are exact; each span starts inside its worker's task.
    """
    pool = get_pool(2)

    def task(phases):
        def run():
            for name, seconds in phases:
                start = time.perf_counter()
                tr.record(name, start, start + seconds)

        return run

    with obs.capture(tr):
        for _ in range(regions):
            pool.run_tasks([task(p) for p in per_worker], label="demo")


class TestPhaseRule:
    """The one phase-breakdown rule (repro.obs.export module docstring)."""

    WORKERS = [
        [("krp", 0.001), ("gemm", 0.003), ("gemm", 0.002)],
        [("krp", 0.002), ("gemm", 0.004)],
    ]

    def test_region_charged_at_max_over_workers(self):
        tr = Tracer()
        _two_worker_regions(tr, self.WORKERS)
        totals = obs.phase_totals(tr)
        assert totals["krp"] == pytest.approx(0.002)
        # Worker 0's two gemm spans add up first: max(0.005, 0.004).
        assert totals["gemm"] == pytest.approx(0.005)

    def test_regions_add_up(self):
        tr = Tracer()
        _two_worker_regions(tr, self.WORKERS, regions=3)
        totals = obs.phase_totals(tr)
        assert totals["krp"] == pytest.approx(3 * 0.002)
        assert totals["gemm"] == pytest.approx(3 * 0.005)

    def test_loaded_trace_gives_the_same_breakdown(self, tmp_path):
        tr = Tracer()
        _two_worker_regions(tr, self.WORKERS, regions=2)
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(tr, path)
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        loaded = obs.phase_totals(records_from_events(events))
        live = obs.phase_totals(tr)
        assert set(loaded) == set(live) == {"krp", "gemm"}
        for name, seconds in live.items():
            assert loaded[name] == pytest.approx(seconds, rel=1e-6)

    def test_summary_uses_the_region_rule(self):
        tr = Tracer()
        _two_worker_regions(tr, self.WORKERS)
        row = next(
            line for line in obs.summary(tr).splitlines()
            if line.startswith("gemm ")
        )
        calls, seconds = row.split()[1:3]
        assert int(calls) == 3
        assert float(seconds) == pytest.approx(0.005, abs=1e-4)

    def test_enclosing_phase_not_hidden_by_krp_parallel(self):
        tr = Tracer()
        with tr.span("lr_krp"):
            with tr.span("krp.parallel"):
                pass
        with tr.span("krp.parallel"):
            pass
        # Nested: its time is the enclosing phase's; top level: a phase.
        assert set(obs.phase_totals(tr)) == {"lr_krp", "krp.parallel"}


# Phase names per kernel for mode 1 of an order-4 tensor, at T=1 and T=2:
# the Figure 6/8 vocabulary, as the kernels' timers reported it before the
# breakdown moved to spans.
KERNEL_PHASES = {
    "onestep": ({"lr_krp", "gemm"}, {"lr_krp", "gemm", "reduce"}),
    "onestep-seq": ({"full_krp", "gemm"},) * 2,
    "twostep": ({"lr_krp", "gemm", "gemv"},) * 2,
    "dimtree": (
        {"lr_krp", "gemm", "node_krp", "node_gemm"},
        {"lr_krp", "gemm", "node_krp", "node_gemm", "node_reduce"},
    ),
    "baseline": ({"reorder", "full_krp", "gemm"},) * 2,
    "gemm-lower-bound": ({"gemm"},) * 2,
}


def test_kernel_phase_table_covers_every_kernel():
    assert set(KERNEL_PHASES) == set(KERNELS) | {"gemm-lower-bound"}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", sorted(KERNEL_PHASES))
def test_phase_breakdown_fits_inside_the_call(kernel, threads):
    """Regression: worker phase spans were summed over workers, so a T=2
    breakdown could exceed the call it broke down.

    All spans share one clock.  The per-phase maximum over one region's
    workers can still exceed that region's wall time when different
    workers are slowest in different phases (preemption, GIL hand-offs),
    so the bound must hold on one of a few calls; a double count breaks
    every call.
    """
    X = random_tensor((32, 30, 28, 20), rng=3)
    U = random_factors(X.shape, 12, rng=4)
    expected = KERNEL_PHASES[kernel][threads - 1]
    fits = []
    for _ in range(3):
        with obs.capture() as tr:
            with tr.span("call") as call:
                if kernel == "gemm-lower-bound":
                    mttkrp_gemm_lower_bound(X, U, 1, num_threads=threads)
                else:
                    mttkrp(X, U, 1, method=kernel, num_threads=threads)
        enclosing = call.duration
        if kernel != "gemm-lower-bound":
            (span,) = [s for s in tr.spans() if s.path == f"call/mttkrp.{kernel}"]
            enclosing = span.duration
        phases = obs.phase_totals(tr)
        assert set(phases) == expected
        fits.append(sum(phases.values()) <= enclosing)
        if fits[-1]:
            break
    assert any(fits), "phase breakdown exceeds the traced call on every try"


class TestReportCLI:
    def test_main_prints_summary(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(_sample_tracer(), path)
        assert report_main([path]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out and "full_krp" in out

    def test_main_rejects_missing_file(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_python_dash_m_entry_point(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(_sample_tracer(), path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "phase breakdown" in proc.stdout


class TestEnvVar:
    def test_repro_trace_path_dumps_at_exit(self, tmp_path):
        out = str(tmp_path / "env_trace.json")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["REPRO_TRACE"] = out
        code = (
            "from repro import random_tensor, random_factors, mttkrp\n"
            "X = random_tensor((6, 5, 4), rng=0)\n"
            "U = random_factors(X.shape, 3, rng=1)\n"
            "mttkrp(X, U, 1, num_threads=2)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, encoding="utf-8") as fh:
            trace = json.load(fh)
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(n.startswith("mttkrp.") for n in names)
