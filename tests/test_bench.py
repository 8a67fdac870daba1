"""Tests for the benchmark harness (runners, stream kernel, timing)."""

import io

import numpy as np
import pytest

from repro.bench.harness import (
    run_cpals_point,
    run_krp_point,
    run_mttkrp_point,
    run_stream_point,
)
from repro.bench.schema import validate_record
from repro.bench.stream import stream_buffers, stream_scale
from repro.bench.timing import mean_time, median_time, time_once
from repro.tensor.generate import random_factors, random_tensor


class TestTiming:
    def test_time_once_positive(self):
        assert time_once(lambda: sum(range(1000))) > 0

    def test_median_time(self):
        t = median_time(lambda: None, repeats=3, warmup=1)
        assert t >= 0

    def test_mean_time(self):
        assert mean_time(lambda: None, repeats=3, warmup=0) >= 0

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            median_time(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            mean_time(lambda: None, repeats=0)


class TestStreamKernel:
    def test_buffers(self):
        src, dst = stream_buffers(100)
        assert src.shape == dst.shape == (100,)

    def test_scale_correct(self):
        src, dst = stream_buffers(1000)
        stream_scale(src, dst, alpha=3.0, num_threads=1)
        np.testing.assert_array_equal(dst, 3.0)

    def test_scale_threaded(self):
        src, dst = stream_buffers(1000)
        stream_scale(src, dst, alpha=2.0, num_threads=4)
        np.testing.assert_array_equal(dst, 2.0)

    def test_shape_mismatch(self):
        src, _ = stream_buffers(10)
        with pytest.raises(ValueError):
            stream_scale(src, np.zeros(9))

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            stream_buffers(0)


class TestRunners:
    def test_krp_point(self, rng):
        mats = [rng.random((d, 4)) for d in (6, 5)]
        r = run_krp_point("fig4", "krp", mats, threads=2, repeats=1)
        validate_record(r)
        assert (r["benchmark"], r["case"]) == ("fig4", "krp")
        p = r["params"]
        assert (p["Z"], p["C"], p["rows"], p["threads"]) == (2, 4, 30, 2)
        assert r["timing"]["mean_s"] > 0
        assert r["timing"]["repeats"] == 1

    def test_stream_point(self):
        r = run_stream_point("fig4", "stream", 1000, 4, threads=1, repeats=1,
                             params={"Z": 3})
        assert r["params"]["schedule"] == "stream"
        assert r["params"]["Z"] == 3
        assert r["timing"]["mean_s"] > 0

    @pytest.mark.parametrize(
        "algo", ["onestep", "twostep", "gemm-baseline", "baseline"]
    )
    def test_mttkrp_point(self, algo):
        X = random_tensor((6, 7, 8), rng=0)
        U = random_factors(X.shape, 4, rng=1)
        r = run_mttkrp_point("fig5", algo, X, U, 1, algo, threads=1,
                             repeats=1)
        validate_record(r)
        assert r["timing"]["median_s"] > 0
        assert r["params"]["algorithm"] == algo
        assert r["phases"]  # breakdown attached
        t = r["timing"]
        assert t["min_s"] <= t["median_s"] <= t["max_s"]
        # the instrumented repetition captured obs counters
        assert r["counters"].get("flops", 0) > 0

    @pytest.mark.parametrize("impl", ["repro", "ttb"])
    def test_cpals_point(self, impl):
        X = random_tensor((6, 7, 8), rng=0)
        r = run_cpals_point("fig7", impl, X, 3, impl, threads=1,
                            iterations=2)
        validate_record(r)
        assert r["timing"]["median_s"] > 0
        assert r["params"]["implementation"] == impl
        assert r["timing"]["repeats"] == 2

    def test_mttkrp_point_leaves_tracer_disabled(self):
        import repro.obs as obs

        X = random_tensor((5, 6, 7), rng=0)
        U = random_factors(X.shape, 3, rng=1)
        run_mttkrp_point("fig5", "n0", X, U, 0, "onestep", threads=1,
                         repeats=1)
        assert obs.get_tracer() is obs.NULL_TRACER

    def test_cpals_unknown_impl(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="implementation"):
            run_cpals_point("fig7", "matlab", X, 2, "matlab", threads=1)


class TestFigureDrivers:
    """Each figure driver runs end-to-end at a tiny scale."""

    def _run(self, fn, **kwargs):
        out = io.StringIO()
        fn(out=out, **kwargs)
        text = out.getvalue()
        assert "modeled" in text or "measured" in text
        return text

    def test_fig4(self):
        from repro.bench.figures import fig4

        text = self._run(
            fig4, scale=2e-5, threads=(1,), repeats=1, modeled=False
        )
        assert "reuse(s)" in text

    def test_fig4_modeled_only(self):
        from repro.bench.figures import fig4

        text = self._run(fig4, measured=False)
        assert "paper machine" in text

    def test_fig5(self):
        from repro.bench.figures import fig5

        text = self._run(
            fig5, scale=2e-6, threads=(1,), repeats=1, modeled=False
        )
        assert "onestep" in text and "twostep" in text

    def test_fig6(self):
        from repro.bench.figures import fig6

        text = self._run(
            fig6, scale=2e-6, threads=(1, 2), repeats=1, modeled=False
        )
        assert "gemm" in text
        # Phase columns each measured row fills, keyed by (table, mode,
        # algorithm) and thread count.
        filled = {}
        header = None
        for line in text.splitlines():
            if line.startswith("[Fig 6, measured]"):
                table, _, threads = line.rpartition(", T=")
            elif line.lstrip().startswith("mode "):
                header = line.split()
            elif line.lstrip().startswith("n="):
                cells = line.split()
                filled[table, cells[0], cells[1], int(threads)] = {
                    phase for phase, cell in zip(header[3:], cells[3:])
                    if cell != "-"
                }
        rows = {key[:3] for key in filled}
        assert rows and {key[3] for key in filled} == {1, 2}
        for row in rows:
            one, two = filled[(*row, 1)], filled[(*row, 2)]
            assert one, row
            # The region rule keeps the T=1 phases at T=2; only the
            # reduction of private outputs is new.
            assert two - {"reduce"} == one, row

    def test_fig7_modeled(self):
        from repro.bench.figures import fig7

        text = self._run(fig7, measured=False)
        assert "TTB" in text and "dimtree" in text

    def test_fig8_modeled(self):
        from repro.bench.figures import fig8

        text = self._run(fig8, measured=False)
        assert "fMRI" in text

    def test_cli_modeled_fig5(self, capsys):
        from repro.bench.figures import main

        assert main(["fig5", "--no-measured"]) == 0
        assert "paper machine" in capsys.readouterr().out
