"""Tests for the benchmark registry and the repro-bench CLI."""

import pathlib

import numpy as np
import pytest

import repro
from repro.bench.cli import main as cli_main
from repro.bench.env import source_lines
from repro.bench.registry import (
    benchmark_names,
    get_spec,
    list_specs,
    measure_case,
    run_benchmark,
)
from repro.bench.schema import load_results, validate_record

EXPECTED = {
    "fig4", "fig5", "fig6", "fig7", "fig8",
    "dimtree", "pool-overhead", "ablations",
}


# Case ids each suite must emit at threads (1, 2); ids are contract, so
# these pin the cases that have no other harness.
PORTED_CASES = {
    "ablations": {"accumulation/private/T2", "accumulation/locked/T2"},
    "pool-overhead": {"schedule/static/T2", "schedule/dynamic/T2"},
    "dimtree": {"node/batched", "node/batched/T2"},
}


class TestAccumulationAblation:
    @pytest.mark.parametrize("strategy", ["private", "locked"])
    def test_matches_onestep(self, strategy):
        from repro.bench.harness import accumulation_mttkrp
        from repro.core.dispatch import mttkrp
        from repro.tensor.generate import random_factors, random_tensor

        shape = (5, 4, 6, 3, 4)
        X = random_tensor(shape, rng=0)
        U = random_factors(shape, 5, rng=1)
        ref = mttkrp(X, U, 2, method="onestep", num_threads=1)
        got = accumulation_mttkrp(X, U, 2, strategy, 2)
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_rejects_unknown_strategy(self):
        from repro.bench.harness import accumulation_mttkrp

        with pytest.raises(ValueError, match="accumulation strategy"):
            accumulation_mttkrp(None, [], 2, "atomic", 2)


class TestRegistry:
    def test_all_benchmarks_registered(self):
        assert EXPECTED <= set(benchmark_names())

    def test_specs_have_titles_and_defaults(self):
        for spec in list_specs():
            assert spec.title
            assert spec.default_scale > 0
            assert spec.default_repeats >= 1

    def test_tag_filter(self):
        figures = {s.name for s in list_specs(tag="figure")}
        assert figures == {"fig4", "fig5", "fig6", "fig7", "fig8"}

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available.*fig4"):
            get_spec("fig99")

    @pytest.mark.parametrize("name", sorted(PORTED_CASES))
    def test_run_one_smoke(self, name):
        # the registry smoke test kept inside tier-1: tiny scale, 1 repeat
        records = run_benchmark(name, scale=0.01, threads=(1, 2), repeats=1)
        assert records
        for record in records:
            validate_record(record)
            assert record["benchmark"] == name
            assert record["timing"]["median_s"] > 0
            assert record["host"]["git_rev"]
            assert record["context"]["source"] == "repro-bench"
            assert record["context"]["scale"] == 0.01
            assert record["context"]["src_lines"] == source_lines()
        cases = {record["case"] for record in records}
        assert PORTED_CASES[name] <= cases

    def test_measured_record_has_obs_counters(self):
        records = run_benchmark(
            "ablations", scale=0.01, threads=(1,), repeats=1
        )
        counters = [r["counters"] for r in records if r["counters"]]
        assert counters, "no record captured obs counters"
        assert any(c.get("flops", 0) > 0 or c.get("gemm_calls", 0) > 0
                   for c in counters)
        # Cases run through a kernel-table row carry its analytic cost.
        seq = [r for r in records if r["case"].startswith("seq-variant/")]
        assert len(seq) == 3
        for record in seq:
            assert record["counters"]["flops"] > 0
            assert record["counters"]["bytes_lower_bound"] > 0

    def test_source_line_count_is_recorded(self):
        count = source_lines()
        assert isinstance(count, int) and count > 0
        package = pathlib.Path(repro.__file__).parent
        expected = sum(
            path.read_bytes().count(b"\n") for path in package.rglob("*.py")
        )
        assert count == expected

    def test_measure_case_structure(self):
        record = measure_case(
            "demo", "trivial", lambda: sum(range(100)),
            params={"n": 100}, repeats=2,
        )
        assert record["benchmark"] == "demo"
        assert record["timing"]["repeats"] == 2
        assert record["params"] == {"n": 100}


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED:
            assert name in out

    def test_list_tag(self, capsys):
        assert cli_main(["list", "--tag", "figure"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "ablations" not in out

    def test_list_unknown_tag(self):
        assert cli_main(["list", "--tag", "nope"]) == 1

    def test_run_writes_results_file(self, tmp_path, capsys):
        out_path = tmp_path / "current.bench.json"
        code = cli_main([
            "run", "ablations", "--scale", "0.01", "--threads", "1",
            "--repeats", "1", "--out", str(out_path),
        ])
        assert code == 0
        records = load_results(str(out_path))
        assert records and all(r["benchmark"] == "ablations" for r in records)
        for record in records:
            lines = record["context"]["src_lines"]
            assert isinstance(lines, int) and lines > 0
        assert "record(s)" in capsys.readouterr().out

    def test_run_unknown_benchmark(self, capsys):
        assert cli_main(["run", "fig99"]) == 2
        assert "available" in capsys.readouterr().err
