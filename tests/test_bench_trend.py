"""Tests for the regression tracker and its committed baselines."""

import json
import os

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.env import host_class_of
from repro.bench.schema import (
    load_history,
    load_results,
    new_record,
    write_results,
)
from repro.bench.trend import (
    EXIT_OK,
    EXIT_REGRESSION,
    compare,
    render_json,
    render_text,
    select_baselines,
)

HOST_A = {"cpus": 4, "machine": "x86_64", "platform": "Linux-x86_64",
          "python": "3.11.7", "git_rev": "a" * 40, "git_dirty": False}
HOST_B = {"cpus": 12, "machine": "x86_64", "platform": "Linux-x86_64",
          "python": "3.11.7", "git_rev": "b" * 40, "git_dirty": False}


def _rec(benchmark, case, median, host=HOST_A, repeats=5):
    return new_record(
        benchmark, case,
        timing={"median_s": median, "mean_s": median, "repeats": repeats},
        host=host,
    )


class TestCompare:
    def test_detects_slowdown(self):
        history = [_rec("fig5", "a", 1.0)]
        result = compare([_rec("fig5", "a", 2.0)], history, tolerance=0.25)
        assert [c.status for c in result.comparisons] == ["regression"]
        assert result.exit_code == EXIT_REGRESSION
        assert result.comparisons[0].ratio == pytest.approx(2.0)

    def test_respects_relative_tolerance(self):
        history = [_rec("fig5", "a", 1.0)]
        result = compare([_rec("fig5", "a", 1.2)], history, tolerance=0.25)
        assert [c.status for c in result.comparisons] == ["ok"]
        assert result.exit_code == EXIT_OK

    def test_absolute_floor_suppresses_microsecond_noise(self):
        # 3x slower, but only 20us absolute — below the 50us floor
        history = [_rec("pool-overhead", "launch", 1e-5)]
        result = compare(
            [_rec("pool-overhead", "launch", 3e-5)], history,
            tolerance=0.25, abs_floor_s=5e-5,
        )
        assert [c.status for c in result.comparisons] == ["ok"]

    def test_improvement_reported(self):
        history = [_rec("fig5", "a", 2.0)]
        result = compare([_rec("fig5", "a", 1.0)], history)
        assert [c.status for c in result.comparisons] == ["improvement"]
        assert result.exit_code == EXIT_OK

    def test_no_baseline_for_new_case(self):
        result = compare([_rec("fig5", "brand-new", 1.0)], [])
        assert [c.status for c in result.comparisons] == ["no-baseline"]
        assert result.exit_code == EXIT_OK

    def test_host_class_isolation(self):
        # a 12-core baseline must not judge a 4-core run
        history = [_rec("fig5", "a", 0.1, host=HOST_B)]
        result = compare([_rec("fig5", "a", 1.0, host=HOST_A)], history)
        assert [c.status for c in result.comparisons] == ["no-baseline"]

    def test_one_baseline_per_key(self):
        history = [_rec("fig5", "a", 2.0), _rec("fig5", "a", 1.0, host=HOST_B)]
        baselines = select_baselines(history)
        assert baselines[("fig5", "a", host_class_of(HOST_A))] is history[0]
        assert baselines[("fig5", "a", host_class_of(HOST_B))] is history[1]

    def test_render_text_names_offenders(self, capsys):
        history = [_rec("fig5", "slow-case", 1.0)]
        result = compare([_rec("fig5", "slow-case", 5.0)], history)
        render_text(result)
        out = capsys.readouterr().out
        assert "REGRESSED: fig5:slow-case" in out
        assert "REGRESSION" in out

    def test_render_json(self):
        history = [_rec("fig5", "a", 1.0)]
        doc = render_json(compare([_rec("fig5", "a", 5.0)], history))
        assert doc["exit_code"] == EXIT_REGRESSION
        assert doc["regressions"] == ["fig5:a"]
        assert doc["comparisons"][0]["status"] == "regression"
        json.dumps(doc)  # must be serializable


class TestTrendCLI:
    def _seed(self, tmp_path, baseline_s, current_s):
        results = tmp_path / "results"
        results.mkdir()
        write_results(str(results / "history.bench.json"),
                      [_rec("fig5", "a", baseline_s)])
        current = tmp_path / "current.bench.json"
        write_results(str(current), [_rec("fig5", "a", current_s)])
        return str(results), str(current)

    def test_exit_zero_when_ok(self, tmp_path, capsys):
        results, current = self._seed(tmp_path, 1.0, 1.1)
        code = cli_main(["trend", "--results", results, "--current", current])
        assert code == EXIT_OK
        assert "0 regression(s)" in capsys.readouterr().out

    def test_exit_nonzero_on_injected_regression(self, tmp_path, capsys):
        results, current = self._seed(tmp_path, 1.0, 3.0)
        json_out = tmp_path / "trend.json"
        code = cli_main([
            "trend", "--results", results, "--current", current,
            "--json", str(json_out), "--chart",
        ])
        assert code == EXIT_REGRESSION
        out = capsys.readouterr().out
        assert "REGRESSED: fig5:a" in out
        assert "slower" in out  # ratio chart rendered
        doc = json.loads(json_out.read_text())
        assert doc["regressions"] == ["fig5:a"]

    def test_tolerance_flag(self, tmp_path):
        results, current = self._seed(tmp_path, 1.0, 3.0)
        code = cli_main([
            "trend", "--results", results, "--current", current,
            "--tolerance", "5.0",
        ])
        assert code == EXIT_OK

    def test_missing_current_file(self, tmp_path, capsys):
        code = cli_main([
            "trend", "--results", str(tmp_path),
            "--current", str(tmp_path / "none.bench.json"),
        ])
        assert code == 2
        assert "no current run" in capsys.readouterr().err

    def test_new_benchmark_name_is_unbaselined_not_regressed(
        self, tmp_path, capsys
    ):
        """A benchmark appearing for the first time must never exit 3.

        Regression guard for the "no committed baseline" vs "regression"
        distinction: history exists (for *other* benchmarks), the current
        run introduces a benchmark name history has never seen — every
        one of its cases is ``no-baseline`` and the exit code stays 0,
        however slow the new numbers are.
        """
        results = tmp_path / "results"
        results.mkdir()
        write_results(str(results / "history.bench.json"),
                      [_rec("fig5", "a", 1.0)])
        current = tmp_path / "current.bench.json"
        write_results(str(current), [
            _rec("newsuite", "n0/T1", 1e6),  # absurdly slow
            _rec("newsuite", "n1/T1", 1e6),
        ])
        json_out = tmp_path / "trend.json"
        code = cli_main([
            "trend", "--results", str(results), "--current", str(current),
            "--json", str(json_out),
        ])
        assert code == EXIT_OK
        doc = json.loads(json_out.read_text())
        assert doc["regressions"] == []
        assert [c["status"] for c in doc["comparisons"]] == [
            "no-baseline", "no-baseline",
        ]
        assert "2 without baseline" in capsys.readouterr().out
        # Same distinction at the compare() level.
        result = compare(
            [_rec("newsuite", "n0/T1", 1e6)],
            [_rec("fig5", "a", 1.0)],
        )
        assert [c.status for c in result.comparisons] == ["no-baseline"]
        assert result.exit_code == EXIT_OK

    def test_fresh_benchmark_vs_committed_history(self, tmp_path):
        """Against the repo's real committed results/: a benchmark name
        absent from every ``results/*.bench.json`` reports unbaselined."""
        committed = os.path.join(REPO_ROOT, "results")
        history = load_history(committed)
        assert history, "repo must ship committed baselines"
        fresh_name = "definitely-new-benchmark"
        assert all(r["benchmark"] != fresh_name for r in history)
        current = tmp_path / "current.bench.json"
        write_results(str(current), [_rec(fresh_name, "case", 123.0)])
        code = cli_main([
            "trend", "--results", committed, "--current", str(current),
        ])
        assert code == EXIT_OK

    def test_current_excluded_from_history(self, tmp_path):
        # a current file living inside results/ must not self-baseline
        results = tmp_path / "results"
        results.mkdir()
        current = results / "current.bench.json"
        write_results(str(current), [_rec("fig5", "a", 3.0)])
        code = cli_main([
            "trend", "--results", str(results), "--current", str(current),
        ])
        assert code == EXIT_OK  # no baseline -> informational only


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCommittedBaselines:
    # results/ holds one <suite>.bench.json per suite, every record from
    # one host class, with no case recorded twice.
    def _files(self):
        results = os.path.join(REPO_ROOT, "results")
        return {
            name: load_results(os.path.join(results, name))
            for name in sorted(os.listdir(results))
            if name.endswith(".bench.json")
        }

    def test_one_file_per_suite(self):
        files = self._files()
        assert files
        for name, records in files.items():
            assert {r["benchmark"] for r in records} == {
                name[: -len(".bench.json")]
            }
        history = load_history(os.path.join(REPO_ROOT, "results"),
                               strict=True)
        assert len({host_class_of(r["host"]) for r in history}) == 1

    def test_ci_batch_cases_have_baselines(self):
        # The CI trend gate runs the batch suite at scale 0.25 with
        # threads 1,2; its case ids depend on the scale, so the committed
        # baseline must be recorded with the same settings.
        batch = self._files()["batch.bench.json"]
        assert {r["context"]["scale"] for r in batch} == {0.25}
        assert {tuple(r["context"]["threads"]) for r in batch} == {(1, 2)}
