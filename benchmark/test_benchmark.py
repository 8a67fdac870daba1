"""Smoke tests of the benchmark command.  Run with ``python -m pytest benchmark -q``.

Every workload runs at toy size (``--smoke``), so the module takes about
a minute; none of it is part of the tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmark import run, workloads

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A child that corrupts every job result the client reads, then runs the
#: real child entry point.
_CORRUPTING_CHILD = """
import runpy

from repro.serve.server import JobServer

_result = JobServer.result


def corrupted(self, job_id, timeout=None):
    result = _result(self, job_id, timeout=timeout)
    result.factors[0] = result.factors[0] + 1e-3
    return result


JobServer.result = corrupted
runpy.run_module("benchmark.workloads", run_name="__main__", alter_sys=True)
"""


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke_run(request):
    proc = _command("--smoke", "--trace", str(request.param))
    return request.param, proc


def test_declared_workloads_and_metrics_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert DECLARED["paths"] == ["benchmark"]
    for key, units in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in DECLARED[key]} == units


def test_every_metric_is_emitted_with_its_unit_where_its_layer_runs(smoke_run):
    trace, proc = smoke_run
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {f"{name}/{metric}": unit
                for name in workloads.WORKLOADS
                for metric, unit in (workloads.layer_units(workloads.workload(name)) if trace
                                     else workloads.END_TO_END).items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), key


def test_correctness_checks_pass(smoke_run):
    _, proc = smoke_run
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.WORKLOADS)


def test_corrupted_job_result_fails_the_run(monkeypatch, tmp_path, capsys):
    child = tmp_path / "corrupting_child.py"
    child.write_text(_CORRUPTING_CHILD)
    monkeypatch.setattr(run, "CHILD", [str(child)])
    assert run.main(["--smoke", "--workload", "serve-tiny-closed", "--trace", "1"]) != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    # One workload's result line holds the declared metrics and no others.
    assert set(result["metrics"]) == set(workloads.PER_LAYER)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _command("--smoke", "--workload", "serve-tiny-closed", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
