"""Smoke tests for the example scripts.

Every example must at least byte-compile; the fast ones are executed
end-to-end in a subprocess so a public-API regression that only an example
exercises still fails the suite.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    names = {p.name for p in ALL_EXAMPLES}
    assert {
        "quickstart.py",
        "fmri_analysis.py",
        "algorithm_comparison.py",
        "scaling_study.py",
        "rank_selection.py",
    } <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def _run(path: pathlib.Path, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES_DIR.parent,
    )
    assert proc.returncode == 0, (
        f"{path.name} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )
    return proc.stdout


def test_quickstart_runs():
    out = _run(EXAMPLES_DIR / "quickstart.py")
    assert "quickstart complete" in out
    assert "agrees with auto: True" in out


def test_algorithm_comparison_runs():
    out = _run(EXAMPLES_DIR / "algorithm_comparison.py")
    assert "reorder" in out and "gemm-lb" in out
