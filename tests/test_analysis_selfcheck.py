"""The tree must stay analyzer-clean: zero unsuppressed findings.

This is the CI teeth of :mod:`repro.analysis` — any future PR that
introduces a parallel hazard (or an unexplained suppression-free layout
warning) fails tier-1 here, with the finding's fix-hint in the report.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import lint_paths, render_text

SRC = Path(__file__).parent.parent / "src" / "repro"


def test_src_tree_has_no_unsuppressed_findings():
    findings = lint_paths([SRC])
    active = [f for f in findings if not f.suppressed]
    assert not active, "\n" + render_text(findings)


def test_suppressions_in_tree_are_the_known_ones():
    # Suppressions are allowed but must be deliberate: this list is the
    # reviewed inventory.  Update it (and the justifying comment at the
    # site) when adding one.
    findings = lint_paths([SRC])
    suppressed = {
        (Path(f.path).name, f.rule) for f in findings if f.suppressed
    }
    assert suppressed == set()


def test_analyzer_sees_the_whole_tree():
    # Guard against the lint silently linting nothing (e.g. a bad path).
    from repro.analysis import collect_files

    files = collect_files([SRC])
    assert len(files) > 20
    names = {f.name for f in files}
    assert {
        "pool.py", "reduction.py", "mttkrp_onestep.py", "workspace.py",
        "dimtree.py",
    } <= names
    # The batched-tuner tree is linted too (and, per the suppression
    # inventory above, contributes zero suppressions of its own).
    tune_files = {f.name for f in files if f.parent.name == "tune"}
    assert {"batched.py", "cache.py"} <= tune_files


def test_cli_strict_run_is_clean():
    # Tier-1 teeth for the CLI itself: `python -m repro.analysis --strict`
    # over the whole tree must exit 0, exactly as CI invokes it.
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else "src"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--strict", "src/repro"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout
