"""Per-rule fixture tests for the parallel-hazard lint (RA001–RA004, RA006–RA008).

Each rule id has one minimal positive and one negative fixture under
``tests/analysis_fixtures/``; the positive must produce at least one
finding with that id and the negative must produce none.  Plus coverage
for suppression handling, the JSON report, and the CLI contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_paths, render_json, render_text
from repro.analysis.rules import ALL_RULES, get_rules

FIXTURES = Path(__file__).parent / "analysis_fixtures"
RULE_IDS = [r.id for r in ALL_RULES]


def findings_for(name, rule_id=None):
    found = lint_file(FIXTURES / name)
    if rule_id is not None:
        found = [f for f in found if f.rule == rule_id]
    return found


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_fixture_fires(self, rule_id):
        name = f"{rule_id.lower()}_pos.py"
        hits = findings_for(name, rule_id)
        assert hits, f"{name} produced no {rule_id} findings"
        for f in hits:
            assert not f.suppressed
            assert f.line > 0
            assert f.message
            assert f.hint

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_negative_fixture_clean(self, rule_id):
        name = f"{rule_id.lower()}_neg.py"
        assert findings_for(name, rule_id) == []

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_fixture_only_its_own_rule(self, rule_id):
        # A positive fixture for one rule must not trip unrelated rules —
        # that would mean the fixtures (and the rules) overlap murkily.
        name = f"{rule_id.lower()}_pos.py"
        other = {f.rule for f in findings_for(name)} - {rule_id}
        assert not other, f"{name} also fired {other}"

    def test_corpus_reports_all_six_ids(self):
        ids = {f.rule for f in lint_paths([FIXTURES])}
        assert ids >= set(RULE_IDS)


class TestArenaReusePattern:
    """RA001 vs the workspace-arena idiom of the dimtree kernels.

    Buffers acquired from a :class:`repro.parallel.workspace.Workspace`
    outside the region and written inside it through partition-derived
    destinations (``out=priv[worker]``, views derived from it, per-worker
    clock slots) must lint clean; writing an arena slab the worker does
    not own must still fire.
    """

    def test_arena_reuse_negative_clean(self):
        assert findings_for("ra001_arena_neg.py") == []

    def test_arena_reuse_positive_fires(self):
        hits = findings_for("ra001_arena_pos.py", "RA001")
        assert len(hits) == 2
        assert {f.rule for f in findings_for("ra001_arena_pos.py")} == {
            "RA001"
        }

    def test_severities(self):
        sev = {r.id: r.severity for r in ALL_RULES}
        assert sev["RA001"] == "error"
        assert sev["RA002"] == "error"
        assert sev["RA006"] == "error"
        assert sev["RA003"] == "warning"
        assert sev["RA004"] == "warning"


class TestSuppression:
    def _lint_source(self, tmp_path, source):
        p = tmp_path / "mod.py"
        p.write_text(source)
        return lint_file(p)

    def test_same_line_suppression(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    out = np.empty((4, 4))  # repro: ignore[RA003]\n"
            "    np.matmul(a, b, out=out)\n"
        )
        found = self._lint_source(tmp_path, src)
        assert [f.rule for f in found] == ["RA003"]
        assert found[0].suppressed

    def test_preceding_line_suppression(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    # repro: ignore[RA003]\n"
            "    out = np.empty((4, 4))\n"
            "    np.matmul(a, b, out=out)\n"
        )
        found = self._lint_source(tmp_path, src)
        assert found[0].suppressed

    def test_comma_separated_ids(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    out = np.empty((4, 4))  # repro: ignore[RA001, RA003]\n"
            "    np.matmul(a, b, out=out)\n"
        )
        found = self._lint_source(tmp_path, src)
        assert found[0].suppressed

    def test_wrong_id_does_not_suppress(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    out = np.empty((4, 4))  # repro: ignore[RA001]\n"
            "    np.matmul(a, b, out=out)\n"
        )
        found = self._lint_source(tmp_path, src)
        assert not found[0].suppressed

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        found = lint_file(p)
        assert [f.rule for f in found] == ["PARSE"]
        assert found[0].severity == "error"


class TestReports:
    def test_json_shape(self):
        findings = lint_paths([FIXTURES])
        payload = json.loads(render_json(findings))
        assert set(payload) == {"findings", "summary"}
        assert payload["summary"]["errors"] > 0
        one = payload["findings"][0]
        assert {"rule", "severity", "path", "line", "col", "message",
                "hint", "suppressed"} <= set(one)

    def test_text_summary_line(self):
        findings = lint_paths([FIXTURES])
        text = render_text(findings)
        assert "error(s)" in text and "warning(s)" in text

    def test_get_rules_unknown_id(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["RA999"])

    def test_get_rules_subset(self):
        rules = get_rules(["RA003", "RA006"])
        assert [r.id for r in rules] == ["RA003", "RA006"]


class TestCli:
    def _run(self, *args):
        repo = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=repo, env=env,
        )

    def test_exit_nonzero_on_fixture_errors(self):
        res = self._run(str(FIXTURES))
        assert res.returncode == 1
        assert "RA001" in res.stdout

    def test_exit_zero_on_clean_tree(self):
        res = self._run("src/repro")
        assert res.returncode == 0, res.stdout

    def test_json_flag(self):
        res = self._run(str(FIXTURES), "--json")
        payload = json.loads(res.stdout)
        assert payload["summary"]["errors"] > 0

    def test_rules_filter(self):
        res = self._run(str(FIXTURES), "--rules", "RA003")
        # RA003 is warning severity: exit 0 unless --strict.
        assert res.returncode == 0
        assert "RA001" not in res.stdout

    def test_strict_promotes_warnings(self):
        res = self._run(str(FIXTURES), "--rules", "RA003", "--strict")
        assert res.returncode == 1
