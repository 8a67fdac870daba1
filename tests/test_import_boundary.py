"""Import boundary of the runtime package.

``import repro`` and ``import repro.serve`` load only what CP-ALS and
serving run: no ``scipy`` (a test dependency, needed only by
``factor_match_score``, which imports it on first call) and no
``repro.analysis`` (the static analyzer; the runtime's write-set
sanitizer lives in ``repro.parallel.sanitizer``).  The runtime and the
analyzer must both run where only numpy is installed.  A traced MTTKRP
call imports nothing either, so no import lands inside its ``mttkrp.*``
span.

Every check runs in a fresh interpreter, because the test process has
long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Prepended to a snippet to make ``import scipy`` raise
#: ``ModuleNotFoundError``, as in an environment that has only numpy.
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"

#: Two rank-3 models whose components match only partly, so the
#: assignment step of the factor match score has a choice to make.
MODELS = """
import numpy as np
from repro.cpd.kruskal import KruskalTensor
from repro.tensor.generate import random_factors
est = KruskalTensor(random_factors((5, 6, 7), 3, rng=0), np.array([3.0, 2.0, 1.0]))
ref = KruskalTensor(random_factors((5, 6, 7), 3, rng=99), np.array([1.0, 2.5, 2.0]))
"""

FOREIGN_MODULES = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules
    if m == "scipy" or m.startswith("scipy.")
    or m == "repro.analysis" or m.startswith("repro.analysis.")
)))
"""


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


@pytest.mark.parametrize("module", ["repro", "repro.serve"])
def test_runtime_import_loads_no_scipy_and_no_analyzer(module):
    proc = _run(f"import {module}\n" + FOREIGN_MODULES)
    assert json.loads(proc.stdout) == []


def test_sanitizer_env_flag_loads_no_analyzer():
    # REPRO_SANITIZE=1 turns the sanitizer on; it still comes from the
    # runtime package, not from the analyzer.
    proc = _run(
        "import os; os.environ['REPRO_SANITIZE'] = '1'\n"
        "import repro\n"
        "from repro.parallel.sanitizer import get_sanitizer\n"
        "assert get_sanitizer().enabled\n" + FOREIGN_MODULES
    )
    assert json.loads(proc.stdout) == []


def test_first_factor_match_score_call_loads_scipy():
    pytest.importorskip("scipy")
    from repro.cpd.diagnostics import factor_match_score

    models: dict = {}
    exec(MODELS, models)
    expected = factor_match_score(models["est"], models["ref"])
    proc = _run(
        "import sys\n"
        "from repro.cpd.diagnostics import factor_match_score\n"
        + MODELS
        + "assert 'scipy.optimize' not in sys.modules\n"
        "score = factor_match_score(est, ref)\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "print(repr(score))\n"
    )
    assert float(proc.stdout) == expected


def test_runtime_and_analyzer_import_without_scipy(tmp_path):
    # Importing is not enough: a CP-ALS run, every kernel of the table
    # and a model round trip must also work with numpy alone (any scipy
    # import on the way raises).
    proc = _run(
        BLOCK_SCIPY
        + "import numpy as np\n"
        "import repro, repro.serve, repro.analysis\n"
        "assert repro.analysis.sanitize is not None\n"
        "from repro import cp_als, mttkrp, random_factors, random_tensor\n"
        "from repro.core.dispatch import KERNELS\n"
        "from repro.io import load_model, save_model\n"
        "X = random_tensor((6, 5, 4), rng=0)\n"
        "U = random_factors(X.shape, 3, rng=1)\n"
        "for name in KERNELS:\n"
        "    assert mttkrp(X, U, 1, method=name).shape == (5, 3)\n"
        "res = cp_als(X, 3, n_iter_max=3, rng=0)\n"
        f"path = {str(tmp_path / 'model.npz')!r}\n"
        "save_model(path, res.model)\n"
        "back = load_model(path)\n"
        "np.testing.assert_array_equal(back.weights, res.model.weights)\n"
        "for a, b in zip(back.factors, res.model.factors):\n"
        "    np.testing.assert_array_equal(a, b)\n"
        "print('ok')\n"
    )
    assert proc.stdout.strip() == "ok"


def test_analyzer_cli_runs_without_scipy():
    proc = _run(
        BLOCK_SCIPY
        + "import runpy\n"
        "sys.argv = ['repro.analysis', '--help']\n"
        "runpy.run_module('repro.analysis', run_name='__main__',"
        " alter_sys=True)\n"
    )
    assert "usage:" in proc.stdout


@pytest.mark.parametrize("method", ["onestep", "twostep", "dimtree", "baseline"])
def test_first_traced_call_imports_nothing(method):
    # The kernel's own lazy imports happen on an untraced warm-up call;
    # what is left is what tracing adds, and an import there would be
    # charged to the first traced call's span (its analytic cost record
    # used to import repro.machine for the cache size).
    proc = _run(
        "import json, sys\n"
        "import repro.obs as obs\n"
        "from repro import mttkrp, random_factors, random_tensor\n"
        "X = random_tensor((6, 5, 4), rng=0)\n"
        "U = random_factors((6, 5, 4), 3, rng=1)\n"
        f"mttkrp(X, U, 1, method={method!r}, num_threads=2)\n"
        "obs.enable()\n"
        "before = set(sys.modules)\n"
        f"mttkrp(X, U, 1, method={method!r}, num_threads=2)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert json.loads(proc.stdout) == []
