"""Dimension-tree CP-ALS vs the per-mode baseline (Fig. 7 workloads).

Two levels of comparison, matching the paper's III.C argument:

* whole-iteration: ``cp_als(..., mode_strategy="per-mode")`` vs
  ``"dimtree"`` on the Fig. 7 fMRI proxies (3-way and the 4-way tensor).
  The dimension tree replaces N full MTTKRPs per iteration with two big
  partial contractions plus N cheap node-level updates (~N/2 fewer large
  GEMMs).
* second-level only: the batched ``node_mttkrp`` (one GEMM over all rank
  columns) vs the retained column-wise reference
  ``node_mttkrp_columnwise`` (one GEMV per rank column), on the same
  node tensor.

Results are distilled into ``results/BENCH_dimtree.json``.

Run: ``pytest benchmarks/test_fig_dimtree.py --benchmark-only``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_threads, record_paper_context
from repro.core.dimtree import (
    left_partial,
    node_mttkrp,
    node_mttkrp_columnwise,
    split_point,
)
from repro.cpd.cp_als import cp_als
from repro.data.fmri import synthetic_fmri
from repro.data.workloads import FMRI_REDUCED_4D
from repro.parallel.workspace import Workspace
from repro.tensor.generate import random_factors

pytestmark = pytest.mark.bench

_THREADS = bench_threads()
_RANK = 20  # mid-point of the paper's C grid; deep enough to batch over

_cache: dict = {}


def _tensors():
    if "data" not in _cache:
        t, s, r, _ = FMRI_REDUCED_4D
        data = synthetic_fmri(t, s, r, rank=5, rng=0)
        _cache["data"] = {"3D": data.to_3way(), "4D": data.tensor}
    return _cache["data"]


def _node_problem():
    """A warm left-partial node of the 4-way proxy, plus its factors."""
    if "node" not in _cache:
        X = _tensors()["4D"]
        m = split_point(X.ndim)
        factors = random_factors(X.shape, _RANK, rng=1)
        node = left_partial(X, factors, m, num_threads=1)
        _cache["node"] = (node, factors[:m])
    return _cache["node"]


@pytest.mark.parametrize("kind", ["3D", "4D"])
@pytest.mark.parametrize("strategy", ["per-mode", "dimtree"])
@pytest.mark.parametrize("threads", _THREADS, ids=lambda t: f"T{t}")
def test_dimtree_cpals_iteration(benchmark, kind, strategy, threads):
    """One CP-ALS iteration per strategy on the Fig. 7 tensors."""
    X = _tensors()[kind]
    init = random_factors(X.shape, _RANK, rng=1)
    record_paper_context(
        benchmark,
        figure="fig7-dimtree",
        tensor=kind,
        shape=list(X.shape),
        rank=_RANK,
        strategy=strategy,
        threads=threads,
    )

    def one_iteration():
        cp_als(
            X, _RANK, n_iter_max=1, tol=0.0, init=init,
            num_threads=threads, mode_strategy=strategy,
        )

    benchmark(one_iteration)


@pytest.mark.parametrize("impl", ["columnwise", "batched"])
def test_node_mttkrp_second_level(benchmark, impl):
    """Second-level node update alone: batched GEMM vs per-column GEMV."""
    node, facs = _node_problem()
    record_paper_context(
        benchmark,
        figure="fig7-dimtree",
        ablation="node-mttkrp",
        shape=list(node.shape),
        rank=_RANK,
        implementation=impl,
        threads=1,
    )
    if impl == "columnwise":
        benchmark(lambda: node_mttkrp_columnwise(node, facs, 0))
    else:
        with Workspace() as ws:
            benchmark(
                lambda: node_mttkrp(
                    node, facs, 0, num_threads=1, workspace=ws
                )
            )


@pytest.mark.parametrize("impl", ["columnwise", "batched"])
@pytest.mark.parametrize(
    "threads", [t for t in _THREADS if t > 1] or [2], ids=lambda t: f"T{t}"
)
def test_node_mttkrp_second_level_parallel(benchmark, impl, threads):
    """Same node update with the thread pool engaged (batched path only
    parallelizes; column-wise stays serial by construction)."""
    node, facs = _node_problem()
    record_paper_context(
        benchmark,
        figure="fig7-dimtree",
        ablation="node-mttkrp-parallel",
        shape=list(node.shape),
        rank=_RANK,
        implementation=impl,
        threads=threads,
    )
    if impl == "columnwise":
        benchmark(lambda: node_mttkrp_columnwise(node, facs, 0))
    else:
        with Workspace() as ws:
            benchmark(
                lambda: node_mttkrp(
                    node, facs, 0, num_threads=threads, workspace=ws
                )
            )
