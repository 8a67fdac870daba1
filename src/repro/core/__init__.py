"""The paper's primary contribution: KRP and MTTKRP algorithms.

* :mod:`~repro.core.krp` — row-wise Khatri-Rao product with reuse of
  partial Hadamard products (Algorithm 1), a naive variant, row-range
  evaluation, and a literal pseudocode transcription used as a test oracle;
* :mod:`~repro.core.krp_parallel` — the parallel KRP (contiguous row
  blocks per thread, Section 4.1.2);
* :mod:`~repro.core.mttkrp_onestep` — 1-step MTTKRP (Algorithms 2 and 3);
* :mod:`~repro.core.mttkrp_twostep` — 2-step MTTKRP (Algorithm 4);
* :mod:`~repro.core.mttkrp_baseline` — the explicit-reorder baseline and
  the DGEMM-only lower bound used in the paper's figures;
* :mod:`~repro.core.dispatch` — the kernel table and the per-mode
  algorithm selection used by CP-ALS (1-step for external modes, 2-step
  for internal modes);
* :mod:`~repro.core.flops` — exact flop/byte counts per algorithm phase
  (consumed by the machine model and the benchmark harness);
* :mod:`~repro.core.dimtree` — the cross-mode-reuse extension the paper's
  conclusion proposes (Phan et al. Section III.C): two shared partial
  contractions per CP-ALS iteration instead of one MTTKRP per mode.
"""

from repro.core.dimtree import (
    left_partial,
    node_mttkrp,
    right_partial,
    split_point,
)
from repro.core.dispatch import mttkrp
from repro.core.krp import (
    khatri_rao,
    khatri_rao_naive,
    krp_reference,
    krp_row,
    krp_rows,
)
from repro.core.krp_parallel import khatri_rao_parallel
from repro.core.mttkrp_baseline import mttkrp_baseline, mttkrp_gemm_lower_bound
from repro.core.mttkrp_onestep import mttkrp_onestep, mttkrp_onestep_sequential
from repro.core.mttkrp_twostep import mttkrp_twostep

__all__ = [
    "khatri_rao",
    "khatri_rao_naive",
    "khatri_rao_parallel",
    "krp_rows",
    "krp_row",
    "krp_reference",
    "mttkrp",
    "mttkrp_onestep",
    "mttkrp_onestep_sequential",
    "mttkrp_twostep",
    "mttkrp_baseline",
    "mttkrp_gemm_lower_bound",
    "left_partial",
    "right_partial",
    "node_mttkrp",
    "split_point",
]
