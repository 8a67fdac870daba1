"""CP decomposition substrate.

The paper's application layer: CP-ALS (Section 2.2) built on the MTTKRP
kernels, plus the Kruskal-tensor model object and diagnostics used by the
fMRI analysis examples.

* :mod:`~repro.cpd.kruskal` — :class:`KruskalTensor` (weights + factors);
* :mod:`~repro.cpd.gram` — Hadamard-of-Grams ``H = (*)_{k != n} U_k^T U_k``;
* :mod:`~repro.cpd.init` — random and HOSVD-flavoured initialization;
* :mod:`~repro.cpd.cp_als` — the alternating-least-squares driver with
  per-phase timing (per-iteration times are Figure 7's measurement);
* :mod:`~repro.cpd.diagnostics` — fit, factor match score, congruence.
"""

from repro.cpd.cp_als import CPALSResult, cp_als
from repro.cpd.diagnostics import factor_match_score, fit_score
from repro.cpd.gram import gram_matrices, hadamard_of_grams
from repro.cpd.init import initialize_factors
from repro.cpd.kruskal import KruskalTensor

__all__ = [
    "KruskalTensor",
    "cp_als",
    "CPALSResult",
    "gram_matrices",
    "hadamard_of_grams",
    "initialize_factors",
    "factor_match_score",
    "fit_score",
]
