"""Model diagnostics: fit and factor match score (FMS).

The factor match score measures whether a fitted CP model recovered a
planted ground-truth model up to the CP ambiguities (component permutation
and per-mode scaling).  It is the standard recovery metric in the tensor
literature and is what the fMRI example uses to demonstrate that the
pipeline extracts the planted brain networks.
"""

from __future__ import annotations

import numpy as np

from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor

__all__ = ["fit_score", "factor_match_score", "congruence_matrix"]


def fit_score(model: KruskalTensor, tensor: DenseTensor) -> float:
    """Convenience alias for ``model.fit(tensor)``."""
    return model.fit(tensor)


def congruence_matrix(a: KruskalTensor, b: KruskalTensor) -> np.ndarray:
    """Pairwise component congruence between two models.

    Entry ``(r, s)`` is the product over modes of the cosine similarity
    between component ``r`` of ``a`` and component ``s`` of ``b`` —
    1.0 means the rank-1 terms are collinear.
    """
    if a.shape != b.shape:
        raise ValueError(
            f"models describe different tensor shapes: {a.shape} vs {b.shape}"
        )
    C = np.ones((a.rank, b.rank))
    for fa, fb in zip(a.factors, b.factors):
        na = np.linalg.norm(fa, axis=0)
        nb = np.linalg.norm(fb, axis=0)
        na = np.where(na > 0, na, 1.0)
        nb = np.where(nb > 0, nb, 1.0)
        C *= (fa / na).T @ (fb / nb)
    return C


def factor_match_score(
    estimated: KruskalTensor,
    reference: KruskalTensor,
    weight_penalty: bool = True,
) -> float:
    """Factor match score in ``[0, 1]`` (1 = exact recovery).

    Components are matched with the Hungarian algorithm on the absolute
    congruence matrix; the score averages the matched congruences,
    optionally penalized by relative weight mismatch (the standard FMS
    definition of Acar et al.).

    Parameters
    ----------
    estimated, reference:
        Models to compare; must have equal rank and tensor shape.
    weight_penalty:
        Multiply each matched congruence by
        ``1 - |w_est - w_ref| / max(w_est, w_ref)``.

    Needs scipy (``scipy.optimize.linear_sum_assignment``), which is not
    a runtime dependency of ``repro``: it is imported on the first call.
    """
    from scipy.optimize import linear_sum_assignment

    if estimated.rank != reference.rank:
        raise ValueError(
            f"rank mismatch: {estimated.rank} vs {reference.rank}"
        )
    est = estimated.normalize(sort=False)
    ref = reference.normalize(sort=False)
    C = np.abs(congruence_matrix(est, ref))
    row, col = linear_sum_assignment(-C)
    scores = C[row, col]
    if weight_penalty:
        we = np.abs(est.weights[row])
        wr = np.abs(ref.weights[col])
        denom = np.maximum(np.maximum(we, wr), np.finfo(float).tiny)
        scores = scores * (1.0 - np.abs(we - wr) / denom)
    return float(np.mean(scores))
