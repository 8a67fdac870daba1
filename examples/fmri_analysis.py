#!/usr/bin/env python
"""The paper's application (Section 3): extracting brain networks from a
dynamic-connectivity fMRI tensor with CP-ALS.

Pipeline (all synthetic, see DESIGN.md for the substitution argument):

1. generate a time x subject x region x region correlation tensor from
   planted networks (+ noise);
2. decompose the 4-way tensor with CP-ALS (by default each iteration
   runs the dimension tree: two partial contractions shared by all modes);
3. repeat on the paper's symmetric 3-way linearization
   (time x subject x region-pair);
4. verify the planted networks are recovered (factor match score) and
   compare per-iteration runtime against the Tensor-Toolbox-style
   reference — the Figure 7 measurement in miniature.

Run:  python examples/fmri_analysis.py
"""

import numpy as np

from repro.cpd.cp_als import cp_als
from repro.cpd.diagnostics import congruence_matrix, factor_match_score
from repro.data.fmri import synthetic_fmri
from repro.reference.tensor_toolbox import cp_als_ttb
from repro.tensor.generate import random_factors

N_TIME, N_SUBJECTS, N_REGIONS = 60, 16, 40
RANK = 4
SNR_DB = 25.0


def main() -> None:
    print("generating synthetic fMRI connectivity tensor "
          f"({N_TIME} x {N_SUBJECTS} x {N_REGIONS} x {N_REGIONS}, "
          f"rank {RANK}, {SNR_DB:.0f} dB SNR)")
    data = synthetic_fmri(
        N_TIME, N_SUBJECTS, N_REGIONS, rank=RANK, snr_db=SNR_DB, rng=0
    )

    # ------------------------------------------------------------------
    # 4-way decomposition.
    # ------------------------------------------------------------------
    res4 = cp_als(data.tensor, RANK, n_iter_max=150, tol=1e-9, rng=1)
    fms4 = factor_match_score(
        res4.model, data.ground_truth, weight_penalty=False
    )
    print(f"\n4-way CP-ALS: fit={res4.final_fit:.4f} "
          f"({res4.iterations} iters, "
          f"{res4.mean_iteration_time * 1e3:.1f} ms/iter)")
    print(f"  factor match score vs planted networks: {fms4:.3f}")

    # Which estimated component corresponds to which planted network?
    C = np.abs(congruence_matrix(res4.model, data.ground_truth))
    matches = C.argmax(axis=0)
    print("  per-network best congruence:",
          ", ".join(f"net{c}->est{matches[c]} ({C[matches[c], c]:.2f})"
                    for c in range(RANK)))

    # ------------------------------------------------------------------
    # 3-way (symmetric linearization, the paper's second analysis).
    # ------------------------------------------------------------------
    X3 = data.to_3way()
    print(f"\nsymmetric linearization: {data.tensor.shape} -> {X3.shape} "
          f"({data.tensor.size / X3.size:.2f}x fewer entries)")
    res3 = cp_als(X3, RANK, n_iter_max=150, tol=1e-9, rng=2)
    print(f"3-way CP-ALS: fit={res3.final_fit:.4f} "
          f"({res3.mean_iteration_time * 1e3:.1f} ms/iter)")

    # Time and subject factors should agree between the two analyses.
    sub_model_4 = type(res4.model)(
        [res4.model.factors[0], res4.model.factors[1]], res4.model.weights
    )
    sub_model_3 = type(res3.model)(
        [res3.model.factors[0], res3.model.factors[1]], res3.model.weights
    )
    agreement = factor_match_score(
        sub_model_4, sub_model_3, weight_penalty=False
    )
    print(f"  time/subject factor agreement (4-way vs 3-way): {agreement:.3f}")

    # ------------------------------------------------------------------
    # Runtime comparison against the Tensor-Toolbox-style reference
    # (Figure 7's per-iteration measurement, reduced scale).
    # ------------------------------------------------------------------
    print("\nper-iteration time, ours vs Tensor-Toolbox-style (3 iters):")
    init = random_factors(data.tensor.shape, RANK, rng=3)
    ours = cp_als(data.tensor, RANK, n_iter_max=3, tol=0.0, init=init)
    ttb = cp_als_ttb(data.tensor, RANK, n_iter_max=3, tol=0.0, init=init)
    t_ours = ours.mean_iteration_time
    t_ttb = ttb.mean_iteration_time
    print(f"  ours: {t_ours * 1e3:7.1f} ms/iter")
    print(f"  TTB : {t_ttb * 1e3:7.1f} ms/iter  "
          f"(speedup {t_ttb / t_ours:.1f}x)")
    # Identical math -> identical fits.
    assert np.allclose(ours.fits, ttb.fits, atol=1e-7)
    print("  (both drivers produced identical fit trajectories)")


if __name__ == "__main__":
    main()
