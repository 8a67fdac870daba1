"""Dense-tensor substrate.

Implements the *natural* (generalized column-major) tensor layout from the
paper and exposes every matricization the MTTKRP algorithms need as a
zero-copy numpy view:

* :class:`~repro.tensor.dense.DenseTensor` — a dense N-way tensor stored as
  a flat buffer with linearization ``l = sum_n i_n * I^L_n``;
* :mod:`~repro.tensor.layout` — index arithmetic (``I^L_n``, ``I^R_n``,
  multi-index increment, linearize/delinearize);
* :mod:`~repro.tensor.matricize` — explicit (reordering) unfoldings used by
  the baseline, and the view-based multi-mode matricizations;
* :mod:`~repro.tensor.ttv` — tensor-times-vector without reordering;
* :mod:`~repro.tensor.generate` — random and planted-CP tensor generators.
"""

from repro.tensor.dense import DenseTensor
from repro.tensor.generate import from_kruskal, random_tensor
from repro.tensor.layout import (
    MultiIndex,
    left_product,
    linearize,
    delinearize,
    mode_products,
    right_product,
)
from repro.tensor.matricize import unfold_explicit
from repro.tensor.ttv import multi_ttv, ttv

__all__ = [
    "DenseTensor",
    "MultiIndex",
    "left_product",
    "right_product",
    "mode_products",
    "linearize",
    "delinearize",
    "unfold_explicit",
    "ttv",
    "multi_ttv",
    "random_tensor",
    "from_kruskal",
]
