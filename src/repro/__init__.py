"""repro — shared-memory parallel MTTKRP for dense tensors.

A from-scratch Python reproduction of

    Hayashi, Ballard, Jiang, Tobia,
    "Shared-Memory Parallelization of MTTKRP for Dense Tensors",
    PPoPP 2018 (arXiv:1708.08976).

Public surface
--------------
Tensors and factor matrices:
    :class:`~repro.tensor.DenseTensor`, :func:`~repro.tensor.random_tensor`,
    :func:`~repro.tensor.from_kruskal`, :func:`~repro.tensor.ttv`,
    :func:`~repro.tensor.ttm`.

Khatri-Rao products (Algorithm 1):
    :func:`~repro.core.khatri_rao`, :func:`~repro.core.khatri_rao_parallel`,
    :func:`~repro.core.khatri_rao_naive`.

MTTKRP (Algorithms 2-4 and baselines):
    :func:`~repro.core.mttkrp` (dispatching entry point),
    :func:`~repro.core.mttkrp_onestep`, :func:`~repro.core.mttkrp_twostep`,
    :func:`~repro.core.mttkrp_baseline`.

CP decomposition:
    :func:`~repro.cpd.cp_als`, :class:`~repro.cpd.KruskalTensor`.

Thread control:
    :func:`~repro.parallel.set_num_threads`,
    :func:`~repro.parallel.num_threads` (context manager).

Quickstart
----------
>>> import numpy as np
>>> from repro import random_tensor, random_factors, mttkrp
>>> X = random_tensor((30, 40, 50), rng=0)
>>> U = random_factors(X.shape, rank=8, rng=1)
>>> M = mttkrp(X, U, n=1)        # 40 x 8, via the paper's 2-step algorithm
>>> M.shape
(40, 8)
"""

from repro.core import (
    khatri_rao,
    khatri_rao_naive,
    khatri_rao_parallel,
    mttkrp,
    mttkrp_baseline,
    mttkrp_onestep,
    mttkrp_twostep,
)
from repro.cpd import KruskalTensor, TuckerTensor, cp_als, cp_nnhals, hosvd
from repro.parallel import get_num_threads, num_threads, set_num_threads
from repro.tensor import (
    DenseTensor,
    from_kruskal,
    multi_ttv,
    random_tensor,
    ttm,
    ttv,
)
from repro.tensor.generate import random_factors

__version__ = "1.0.0"

__all__ = [
    "DenseTensor",
    "random_tensor",
    "random_factors",
    "from_kruskal",
    "ttv",
    "multi_ttv",
    "ttm",
    "khatri_rao",
    "khatri_rao_naive",
    "khatri_rao_parallel",
    "mttkrp",
    "mttkrp_onestep",
    "mttkrp_twostep",
    "mttkrp_baseline",
    "cp_als",
    "cp_nnhals",
    "hosvd",
    "KruskalTensor",
    "TuckerTensor",
    "set_num_threads",
    "get_num_threads",
    "num_threads",
    "__version__",
]
