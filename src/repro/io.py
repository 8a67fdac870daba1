"""Serialization: tensors and CP models to/from ``.npz`` files.

A downstream user running the fMRI pipeline needs to persist fitted models
(multiple random starts across sessions, Section 3) and occasionally whole
tensors.  The format is plain numpy ``.npz`` with a small schema:

* tensors: ``kind="dense-tensor"``, ``data`` (flat natural-layout buffer),
  ``shape``;
* Kruskal models: ``kind="kruskal"``, ``weights``, ``factor_0..N-1``.

Files written by this module are self-describing and load without any
pickle (``allow_pickle=False`` throughout — safe to share).
"""

from __future__ import annotations

import os

import numpy as np

from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_model",
    "load_model",
]


def save_tensor(path: str | os.PathLike, tensor: DenseTensor) -> None:
    """Write a :class:`DenseTensor` to ``path`` (``.npz``)."""
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    np.savez_compressed(
        path,
        kind=np.array("dense-tensor"),
        data=tensor.data,
        shape=np.array(tensor.shape, dtype=np.int64),
    )


def load_tensor(path: str | os.PathLike) -> DenseTensor:
    """Read a :class:`DenseTensor` written by :func:`save_tensor`."""
    with np.load(path, allow_pickle=False) as f:
        kind = str(f["kind"])
        if kind != "dense-tensor":
            raise ValueError(
                f"{path!s} holds a {kind!r}, not a dense tensor; "
                f"use load_model for models"
            )
        return DenseTensor(f["data"], tuple(int(s) for s in f["shape"]))


def save_model(path: str | os.PathLike, model: KruskalTensor) -> None:
    """Write a Kruskal model to ``path`` (``.npz``)."""
    if not isinstance(model, KruskalTensor):
        raise TypeError(
            f"model must be a KruskalTensor, got {type(model).__name__}"
        )
    arrays = {"kind": np.array("kruskal"), "weights": model.weights}
    for n, f in enumerate(model.factors):
        arrays[f"factor_{n}"] = np.asarray(f)
    np.savez_compressed(path, **arrays)


def load_model(path: str | os.PathLike) -> KruskalTensor:
    """Read a Kruskal model written by :func:`save_model`."""
    with np.load(path, allow_pickle=False) as f:
        kind = str(f["kind"])
        if kind != "kruskal":
            raise ValueError(f"{path!s} holds unknown kind {kind!r}")
        factor_keys = sorted(
            (k for k in f.files if k.startswith("factor_")),
            key=lambda k: int(k.split("_")[1]),
        )
        return KruskalTensor([f[k] for k in factor_keys], f["weights"])
