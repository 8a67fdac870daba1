"""Tests for .npz serialization of tensors and models."""

import numpy as np
import pytest

from repro.cpd.kruskal import KruskalTensor
from repro.io import load_model, load_tensor, save_model, save_tensor
from repro.tensor.generate import random_factors, random_tensor


class TestTensorRoundtrip:
    def test_roundtrip(self, tmp_path):
        X = random_tensor((4, 5, 6), rng=0)
        p = tmp_path / "x.npz"
        save_tensor(p, X)
        Y = load_tensor(p)
        assert Y.shape == X.shape
        assert Y.allclose(X)

    def test_rejects_ndarray(self, tmp_path, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            save_tensor(tmp_path / "x.npz", rng.random((3, 4)))

    def test_load_wrong_kind(self, tmp_path):
        m = KruskalTensor(random_factors((3, 4), 2, rng=0))
        p = tmp_path / "m.npz"
        save_model(p, m)
        with pytest.raises(ValueError, match="not a dense tensor"):
            load_tensor(p)


class TestModelRoundtrip:
    def test_kruskal_roundtrip(self, tmp_path):
        m = KruskalTensor(
            random_factors((4, 5, 6), 3, rng=1), np.array([3.0, 1.0, 2.0])
        )
        p = tmp_path / "k.npz"
        save_model(p, m)
        back = load_model(p)
        assert isinstance(back, KruskalTensor)
        np.testing.assert_array_equal(back.weights, m.weights)
        for a, b in zip(back.factors, m.factors):
            np.testing.assert_array_equal(a, b)

    def test_tucker_file_rejected(self, tmp_path):
        # A model kind this module does not write is foreign input and
        # is refused by name.
        p = tmp_path / "t.npz"
        np.savez_compressed(
            p,
            kind=np.array("tucker"),
            core_data=np.zeros(24),
            core_shape=np.array([2, 3, 4], dtype=np.int64),
            factor_0=np.zeros((5, 2)),
            factor_1=np.zeros((6, 3)),
            factor_2=np.zeros((7, 4)),
        )
        with pytest.raises(ValueError, match="unknown kind 'tucker'"):
            load_model(p)

    def test_many_modes_ordering(self, tmp_path):
        # factor_10 must not sort before factor_2 (numeric key ordering).
        shape = tuple([2] * 12)
        m = KruskalTensor(random_factors(shape, 2, rng=3))
        p = tmp_path / "wide.npz"
        save_model(p, m)
        back = load_model(p)
        assert back.shape == shape
        for a, b in zip(back.factors, m.factors):
            np.testing.assert_array_equal(a, b)

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError, match="must be a KruskalTensor, got ndarray"):
            save_model(tmp_path / "x.npz", np.zeros(3))

    def test_load_tensor_as_model(self, tmp_path):
        X = random_tensor((3, 4), rng=4)
        p = tmp_path / "x.npz"
        save_tensor(p, X)
        with pytest.raises(ValueError, match="unknown kind"):
            load_model(p)
