"""Cross-cutting property-based tests (hypothesis).

These complement the per-module tests with randomized structural
invariants that tie several subsystems together: layout/view consistency,
algebraic identities of the contractions, and model algebra.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import mttkrp
from repro.core.krp import khatri_rao
from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import mode_products
from repro.tensor.matricize import unfold_explicit
from repro.tensor.ttv import ttv
from repro.util import prod

shapes = st.lists(st.integers(1, 5), min_size=2, max_size=5).map(tuple)


def _tensor(shape, seed=0):
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.standard_normal(shape))


def _factors(shape, rank, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((s, rank)) for s in shape]


class TestLayoutViewConsistency:
    @given(shapes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_blocks_reassemble_unfolding(self, shape, data):
        """mode_blocks_view stitched together equals the explicit
        mode-n matricization, for every mode of every shape."""
        n = data.draw(st.integers(0, len(shape) - 1))
        X = _tensor(shape, seed=data.draw(st.integers(0, 999)))
        blocks = X.mode_blocks_view(n)
        stitched = np.concatenate(list(blocks), axis=1)
        np.testing.assert_array_equal(stitched, unfold_explicit(X, n))

    @given(shapes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_unfold_front_refolds(self, shape, data):
        n = data.draw(st.integers(0, len(shape) - 1))
        X = _tensor(shape, seed=3)
        M = X.unfold_front(n)
        back = DenseTensor(M.ravel(order="F"), shape)
        assert back.allclose(X)

    @given(shapes)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_through_ndarray(self, shape):
        X = _tensor(shape, seed=5)
        again = DenseTensor(X.to_ndarray())
        np.testing.assert_array_equal(again.data, X.data)


class TestContractionAlgebra:
    @given(shapes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_ttv_linearity(self, shape, data):
        n = data.draw(st.integers(0, len(shape) - 1))
        X = _tensor(shape, seed=7)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(shape[n])
        v = rng.standard_normal(shape[n])
        a = ttv(X, u + 2.0 * v, n)
        b = ttv(X, u, n)
        c = ttv(X, v, n)
        if isinstance(a, DenseTensor):
            np.testing.assert_allclose(
                a.data, b.data + 2.0 * c.data, atol=1e-10
            )
        else:
            assert np.isclose(a, b + 2.0 * c)

    @given(shapes, st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_mttkrp_of_rank1_tensor(self, shape, rank, data):
        """MTTKRP of a rank-1 tensor a_0 o a_1 o ... has the closed form
        a_n * prod_{k != n} (a_k^T U_k) row-wise."""
        n = data.draw(st.integers(0, len(shape) - 1))
        rng = np.random.default_rng(11)
        vecs = [rng.standard_normal(s) for s in shape]
        from repro.tensor.generate import from_kruskal

        X = from_kruskal([v[:, None] for v in vecs])
        U = _factors(shape, rank, seed=12)
        expected = np.outer(
            vecs[n],
            np.prod(
                [vecs[k] @ U[k] for k in range(len(shape)) if k != n],
                axis=0,
            ),
        )
        np.testing.assert_allclose(mttkrp(X, U, n), expected, atol=1e-8)

    @given(shapes, st.data())
    @settings(max_examples=25, deadline=None)
    def test_mttkrp_definition_via_explicit_unfold(self, shape, data):
        """M == X_(n) @ K with the explicit unfold and full KRP — the
        textbook definition, against the no-reorder implementations."""
        n = data.draw(st.integers(0, len(shape) - 1))
        X = _tensor(shape, seed=13)
        U = _factors(shape, 3, seed=14)
        ops = [U[k] for k in range(len(shape) - 1, -1, -1) if k != n]
        expected = unfold_explicit(X, n) @ khatri_rao(ops)
        np.testing.assert_allclose(mttkrp(X, U, n), expected, atol=1e-9)


class TestModelAlgebra:
    @given(shapes, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_norm_identity(self, shape, rank):
        m = KruskalTensor(_factors(shape, rank, seed=15))
        assert np.isclose(m.norm(), m.full().norm(), rtol=1e-8)

    @given(shapes, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_inner_product_symmetric_roles(self, shape, rank):
        """<Y, X> via MTTKRP equals the dense dot product."""
        m = KruskalTensor(_factors(shape, rank, seed=16))
        X = _tensor(shape, seed=17)
        assert np.isclose(
            m.inner(X), float(m.full().data @ X.data), rtol=1e-8
        )

    @given(shapes, st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_normalize_preserves_tensor(self, shape, rank):
        m = KruskalTensor(
            _factors(shape, rank, seed=18),
            np.random.default_rng(19).standard_normal(rank),
        )
        assert m.normalize().full().allclose(m.full(), atol=1e-8)


class TestKrpStructure:
    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=4),
        st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_krp_row_count_and_rank1_columns(self, dims, C):
        rng = np.random.default_rng(20)
        mats = [rng.standard_normal((d, C)) for d in dims]
        K = khatri_rao(mats)
        assert K.shape == (prod(dims), C)
        # Each column is a Kronecker product of the columns => reshaping a
        # column into the dims grid gives a rank-1 multilinear array; check
        # via the matrix rank of one unfolding for 2 inputs.
        if len(dims) == 2 and min(dims) > 1:
            col = K[:, 0].reshape(dims)
            assert np.linalg.matrix_rank(col) == 1

    @given(shapes, st.data())
    @settings(max_examples=25, deadline=None)
    def test_products_consistent_with_blocks(self, shape, data):
        n = data.draw(st.integers(0, len(shape) - 1))
        p = mode_products(shape, n)
        X = _tensor(shape, seed=21)
        blocks = X.mode_blocks_view(n)
        assert blocks.shape == (p.right, p.size, p.left)
        assert p.total == X.size
