"""Tests for the mttkrp dispatching entry point."""

import warnings

import numpy as np
import pytest

from repro.core.dispatch import MTTKRP_METHODS, mttkrp
from repro.tensor.generate import random_factors, random_tensor
from tests.conftest import mttkrp_oracle


def _case(shape=(4, 5, 6), rank=5, seed=0):
    return (
        random_tensor(shape, rng=seed),
        random_factors(shape, rank, rng=seed + 1),
    )


class TestDispatch:
    @pytest.mark.parametrize("method", [m for m in MTTKRP_METHODS])
    def test_every_method_correct_all_modes(self, method):
        X, U = _case()
        for n in range(3):
            np.testing.assert_allclose(
                mttkrp(X, U, n, method=method),
                mttkrp_oracle(X, U, n),
                atol=1e-10,
            )

    def test_auto_uses_paper_policy(self, monkeypatch):
        """auto = 1-step external, 2-step internal (Section 5.3.3)."""
        import dataclasses

        import repro.core.dispatch as d

        calls = []
        for name in ("onestep", "twostep"):
            monkeypatch.setitem(d.KERNELS, name, dataclasses.replace(
                d.KERNELS[name],
                entry=lambda *a, name=name, **k:
                    calls.append(name) or np.zeros((1, 1)),
            ))
        X, U = _case()
        for n in range(3):
            mttkrp(X, U, n, method="auto")
        assert calls == ["onestep", "twostep", "onestep"]

    def test_twostep_falls_back_for_external(self):
        # Explicit twostep on an external mode silently degenerates to
        # 1-step (the algorithms coincide there), rather than raising.
        X, U = _case()
        np.testing.assert_allclose(
            mttkrp(X, U, 0, method="twostep"),
            mttkrp_oracle(X, U, 0),
            atol=1e-10,
        )

    def test_twostep_external_warns_about_dropped_kwargs(self):
        # Regression: the degenerate path used to forward twostep-only
        # kwargs into mttkrp_onestep, raising TypeError — now it drops
        # them with a warning naming exactly what was ignored.
        X, U = _case()
        with pytest.warns(UserWarning, match=r"\['side'\]"):
            M = mttkrp(X, U, 0, method="twostep", side="left")
        np.testing.assert_allclose(M, mttkrp_oracle(X, U, 0), atol=1e-10)

    def test_twostep_external_no_warning_without_kwargs(self):
        X, U = _case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mttkrp(X, U, 0, method="twostep")

    def test_backend_argument_accepted(self):
        X, U = _case()
        np.testing.assert_allclose(
            mttkrp(X, U, 1, backend="thread"),
            mttkrp_oracle(X, U, 1),
            atol=1e-10,
        )
        with pytest.raises(ValueError, match="backend"):
            mttkrp(X, U, 1, backend="fpga")

    def test_unknown_method(self):
        X, U = _case()
        with pytest.raises(ValueError, match="unknown method"):
            mttkrp(X, U, 0, method="threestep")
        with pytest.raises(ValueError, match="unknown method"):
            mttkrp(X, U, 1, method="twostep:middle")

    def test_removed_blocked_method_is_rejected(self):
        # The cache-blocked kernel was deleted; its name must fail loudly
        # and point at the methods that exist.
        from repro.cpd.cp_als import cp_als

        X, U = _case()
        for call in (
            lambda: mttkrp(X, U, 1, method="blocked"),
            lambda: cp_als(X, 2, n_iter_max=1, method="blocked"),
        ):
            with pytest.raises(ValueError, match="unknown method") as info:
                call()
            for name in MTTKRP_METHODS:
                assert repr(name) in str(info.value)

    def test_negative_mode(self):
        X, U = _case()
        np.testing.assert_allclose(
            mttkrp(X, U, -1), mttkrp_oracle(X, U, 2), atol=1e-10
        )

    def test_kwargs_forwarded(self):
        X, U = _case()
        np.testing.assert_allclose(
            mttkrp(X, U, 1, method="twostep", side="left"),
            mttkrp_oracle(X, U, 1),
            atol=1e-10,
        )

    def test_rejects_plain_ndarray(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp(rng.random((3, 4, 5)), [], 1)

    def test_all_methods_agree_bitwise_shape(self):
        X, U = _case(rank=3)
        outs = [mttkrp(X, U, 1, method=m) for m in MTTKRP_METHODS]
        for o in outs:
            assert o.shape == (5, 3)
