"""Public API surface checks: exports exist, are documented, and the
README/docstring quickstart works."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.tensor",
    "repro.parallel",
    "repro.cpd",
    "repro.reference",
    "repro.machine",
    "repro.data",
    "repro.bench",
    "repro.util",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip()


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        obj = getattr(mod, symbol)
        if callable(obj) or isinstance(obj, type):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__


def test_quickstart_from_docstring():
    from repro import mttkrp, random_factors, random_tensor

    X = random_tensor((30, 40, 50), rng=0)
    U = random_factors(X.shape, rank=8, rng=1)
    M = mttkrp(X, U, n=1)
    assert M.shape == (40, 8)


def test_doctests_in_layout_and_partition():
    import doctest

    import repro.parallel.partition as partition
    import repro.tensor.layout as layout

    for mod in (layout, partition):
        result = doctest.testmod(mod)
        assert result.failed == 0, f"doctest failures in {mod.__name__}"
        assert result.attempted > 0
