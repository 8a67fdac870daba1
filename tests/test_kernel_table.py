"""The kernel table is the one registry every MTTKRP surface reads.

Runtime checks for what the table promises by construction:

* every row (and every variant) records its analytic cost once, on its
  ``mttkrp.<name>`` span, with the exact counter values pinned below;
  the dimension-tree row keeps its flop/byte counters on its nested
  partial-GEMM, KRP and node spans and its lower bound on the row span;
* ``MTTKRP_METHODS``, the tuner's candidate set and the docs all follow
  the table, so adding a kernel is a one-row edit.
"""

from pathlib import Path

import pytest

import repro.obs as obs
from repro.core.dispatch import KERNELS, MTTKRP_METHODS, mttkrp
from repro.tensor.generate import random_factors, random_tensor
from repro.tune import candidate_set

SHAPE, RANK = (3, 4, 5, 2), 3
DOCS = Path(__file__).parent.parent / "docs" / "algorithms.md"

# (label, mode, threads) -> (flops, bytes_read, bytes_written,
# bytes_lower_bound) on the mttkrp.<name> span.
COST = {
    ("onestep", 0, 1): (870, 2424, 1272, 1296),
    ("onestep", 0, 2): (879, 2568, 1344, 1296),
    ("onestep", 1, 1): (840, 2712, 888, 1296),
    ("onestep", 1, 2): (852, 2904, 984, 1296),
    ("onestep", 2, 1): (828, 2328, 984, 1296),
    ("onestep", 2, 2): (843, 2568, 1104, 1296),
    ("onestep", 3, 1): (960, 3168, 1968, 1296),
    ("onestep", 3, 2): (966, 3264, 2016, 1296),
    # Algorithm 2 is sequential: its cost ignores the thread count.
    ("onestep-seq", 0, 1): (870, 2424, 1272, 1296),
    ("onestep-seq", 0, 2): (870, 2424, 1272, 1296),
    ("onestep-seq", 1, 1): (840, 2712, 888, 1296),
    ("onestep-seq", 1, 2): (840, 2712, 888, 1296),
    ("onestep-seq", 2, 1): (828, 2328, 984, 1296),
    ("onestep-seq", 2, 2): (828, 2328, 984, 1296),
    ("onestep-seq", 3, 1): (960, 3168, 1968, 1296),
    ("onestep-seq", 3, 2): (960, 3168, 1968, 1296),
    ("twostep:left", 1, 1): (822, 1800, 696, 1296),
    ("twostep:left", 1, 2): (822, 1800, 696, 1296),
    ("twostep:left", 2, 1): (816, 1752, 696, 1296),
    ("twostep:left", 2, 2): (816, 1752, 696, 1296),
    ("twostep:right", 1, 1): (822, 1800, 696, 1296),
    ("twostep:right", 1, 2): (822, 1800, 696, 1296),
    ("twostep:right", 2, 1): (816, 1752, 696, 1296),
    ("twostep:right", 2, 2): (816, 1752, 696, 1296),
    ("baseline", 0, 1): (870, 2424, 1272, 1296),
    ("baseline", 0, 2): (870, 2424, 1272, 1296),
    ("baseline", 1, 1): (840, 3120, 2016, 1296),
    ("baseline", 1, 2): (840, 3120, 2016, 1296),
    ("baseline", 2, 1): (816, 2904, 1848, 1296),
    ("baseline", 2, 2): (816, 2904, 1848, 1296),
    ("baseline", 3, 1): (960, 4128, 2928, 1296),
    ("baseline", 3, 2): (960, 4128, 2928, 1296),
}

# Rows without a cost kind: total flops over the nested spans.  For
# dimtree: partial KRP + partial GEMM (2 * 12 * 3 * 10 = 720 on either
# side of the 2+2 split) + node contraction; modes 0/1 use the right KRP
# (10 rows, 30 flops) and a 72-flop node, modes 2/3 the left KRP (12 rows,
# 36 flops) and a 60-flop node.
NESTED_FLOPS = {
    ("dimtree", 0): 30 + 720 + 72, ("dimtree", 1): 30 + 720 + 72,
    ("dimtree", 2): 36 + 720 + 60, ("dimtree", 3): 36 + 720 + 60,
}
# ... and the one lower bound every call records on its row span.
NESTED_LOWER_BOUND = 1296

CASES = [
    (spec, label, n, T)
    for spec in KERNELS.values()
    for label, _ in spec.labels()
    for n in range(len(SHAPE))
    if spec.eligible(SHAPE, n)
    for T in (1, 2)
]


@pytest.mark.parametrize(
    "spec,label,n,T", CASES,
    ids=[f"{label}-n{n}-T{T}" for _, label, n, T in CASES],
)
def test_traced_call_records_row_cost(spec, label, n, T):
    X = random_tensor(SHAPE, rng=0)
    U = random_factors(SHAPE, RANK, rng=1)
    tracer = obs.enable()
    try:
        mttkrp(X, U, n, method=label, num_threads=T)
    finally:
        obs.disable()
    (span,) = [s for s in tracer.spans() if s.name == f"mttkrp.{spec.name}"]
    nested = [s for s in tracer.spans() if s is not span]
    if spec.cost_kind is None:
        assert "flops" not in span.counters
        total = sum(s.counters.get("flops", 0.0) for s in nested)
        assert total == NESTED_FLOPS[(spec.name, n)]
        for key in ("bytes_read", "bytes_written"):
            assert sum(s.counters.get(key, 0.0) for s in nested) > 0
        assert span.counters["bytes_lower_bound"] == NESTED_LOWER_BOUND
        assert not any("bytes_lower_bound" in s.counters for s in nested)
        return
    counters = tuple(
        span.counters[key]
        for key in ("flops", "bytes_read", "bytes_written", "bytes_lower_bound")
    )
    assert counters == COST[(label, n, T)]
    # Recorded once, on the row's own span.
    assert not any("bytes_lower_bound" in s.counters for s in nested)


def test_every_pinned_case_is_a_table_row():
    pinned = {key[0] for key in COST} | {key[0] for key in NESTED_FLOPS}
    assert pinned == {label for _, label, _, _ in CASES}


def test_methods_are_the_table():
    assert MTTKRP_METHODS == ("auto", "autotune", *KERNELS)
    for name, spec in KERNELS.items():
        assert spec.name == name


def test_tuner_candidates_are_the_tunable_eligible_rows():
    for n in range(len(SHAPE)):
        labels = [c.label for c in candidate_set(SHAPE, n)]
        assert labels == [
            label
            for spec in KERNELS.values()
            if spec.tunable and spec.eligible(SHAPE, n)
            for label, _ in spec.labels()
        ]


def test_every_row_is_documented():
    text = DOCS.read_text(encoding="utf-8")
    for name in KERNELS:
        assert f"`{name}`" in text, f"docs/algorithms.md misses {name!r}"
