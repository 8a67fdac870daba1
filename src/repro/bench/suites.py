"""Registered benchmark suites: the registry's name → runner bindings.

Each runner measures a bounded, representative set of points for its
benchmark at the requested ``scale`` (volumetric fraction of the paper
workload) and returns normalized schema records.  Exhaustive sweeps
remain available through the figure drivers
(``python -m repro.bench.figures``); the registry's job is a *stable,
comparable* set of cases the trend tracker can diff across PRs.

Case ids are contract: ``repro.bench.trend`` matches history on
``(benchmark, case, host_class)``, so renaming a case silently orphans
its baselines.  Add cases freely; rename them only with a migration.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import (
    accumulation_mttkrp,
    run_cpals_point,
    run_krp_point,
    run_mttkrp_point,
    run_stream_point,
)
from repro.bench.registry import measure_case, register
from repro.bench.schema import record_from_point
from repro.data.fmri import synthetic_fmri
from repro.data.workloads import (
    FIG4_WORKLOADS,
    FIG5_WORKLOADS,
    FIG7_RANKS,
    FMRI_PAPER_4D,
    FMRI_REDUCED_4D,
    scaled_shape,
)
from repro.tensor.generate import random_factors, random_tensor

__all__: list[str] = []


def _mttkrp_algorithms(N: int, n: int) -> list[str]:
    algos = ["onestep"]
    if 0 < n < N - 1:
        algos.append("twostep")
    algos.append("gemm-baseline")
    return algos


# --------------------------------------------------------------------- #
# Paper figures
# --------------------------------------------------------------------- #


@register(
    "fig4",
    title="Figure 4: KRP reuse vs naive vs STREAM",
    tags=("figure", "krp"),
    default_scale=0.01,
)
def _run_fig4(scale, threads, repeats, rng):
    records = []
    for wl in FIG4_WORKLOADS:
        dims = wl.dims(scale)
        gen = np.random.default_rng(rng)
        mats = [gen.random((d, wl.C)) for d in dims]
        rows_total = int(np.prod([m.shape[0] for m in mats]))
        for T in threads:
            for schedule in ("reuse", "naive"):
                point = run_krp_point(mats, T, schedule, repeats)
                records.append(record_from_point(
                    "fig4",
                    f"Z{wl.Z}-C{wl.C}/{schedule}/T{T}",
                    point,
                    params={"Z": wl.Z, "C": wl.C, "rows": rows_total,
                            "threads": T, "schedule": schedule},
                ))
            stream = run_stream_point(rows_total, wl.C, T, repeats)
            records.append(record_from_point(
                "fig4",
                f"Z{wl.Z}-C{wl.C}/stream/T{T}",
                stream,
                params={"Z": wl.Z, "C": wl.C, "rows": rows_total,
                        "threads": T, "schedule": "stream"},
            ))
    return records


def _fig5_modes(N: int) -> list[int]:
    """One external plus one internal representative mode."""
    internal = N // 2 if 0 < N // 2 < N - 1 else (1 if N > 2 else 0)
    return sorted({0, internal})


@register(
    "fig5",
    title="Figure 5: MTTKRP 1-step/2-step/baseline vs threads",
    tags=("figure", "mttkrp"),
    default_scale=0.005,
)
def _run_fig5(scale, threads, repeats, rng):
    records = []
    for wl in FIG5_WORKLOADS:
        shape = wl.shape(scale)
        X = random_tensor(shape, rng=rng)
        U = random_factors(shape, wl.C, rng=rng + 1)
        for n in _fig5_modes(wl.N):
            for algo in _mttkrp_algorithms(wl.N, n):
                for T in threads:
                    point = run_mttkrp_point(X, U, n, algo, T, repeats)
                    records.append(record_from_point(
                        "fig5",
                        f"N{wl.N}/n{n}/{algo}/T{T}",
                        point,
                        params={"N": wl.N, "shape": list(shape),
                                "C": wl.C, "mode": n, "algorithm": algo,
                                "threads": T},
                    ))
    return records


def _breakdown_records(bench_id, shapes_and_names, C, threads, repeats, rng):
    records = []
    for shape, name in shapes_and_names:
        X = random_tensor(shape, rng=rng)
        U = random_factors(shape, C, rng=rng + 1)
        for n in range(len(shape)):
            for algo in _mttkrp_algorithms(len(shape), n):
                for T in threads:
                    point = run_mttkrp_point(X, U, n, algo, T, repeats)
                    records.append(record_from_point(
                        bench_id,
                        f"{name}/n{n}/{algo}/T{T}",
                        point,
                        params={"workload": name, "shape": list(shape),
                                "C": C, "mode": n, "algorithm": algo,
                                "threads": T},
                    ))
    return records


@register(
    "fig6",
    title="Figure 6: MTTKRP phase breakdown, N=3..6",
    tags=("figure", "mttkrp", "breakdown"),
    default_scale=0.002,
)
def _run_fig6(scale, threads, repeats, rng):
    shapes = [(wl.shape(scale), f"N{wl.N}") for wl in FIG5_WORKLOADS]
    return _breakdown_records("fig6", shapes, 25, threads, repeats, rng)


def _fmri_shapes(paper: bool) -> list[tuple[tuple[int, ...], str]]:
    dims = FMRI_PAPER_4D if paper else FMRI_REDUCED_4D
    t, s, r, _ = dims
    pairs = r * (r - 1) // 2
    return [((t, s, pairs), "3D"), (dims, "4D")]


@register(
    "fig7",
    title="Figure 7: CP-ALS per-iteration time vs TTB reference",
    tags=("figure", "cpals"),
    default_scale=0.1,
)
def _run_fig7(scale, threads, repeats, rng):
    t, s, r, _ = FMRI_PAPER_4D if scale >= 1.0 else FMRI_REDUCED_4D
    data = synthetic_fmri(t, s, r, rank=5, rng=rng)
    tensors = [(data.to_3way(), "3D"), (data.tensor, "4D")]
    ranks = (min(FIG7_RANKS), max(FIG7_RANKS))
    records = []
    for X, kind in tensors:
        for rank in ranks:
            for impl in ("repro", "dimtree", "ttb"):
                for T in threads:
                    point = run_cpals_point(
                        X, rank, impl, T, iterations=max(repeats, 2), rng=rng
                    )
                    records.append(record_from_point(
                        "fig7",
                        f"{kind}/C{rank}/{impl}/T{T}",
                        point,
                        params={"tensor": kind, "shape": list(X.shape),
                                "rank": rank, "implementation": impl,
                                "threads": T},
                    ))
    return records


@register(
    "fig8",
    title="Figure 8: MTTKRP phase breakdown on the fMRI tensors",
    tags=("figure", "mttkrp", "breakdown"),
    default_scale=0.1,
)
def _run_fig8(scale, threads, repeats, rng):
    return _breakdown_records(
        "fig8", _fmri_shapes(paper=scale >= 1.0), 25, threads, repeats, rng
    )


# --------------------------------------------------------------------- #
# Dimension tree (PR 4)
# --------------------------------------------------------------------- #


@register(
    "dimtree",
    title="Dimension-tree CP-ALS vs per-mode; batched vs column-wise node MTTKRP",
    tags=("cpals", "dimtree"),
    default_scale=0.1,
)
def _run_dimtree(scale, threads, repeats, rng):
    from repro.core.dimtree import (
        left_partial,
        node_mttkrp,
        node_mttkrp_columnwise,
        split_point,
    )
    from repro.cpd.cp_als import cp_als
    from repro.parallel.workspace import Workspace

    rank = 20
    t, s, r, _ = FMRI_PAPER_4D if scale >= 1.0 else FMRI_REDUCED_4D
    data = synthetic_fmri(t, s, r, rank=5, rng=rng)
    tensors = [(data.to_3way(), "3D"), (data.tensor, "4D")]
    records = []
    for X, kind in tensors:
        init = random_factors(X.shape, rank, rng=rng + 1)
        for strategy in ("per-mode", "dimtree"):
            for T in threads:
                def one_iteration(X=X, init=init, T=T, strategy=strategy):
                    cp_als(X, rank, n_iter_max=1, tol=0.0, init=init,
                           num_threads=T, mode_strategy=strategy)

                records.append(measure_case(
                    "dimtree",
                    f"cpals-{kind}/{strategy}/T{T}",
                    one_iteration,
                    params={"tensor": kind, "shape": list(X.shape),
                            "rank": rank, "strategy": strategy, "threads": T},
                    repeats=repeats,
                ))
    # Second level in isolation: one warm left-partial node of the 4-way.
    X4 = data.tensor
    m = split_point(X4.ndim)
    factors = random_factors(X4.shape, rank, rng=rng + 2)
    node = left_partial(X4, factors, m, num_threads=1)
    facs = factors[:m]
    records.append(measure_case(
        "dimtree", "node/columnwise",
        lambda: node_mttkrp_columnwise(node, facs, 0),
        params={"shape": list(node.shape), "rank": rank,
                "implementation": "columnwise", "threads": 1},
        repeats=repeats,
    ))
    with Workspace() as ws:
        records.append(measure_case(
            "dimtree", "node/batched",
            lambda: node_mttkrp(node, facs, 0, num_threads=1, workspace=ws),
            params={"shape": list(node.shape), "rank": rank,
                    "implementation": "batched", "threads": 1},
            repeats=repeats,
        ))
        for T in [t for t in threads if t > 1]:
            records.append(measure_case(
                "dimtree", f"node/batched/T{T}",
                lambda T=T: node_mttkrp(
                    node, facs, 0, num_threads=T, workspace=ws),
                params={"shape": list(node.shape), "rank": rank,
                        "implementation": "batched", "threads": T},
                repeats=repeats,
            ))
    return records


# --------------------------------------------------------------------- #
# Autotuner economics (PR 5)
# --------------------------------------------------------------------- #


@register(
    "autotune",
    title="Autotuner economics: cold tuning cost, warm hit, policy vs pick",
    tags=("tune",),
    default_scale=1.0,
)
def _run_autotune(scale, threads, repeats, rng):
    from repro.core.dispatch import mttkrp
    from repro.tune import TuningCache, autotune

    shape = scaled_shape((48, 32, 24), scale)
    rank = 16
    T = max(threads)
    X = random_tensor(shape, rng=rng)
    U = random_factors(shape, rank, rng=rng + 1)
    records = []

    def cold():
        cache = TuningCache(None)  # fresh every round: always a miss
        autotune(X, U, 1, num_threads=T, cache=cache, repeats=1)

    records.append(measure_case(
        "autotune", "cold",
        cold,
        params={"shape": list(shape), "rank": rank, "threads": T},
        repeats=repeats,
    ))

    warm_cache = TuningCache(None)
    pick = autotune(X, U, 1, num_threads=T, cache=warm_cache, repeats=1)
    records.append(measure_case(
        "autotune", "warm",
        lambda: autotune(X, U, 1, num_threads=T, cache=warm_cache),
        params={"shape": list(shape), "rank": rank, "threads": T,
                "pick": pick.label},
        repeats=repeats,
    ))

    for method in ("auto", "autotune"):
        if method == "autotune":
            mttkrp(X, U, 1, method="autotune", num_threads=T)  # warm the cache
        records.append(measure_case(
            "autotune", f"policy/{method}",
            lambda method=method: mttkrp(X, U, 1, method=method, num_threads=T),
            params={"shape": list(shape), "rank": rank, "threads": T,
                    "method": method},
            repeats=repeats,
        ))
    return records


# --------------------------------------------------------------------- #
# Parallel-runtime substrate (PR 2)
# --------------------------------------------------------------------- #


@register(
    "pool-overhead",
    title="Pool substrate: region launch, reduction, parallel KRP, "
          "static vs dynamic schedule",
    tags=("parallel",),
    default_scale=1.0,
    default_repeats=5,
)
def _run_pool_overhead(scale, threads, repeats, rng):
    from repro.core.krp_parallel import khatri_rao_parallel
    from repro.parallel.pool import get_pool
    from repro.parallel.reduction import allocate_private, parallel_reduce

    records = []
    multi = [t for t in threads if t > 1] or [2]
    for T in multi:
        pool = get_pool(T)
        records.append(measure_case(
            "pool-overhead", f"region-launch/T{T}",
            lambda pool=pool, T=T: pool.parallel_for(lambda t, a, b: None, T),
            params={"threads": T}, repeats=repeats,
        ))
        buffers = allocate_private(T, (256, 25))

        def reduce_kernel(buffers=buffers, pool=pool):
            buffers[:] = 1.0
            parallel_reduce(buffers, pool)

        records.append(measure_case(
            "pool-overhead", f"reduce/T{T}",
            reduce_kernel,
            params={"threads": T, "buffer": [256, 25]}, repeats=repeats,
        ))
    T = max(multi)
    gen = np.random.default_rng(rng)
    mats = [gen.standard_normal((48, 16)) for _ in range(3)]
    records.append(measure_case(
        "pool-overhead", f"krp/T{T}",
        lambda: khatri_rao_parallel(mats, num_threads=T),
        params={"threads": T, "Z": 3, "C": 16}, repeats=repeats,
    ))
    # Static vs dynamic schedule on skewed work: item i costs O(i), the
    # worst case for contiguous static blocks.
    pool = get_pool(T)
    n_items = 64
    skewed = [np.ones((64 * (i + 1), 16)) for i in range(n_items)]
    sums = [np.empty(16) for _ in range(n_items)]

    def column_sums(t, start, stop):
        for i in range(start, stop):
            sums[i][:] = skewed[i].sum(axis=0)

    for schedule, chunk in (("static", None), ("dynamic", 2)):
        records.append(measure_case(
            "pool-overhead", f"schedule/{schedule}/T{T}",
            lambda schedule=schedule, chunk=chunk: pool.parallel_for(
                column_sums, n_items, schedule=schedule, chunk=chunk),
            params={"threads": T, "items": n_items, "schedule": schedule},
            repeats=repeats,
        ))
    return records


# --------------------------------------------------------------------- #
# Design ablations
# --------------------------------------------------------------------- #


@register(
    "ablations",
    title="Design ablations: 2-step side rule, 1-step KRP streaming, "
          "KRP reuse depth, private vs locked accumulation",
    tags=("ablation",),
    default_scale=0.1,
)
def _run_ablations(scale, threads, repeats, rng):
    from repro.core.dispatch import KERNELS
    from repro.core.krp_parallel import khatri_rao_parallel
    from repro.core.mttkrp_twostep import choose_side

    records = []
    skewed = scaled_shape((40, 80, 400), 25 * scale * 0.004)
    X = random_tensor(skewed, rng=rng)
    U = random_factors(skewed, 16, rng=rng + 1)
    rule = choose_side(skewed, 1)
    for side in ("auto", "left", "right"):
        records.append(measure_case(
            "ablations", f"twostep-side/{side}",
            lambda side=side: KERNELS["twostep"].run(
                X, U, 1, side=side, num_threads=1),
            params={"shape": list(skewed), "rank": 16, "side": side,
                    "rule_choice": rule, "threads": 1},
            repeats=repeats,
        ))
    # Sequential-variant ablation at T=1: the straightforward baseline
    # (explicit reorder + full KRP), Algorithm 2 ("onestep-seq",
    # materializing the full KRP), and Algorithm 3 ("onestep", streaming
    # KRP blocks) — the paper's motivation for the 1-step reformulation.
    for method in ("baseline", "onestep-seq", "onestep"):
        records.append(measure_case(
            "ablations", f"seq-variant/{method}",
            lambda spec=KERNELS[method]: spec.run(X, U, 1, num_threads=1),
            params={"shape": list(skewed), "rank": 16, "method": method,
                    "threads": 1},
            repeats=repeats,
        ))
    rows = max(int(2e7 * scale * 0.004), 16)
    d = max(int(round(rows ** 0.25)), 2)
    gen = np.random.default_rng(rng + 2)
    mats = [gen.random((d, 25)) for _ in range(4)]
    for schedule in ("reuse", "naive"):
        records.append(measure_case(
            "ablations", f"krp-depth4/{schedule}",
            lambda schedule=schedule: khatri_rao_parallel(
                mats, num_threads=1, schedule=schedule),
            params={"Z": 4, "C": 25, "rows": d ** 4, "schedule": schedule,
                    "threads": 1},
            repeats=repeats,
        ))
    # Accumulation (DESIGN decision 5): private outputs plus a tree
    # reduction vs one shared output under a lock, on an internal mode.
    T = max([t for t in threads if t > 1] or [2])
    acc_shape = scaled_shape((60,) * 5, 8 * scale * 0.004)
    Xa = random_tensor(acc_shape, rng=rng + 3)
    Ua = random_factors(acc_shape, 25, rng=rng + 4)
    for strategy in ("private", "locked"):
        records.append(measure_case(
            "ablations", f"accumulation/{strategy}/T{T}",
            lambda strategy=strategy: accumulation_mttkrp(
                Xa, Ua, 2, strategy, T),
            params={"shape": list(acc_shape), "rank": 25, "mode": 2,
                    "strategy": strategy, "threads": T},
            repeats=repeats,
        ))
    return records


# --------------------------------------------------------------------- #
# Batched small-tensor engine (PR 9)
# --------------------------------------------------------------------- #


@register(
    "batch",
    title="Batched fleet engine: stacked MTTKRP vs per-item loop, fleet CP-ALS",
    tags=("mttkrp", "cpals", "batch"),
    default_scale=1.0,
)
def _run_batch(scale, threads, repeats, rng):
    """Fleet cases at B in {16, 64, 256} (scaled) over one small shape.

    The ``per-item`` case is the pre-batching baseline — ``B`` separate
    dispatch calls — so the stacked/per-item ratio is the amortization
    the engine exists to deliver.
    """
    from repro.batch import BatchedTensor, cp_als_batched, mttkrp_batched
    from repro.core.dispatch import mttkrp
    from repro.parallel.workspace import Workspace
    from repro.util import prod

    shape, rank, mode = (10, 9, 8), 8, 1
    gen = np.random.default_rng(rng)
    records = []
    sizes = sorted({max(int(round(b * scale)), 2) for b in (16, 64, 256)})
    T = max(threads)
    for B in sizes:
        bt = BatchedTensor(gen.standard_normal((B, prod(shape))), shape)
        factors = [gen.standard_normal((B, s, rank)) for s in shape]
        items = [bt.item(b) for b in range(B)]
        item_factors = [[f[b] for f in factors] for b in range(B)]
        with Workspace() as ws:
            for method in ("batched", "batched-loop"):
                records.append(measure_case(
                    "batch", f"mttkrp/B{B}/{method}",
                    lambda method=method, bt=bt, factors=factors, ws=ws:
                        mttkrp_batched(
                            bt, factors, mode, method=method, workspace=ws
                        ),
                    params={"shape": list(shape), "rank": rank,
                            "mode": mode, "batch": B, "method": method,
                            "threads": 1},
                    repeats=repeats,
                ))

        def per_item_loop(items=items, item_factors=item_factors):
            for X, U in zip(items, item_factors):
                mttkrp(X, U, mode, method="onestep", num_threads=1)

        records.append(measure_case(
            "batch", f"mttkrp/B{B}/per-item",
            per_item_loop,
            params={"shape": list(shape), "rank": rank, "mode": mode,
                    "batch": B, "method": "per-item", "threads": 1},
            repeats=repeats,
        ))

    # Fleet CP-ALS throughput: decompositions per second at a fixed
    # sweep count (tol<=0 disables early stopping so every item does
    # identical work).
    B = sizes[-1]
    bt = BatchedTensor(gen.standard_normal((B, prod(shape))), shape)
    iters = 5
    record = measure_case(
        "batch", f"cpals/B{B}",
        lambda bt=bt: cp_als_batched(
            bt, rank, n_iter_max=iters, tol=-1.0,
            rng=np.random.default_rng(0), num_threads=T,
        ),
        params={"shape": list(shape), "rank": rank, "batch": B,
                "iterations": iters, "threads": T},
        repeats=max(repeats, 2),
    )
    seconds = record["timing"]["min_s"]
    if seconds > 0:
        record.setdefault("counters", {})["decompositions_per_second"] = (
            B / seconds
        )
    records.append(record)
    return records


# --------------------------------------------------------------------- #
# Decomposition service (PR 10)
# --------------------------------------------------------------------- #


@register(
    "serve",
    title="Decomposition service: job throughput and latency, solo vs "
          "coalesced",
    tags=("serve", "cpals", "batch"),
    default_scale=1.0,
    default_repeats=3,
)
def _run_serve(scale, threads, repeats, rng):
    """Burst-of-jobs cases through a live :class:`JobServer`.

    Each case submits one burst of identical-class tiny jobs and waits
    for every result, once with the coalescing scheduler off (``solo`` —
    every job is its own dispatch) and once on (``coalesced`` — the
    burst rides few fleet invocations).  The measured quantity is the
    full service path: admission, queueing, dispatch, worker compute,
    result marshalling.  Counters carry jobs/s plus the server's own
    wait/run latency percentiles, and the burst size doubles as the
    experienced queue depth (``params["burst"]``).
    """
    from repro.serve import JobServer, JobSpec, ServeConfig
    from repro.tensor.dense import DenseTensor

    shape, rank, iters = (6, 5, 4), 4, 3
    gen = np.random.default_rng(rng)
    bursts = sorted({max(int(round(b * scale)), 2) for b in (8, 32)})
    records = []
    for burst in bursts:
        tensors = [
            DenseTensor(gen.standard_normal(shape)) for _ in range(burst)
        ]
        for mode, batching in (("solo", False), ("coalesced", True)):
            with JobServer(ServeConfig(
                workers=2, queue_depth=burst + 1, batching=batching,
                batch_limit=burst, progress_every=0,
            )) as server:

                def one_burst(server=server, tensors=tensors):
                    handles = [
                        server.submit(JobSpec(
                            rank=rank, tensor=t, seed=i, n_iter_max=iters,
                            tol=-1.0,
                        ))
                        for i, t in enumerate(tensors)
                    ]
                    for handle in handles:
                        handle.result(timeout=300.0)

                record = measure_case(
                    "serve", f"burst/{mode}/B{burst}",
                    one_burst,
                    params={"shape": list(shape), "rank": rank,
                            "burst": burst, "mode": mode,
                            "iterations": iters, "workers": 2},
                    repeats=repeats,
                )
                stats = server.stats()
                seconds = record["timing"]["min_s"]
                counters = record.setdefault("counters", {})
                if seconds > 0:
                    counters["jobs_per_second"] = burst / seconds
                for key in ("wait_p50", "wait_p99", "run_p50", "run_p99"):
                    counters[key] = stats[key]
                counters["coalesced_jobs"] = float(stats["coalesced_jobs"])
                records.append(record)
    return records
