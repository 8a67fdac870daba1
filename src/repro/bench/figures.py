"""Per-figure experiment drivers: regenerate every figure of the paper.

Each ``figN()`` function produces the paper's figure as text tables, in up
to two flavours:

* **measured** — runs the registry suite of the same name
  (:mod:`repro.bench.suites`) on this host at a reduced scale
  (``--scale``, volumetric fraction of the paper's workload; default the
  suite's own) over the requested thread counts, and renders its
  records;
* **modeled** — evaluates the calibrated analytical model of the paper's
  12-core machine (:func:`repro.machine.model.paper_machine`) at the
  paper's full scale, thread counts 1..12.

Run as a CLI::

    python -m repro.bench.figures fig4 --scale 0.02
    python -m repro.bench.figures all  --scale 0.002 --threads 1 2 4
    python -m repro.bench.figures fig7 --no-measured

The EXPERIMENTS.md in the repository root records one full run of each.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Sequence

from repro.bench.registry import get_spec, run_benchmark
from repro.bench.suites import _fmri_shapes, _mttkrp_algorithms
from repro.data.workloads import FIG4_WORKLOADS, FIG5_WORKLOADS, FIG7_RANKS
from repro.machine.model import paper_machine
from repro.machine.predict import (
    predict_algorithm_time,
    predict_krp_time,
    predict_stream_time,
)
from repro.util import human_count, prod

__all__ = ["fig4", "fig5", "fig6", "fig7", "fig8", "main"]

_PAPER_THREADS = (1, 2, 4, 6, 8, 10, 12)


def _fmt_row(cells: Iterable[str], widths: Sequence[int]) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


def _print_table(
    title: str, header: list[str], rows: list[list[str]], out=None
) -> None:
    out = out or sys.stdout
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print(f"\n{title}", file=out)
    print(_fmt_row(header, widths), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for r in rows:
        print(_fmt_row(r, widths), file=out)


def _measure(
    name: str,
    scale: float | None,
    threads: Sequence[int],
    repeats: int | None,
    rng: int,
) -> tuple[dict[str, dict], float]:
    """Run suite ``name``: its records by case id, and the scale it ran at."""
    records = run_benchmark(
        name, scale=scale, threads=threads, repeats=repeats, rng=rng
    )
    return {r["case"]: r for r in records}, records[0]["context"]["scale"]


def _seconds(record: dict, stat: str = "median_s") -> float:
    return record["timing"][stat]


# --------------------------------------------------------------------- #
# Figure 4: KRP — Reuse vs Naive vs STREAM over threads
# --------------------------------------------------------------------- #


def fig4(
    scale: float | None = None,
    threads: Sequence[int] = (1,),
    repeats: int | None = None,
    measured: bool = True,
    modeled: bool = True,
    rng: int = 0,
    plot: bool = False,
    out=None,
) -> None:
    """Figure 4: time of Algorithm 1 vs naive KRP vs STREAM."""
    out = out or sys.stdout
    if measured:
        cases, scale = _measure("fig4", scale, threads, repeats, rng)
        for wl in FIG4_WORKLOADS:
            table = []
            for T in threads:
                # The paper's KRP protocol reports the mean.
                r, n, s = (
                    _seconds(cases[f"Z{wl.Z}-C{wl.C}/{sched}/T{T}"], "mean_s")
                    for sched in ("reuse", "naive", "stream")
                )
                table.append(
                    [T, f"{r:.4f}", f"{n:.4f}", f"{s:.4f}", f"{n / r:.2f}x"]
                )
            _print_table(
                f"[Fig 4, measured] KRP {wl.label}, "
                f"J={human_count(prod(wl.dims(scale)))} rows (scale={scale})",
                ["T", "reuse(s)", "naive(s)", "STREAM(s)", "naive/reuse"],
                table,
                out,
            )
    if modeled:
        m = paper_machine()
        for wl in FIG4_WORKLOADS:
            dims = wl.dims(1.0)
            rows_total = prod(dims)
            table = []
            series: dict[str, list[float]] = {
                f"{wl.Z}-Reuse": [],
                f"{wl.Z}-Naive": [],
                "STREAM": [],
            }
            for T in _PAPER_THREADS:
                tr = predict_krp_time(m, dims, wl.C, T, "reuse")
                tn = predict_krp_time(m, dims, wl.C, T, "naive")
                ts = predict_stream_time(m, rows_total * wl.C, T)
                series[f"{wl.Z}-Reuse"].append(tr)
                series[f"{wl.Z}-Naive"].append(tn)
                series["STREAM"].append(ts)
                table.append(
                    [
                        T,
                        f"{tr:.3f}",
                        f"{tn:.3f}",
                        f"{ts:.3f}",
                        f"{tn / tr:.2f}x",
                    ]
                )
            _print_table(
                f"[Fig 4, modeled: paper machine] KRP {wl.label}, "
                f"J={human_count(rows_total)} rows",
                ["T", "reuse(s)", "naive(s)", "STREAM(s)", "naive/reuse"],
                table,
                out,
            )
            if plot:
                from repro.bench.plot import line_chart

                print(
                    "\n"
                    + line_chart(
                        f"Fig 4 (modeled): KRP time vs threads, {wl.label}",
                        _PAPER_THREADS,
                        series,
                    ),
                    file=out,
                )


# --------------------------------------------------------------------- #
# Figure 5: MTTKRP scaling; Figure 6: breakdown
# --------------------------------------------------------------------- #


def fig5(
    scale: float | None = None,
    threads: Sequence[int] = (1,),
    repeats: int | None = None,
    measured: bool = True,
    modeled: bool = True,
    rng: int = 0,
    plot: bool = False,
    out=None,
) -> None:
    """Figure 5: 1-step / 2-step / baseline MTTKRP time vs threads."""
    out = out or sys.stdout
    if measured:
        cases, scale = _measure("fig5", scale, threads, repeats, rng)
        for wl in FIG5_WORKLOADS:
            shape = wl.shape(scale)
            rows = [
                [f"n={n}", algo]
                + [
                    f"{_seconds(cases[f'N{wl.N}/n{n}/{algo}/T{T}']):.4f}"
                    for T in threads
                ]
                for n in range(wl.N)
                for algo in _mttkrp_algorithms(wl.N, n)
            ]
            _print_table(
                f"[Fig 5, measured] {wl.label} scaled to shape {shape} "
                f"({human_count(prod(shape))} entries)",
                ["mode", "algorithm"] + [f"T={T}(s)" for T in threads],
                rows,
                out,
            )
    if modeled:
        m = paper_machine()
        for wl in FIG5_WORKLOADS:
            shape = wl.shape(1.0)
            rows = []
            for n in range(wl.N):
                for algo in _mttkrp_algorithms(wl.N, n):
                    cells = [f"n={n}", algo]
                    for T in _PAPER_THREADS:
                        t, _ = predict_algorithm_time(m, shape, n, wl.C, T, algo)
                        cells.append(f"{t:.3f}")
                    rows.append(cells)
            _print_table(
                f"[Fig 5, modeled: paper machine] {wl.label}",
                ["mode", "algorithm"] + [f"T={T}(s)" for T in _PAPER_THREADS],
                rows,
                out,
            )
            if plot:
                from repro.bench.plot import line_chart

                n_mid = wl.N // 2  # representative internal mode
                series = {
                    algo: [
                        predict_algorithm_time(
                            m, shape, n_mid, wl.C, T, algo
                        )[0]
                        for T in _PAPER_THREADS
                    ]
                    for algo in ("onestep", "twostep", "gemm-baseline")
                }
                print(
                    "\n"
                    + line_chart(
                        f"Fig 5 (modeled): MTTKRP time vs threads, "
                        f"{wl.label}, mode {n_mid}",
                        _PAPER_THREADS,
                        series,
                    ),
                    file=out,
                )


_PHASE_ORDER = ["reorder", "full_krp", "lr_krp", "gemm", "gemv", "reduce"]


def _phase_cells(phases: dict[str, float]) -> list[str]:
    return [
        f"{phases.get(ph, 0.0):.4f}" if ph in phases else "-"
        for ph in _PHASE_ORDER
    ]


def _measured_breakdown(
    figure_name: str,
    cases: dict[str, dict],
    shapes: list[tuple[tuple[int, ...], str, str]],
    threads: Sequence[int],
    out,
) -> None:
    """Figure 6/8 measured tables from suite records.

    ``shapes`` holds ``(shape, case prefix, display name)`` per tensor.
    """
    for shape, prefix, name in shapes:
        for T in threads:
            rows = []
            for n in range(len(shape)):
                for algo in _mttkrp_algorithms(len(shape), n):
                    record = cases[f"{prefix}/n{n}/{algo}/T{T}"]
                    rows.append(
                        [f"n={n}", algo, f"{_seconds(record):.4f}"]
                        + _phase_cells(record.get("phases", {}))
                    )
            C = cases[f"{prefix}/n0/onestep/T{T}"]["params"]["C"]
            _print_table(
                f"[{figure_name}, measured] {name} shape={shape}, "
                f"C={C}, T={T}",
                ["mode", "algorithm", "total(s)"] + _PHASE_ORDER,
                rows,
                out,
            )


def _modeled_breakdown(
    figure_name: str,
    shapes_and_names: list[tuple[tuple[int, ...], str]],
    out,
    plot: bool = False,
) -> None:
    """Figure 6/8 tables of the paper machine's model at T = 1 and 12."""
    C = 25
    m = paper_machine()
    for shape, name in shapes_and_names:
        for T in (1, 12):
            rows = []
            bars = {}
            for n in range(len(shape)):
                for algo in _mttkrp_algorithms(len(shape), n):
                    total, phases = predict_algorithm_time(
                        m, shape, n, C, T, algo
                    )
                    rows.append(
                        [f"n={n}", algo, f"{total:.3f}"]
                        + _phase_cells(phases)
                    )
                    short = {"onestep": "1S", "twostep": "2S",
                             "gemm-baseline": "B"}[algo]
                    bars[f"n={n} {short}"] = phases
            _print_table(
                f"[{figure_name}, modeled: paper machine] {name} "
                f"shape={shape}, C={C}, T={T}",
                ["mode", "algorithm", "total(s)"] + _PHASE_ORDER,
                rows,
                out,
            )
            if plot:
                from repro.bench.plot import stacked_bar_chart

                print(
                    "\n"
                    + stacked_bar_chart(
                        f"{figure_name} (modeled): phase breakdown, "
                        f"{name}, T={T}",
                        bars,
                    ),
                    file=out,
                )


def fig6(
    scale: float | None = None,
    threads: Sequence[int] = (1,),
    repeats: int | None = None,
    measured: bool = True,
    modeled: bool = True,
    rng: int = 0,
    plot: bool = False,
    out=None,
) -> None:
    """Figure 6: MTTKRP time breakdown across modes, N = 3..6."""
    out = out or sys.stdout
    if measured:
        cases, scale = _measure("fig6", scale, threads, repeats, rng)
        _measured_breakdown(
            "Fig 6",
            cases,
            [(wl.shape(scale), f"N{wl.N}", f"N={wl.N}")
             for wl in FIG5_WORKLOADS],
            threads,
            out,
        )
    if modeled:
        _modeled_breakdown(
            "Fig 6",
            [(wl.shape(1.0), f"N={wl.N}") for wl in FIG5_WORKLOADS],
            out,
            plot=plot,
        )


# --------------------------------------------------------------------- #
# Figure 7: CP-ALS per-iteration times; Figure 8: fMRI breakdown
# --------------------------------------------------------------------- #


def fig7(
    scale: float | None = None,
    threads: Sequence[int] = (1,),
    repeats: int | None = None,
    measured: bool = True,
    modeled: bool = True,
    rng: int = 0,
    plot: bool = False,
    out=None,
) -> None:
    """Figure 7: per-iteration CP-ALS time, our implementation vs the
    Tensor-Toolbox-style reference, over CP ranks.

    ``scale`` selects the measured tensor dims: < 1 uses the reduced fMRI
    dims, 1.0 the paper dims (memory permitting).
    """
    out = out or sys.stdout
    if measured:
        cases, scale = _measure("fig7", scale, threads, repeats, rng)
        for shape, kind in _fmri_shapes(paper=scale >= 1.0):
            rows = []
            for rank in FIG7_RANKS:
                cells = [rank]
                for T in threads:
                    ours, dt, ttb = (
                        _seconds(cases[f"{kind}/C{rank}/{impl}/T{T}"])
                        for impl in ("repro", "dimtree", "ttb")
                    )
                    cells += [
                        f"{ours:.4f}",
                        f"{dt:.4f}",
                        f"{ttb:.4f}",
                        f"{ttb / ours:.2f}x",
                    ]
                rows.append(cells)
            header = ["C"]
            for T in threads:
                header += [
                    f"ours T={T}", f"dimtree T={T}", f"TTB T={T}",
                    f"speedup T={T}",
                ]
            _print_table(
                f"[Fig 7, measured] CP-ALS per-iteration seconds, "
                f"{kind} fMRI shape={shape}",
                header,
                rows,
                out,
            )
    if modeled:
        from repro.machine.predict import predict_cpals_iteration

        m = paper_machine()
        for shape, kind in _fmri_shapes(paper=True):
            rows = []
            for rank in FIG7_RANKS:
                cells = [rank]
                for T in (1, 12):
                    t_ours = predict_cpals_iteration(m, shape, rank, T, "repro")
                    t_dt = predict_cpals_iteration(
                        m, shape, rank, T, "dimtree"
                    )
                    t_ttb = predict_cpals_iteration(m, shape, rank, T, "ttb")
                    cells += [
                        f"{t_ours:.3f}",
                        f"{t_dt:.3f}",
                        f"{t_ttb:.3f}",
                        f"{t_ttb / t_ours:.2f}x",
                    ]
                rows.append(cells)
            _print_table(
                f"[Fig 7, modeled: paper machine] CP-ALS per-iteration "
                f"seconds (MTTKRP portion), {kind} fMRI shape={shape}",
                ["C", "ours T=1", "dimtree T=1", "TTB T=1", "speedup T=1",
                 "ours T=12", "dimtree T=12", "TTB T=12", "speedup T=12"],
                rows,
                out,
            )


def fig8(
    scale: float | None = None,
    threads: Sequence[int] = (1,),
    repeats: int | None = None,
    measured: bool = True,
    modeled: bool = True,
    rng: int = 0,
    plot: bool = False,
    out=None,
) -> None:
    """Figure 8: MTTKRP breakdown on the (synthetic) fMRI tensors."""
    out = out or sys.stdout
    if measured:
        cases, scale = _measure("fig8", scale, threads, repeats, rng)
        _measured_breakdown(
            "Fig 8",
            cases,
            [(shape, kind, f"{kind} fMRI")
             for shape, kind in _fmri_shapes(paper=scale >= 1.0)],
            threads,
            out,
        )
    if modeled:
        _modeled_breakdown(
            "Fig 8",
            [(shape, f"{kind} fMRI") for shape, kind in _fmri_shapes(paper=True)],
            out,
            plot=plot,
        )


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

_FIGURES = {"fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.figures",
        description="Regenerate the paper's figures (measured and/or modeled).",
    )
    parser.add_argument(
        "figure", choices=sorted(_FIGURES) + ["all"], help="which figure"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="volumetric fraction of the paper workload for measured runs "
        "(default: each figure suite's own, see 'repro-bench list')",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1],
        help="thread counts for measured runs",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repetitions per point (default: the suite's own)",
    )
    parser.add_argument("--rng", type=int, default=0)
    parser.add_argument(
        "--no-measured", action="store_true", help="skip host measurements"
    )
    parser.add_argument(
        "--no-modeled", action="store_true", help="skip paper-machine model"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render terminal charts for the modeled figures",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also write each figure's output to DIR/<fig>.txt",
    )
    args = parser.parse_args(argv)
    names = sorted(_FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        kwargs = dict(
            scale=args.scale,
            threads=args.threads,
            repeats=args.repeats,
            measured=not args.no_measured,
            modeled=not args.no_modeled,
            rng=args.rng,
            plot=args.plot,
        )
        if args.output:
            import io
            import pathlib

            from repro.bench.env import provenance_header

            buf = io.StringIO()
            _FIGURES[name](out=buf, **kwargs)
            text = buf.getvalue()
            sys.stdout.write(text)
            directory = pathlib.Path(args.output)
            directory.mkdir(parents=True, exist_ok=True)
            header = provenance_header(
                scale=(get_spec(name).default_scale if args.scale is None
                       else args.scale),
                threads=args.threads,
                extra={
                    "figure": name,
                    "repeats": args.repeats,
                    "rng": args.rng,
                    "measured": not args.no_measured,
                    "modeled": not args.no_modeled,
                },
            )
            (directory / f"{name}.txt").write_text(header + text)
        else:
            _FIGURES[name](**kwargs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
