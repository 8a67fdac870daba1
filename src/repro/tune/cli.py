"""Command-line autotuner: ``python -m repro.tune`` / ``repro-tune``.

Measures the MTTKRP kernel candidates for a given configuration, prints
the per-candidate times and the winners, and persists the decisions to the
tuning cache (``--cache`` or ``REPRO_TUNE_CACHE``) so library calls with
``method="autotune"`` find them pre-measured.

Examples
--------
Tune every mode of a 60x40x50 rank-16 problem with 4 threads::

    repro-tune 60x40x50 --rank 16 --threads 4 --cache tune.json

Inspect what a cache file holds::

    repro-tune --show --cache tune.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.replace(",", "x").split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse shape {text!r}; expected e.g. 60x40x50"
        ) from None
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(
            f"shape {text!r} must have >= 2 positive dimensions"
        )
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Empirical MTTKRP kernel autotuner.",
    )
    parser.add_argument(
        "shape", nargs="?", type=_parse_shape,
        help="tensor shape, e.g. 60x40x50 (omit with --show/--clear)",
    )
    parser.add_argument("--rank", type=int, default=16, help="CP rank C")
    parser.add_argument(
        "--modes", type=str, default=None,
        help="comma-separated output modes (default: all)",
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="worker count"
    )
    parser.add_argument(
        "--dtype", choices=("float32", "float64"), default="float64"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per candidate (best-of)",
    )
    parser.add_argument(
        "--cache", type=str, default=None,
        help="cache file (default: REPRO_TUNE_CACHE, else in-memory)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-measure even if the cache already holds a decision",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="operand RNG seed"
    )
    parser.add_argument(
        "--show", action="store_true",
        help="print the cache contents and exit",
    )
    parser.add_argument(
        "--clear", action="store_true",
        help="empty the cache file and exit",
    )
    return parser


def _open_cache(path_arg: str | None):
    from repro.tune.cache import TuningCache, default_cache_path, get_cache

    if path_arg is not None:
        return TuningCache(path_arg)
    if default_cache_path() is not None:
        return get_cache()
    return TuningCache(None)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = _open_cache(args.cache)

    if args.clear:
        cache.clear(delete_file=False)
        print(f"cleared {cache.path or '<memory>'}")
        return 0
    if args.show:
        entries = cache.entries()
        print(f"{cache.path or '<memory>'}: {len(entries)} entries")
        for key, record in sorted(entries.items()):
            extra = f" {record.kwargs}" if record.kwargs else ""
            print(f"  {key} -> {record.method}{extra} [{record.source}]")
        return 0
    if args.shape is None:
        parser.error("a tensor shape is required unless --show/--clear")

    from repro.tensor.generate import random_factors, random_tensor
    from repro.tune.tuner import autotune

    shape = args.shape
    modes = (
        [int(m) for m in args.modes.split(",")]
        if args.modes
        else list(range(len(shape)))
    )
    dtype = np.dtype(args.dtype)
    tensor = random_tensor(shape, rng=args.seed)
    factors = random_factors(shape, args.rank, rng=args.seed + 1)
    if dtype != np.float64:
        tensor = tensor.astype(dtype)
        factors = [f.astype(dtype) for f in factors]

    width = max(len(str(m)) for m in modes)
    for n in modes:
        record = autotune(
            tensor, factors, n,
            num_threads=args.threads,
            cache=cache, repeats=args.repeats, force=args.force,
        )
        times = ", ".join(
            f"{label}={seconds * 1e3:.3f}ms"
            for label, seconds in sorted(
                record.times.items(), key=lambda kv: kv[1]
            )
        )
        extra = f" {record.kwargs}" if record.kwargs else ""
        detail = times if times else record.source
        print(f"mode {n:>{width}}: {record.method}{extra}  ({detail})")
    where = cache.path or "<memory — set REPRO_TUNE_CACHE or --cache to persist>"
    print(f"cache: {where}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
