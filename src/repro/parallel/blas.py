"""Best-effort control of the BLAS library's internal thread count.

The paper combines OpenMP threading *outside* BLAS with multithreaded BLAS
*inside* single calls (the 2-step algorithm's parallelism is entirely inside
its one big GEMM).  To reproduce that split we need to set the BLAS thread
count at runtime.  NumPy offers no portable API, so we locate the OpenBLAS
control functions with :mod:`ctypes` in the already-loaded shared objects.

Everything here degrades gracefully: if no known BLAS is found the setters
become no-ops and :func:`get_blas_threads` returns ``None``, which the
benchmark harness reports so results are interpretable.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager

from repro.parallel.sanitizer import SanitizerError, is_sanitizing

__all__ = [
    "set_blas_threads",
    "get_blas_threads",
    "blas_threads",
    "assert_native_layout",
]

_lock = threading.Lock()
_funcs: tuple | None = None
_searched = False


def _candidate_paths() -> Iterator[str]:
    """Shared objects that may expose an OpenBLAS thread setter.

    Yielded lazily, most likely first, so the slower system lookups
    (``/proc/self/maps``, ``find_library``, which runs a subprocess)
    happen only when numpy's bundled library has no setter.
    """
    try:
        import numpy

        numpy_dir = os.path.dirname(numpy.__file__)
        for pattern in (
            os.path.join(numpy_dir, ".libs", "*openblas*"),
            os.path.join(numpy_dir, "..", "numpy.libs", "*openblas*"),
            os.path.join(numpy_dir, "..", "scipy_openblas64", "lib", "*.so*"),
            os.path.join(numpy_dir, "..", "scipy_openblas32", "lib", "*.so*"),
        ):
            yield from sorted(glob.glob(pattern))
    except ImportError:  # pragma: no cover - numpy always importable here
        pass
    # Already-mapped libraries (covers system OpenBLAS).
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split() for line in fh]
    except OSError:  # pragma: no cover - non-Linux
        fields = []
    yield from (f[-1] for f in fields if f and "openblas" in f[-1].lower())
    found = ctypes.util.find_library("openblas")
    if found:
        yield found


#: ``(setter, getter)`` symbol pairs, tried in order.  The OpenBLAS that
#: numpy >= 2 wheels bundle (``libscipy_openblas64_``) exports them with a
#: ``scipy_`` prefix.
_SYMBOLS = (
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _load() -> tuple | None:
    """The ``(setter, getter)`` functions of the first library exporting a
    setter (``getter`` may be ``None``), or ``None`` when none does."""
    global _funcs, _searched
    with _lock:
        if _searched:
            return _funcs
        _searched = True
        seen: set[str] = set()
        for path in _candidate_paths():
            if path in seen:
                continue
            seen.add(path)
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_name, get_name in _SYMBOLS:
                if hasattr(lib, set_name):
                    setter = getattr(lib, set_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter = getattr(lib, get_name, None)
                    if getter is not None:
                        getter.argtypes, getter.restype = [], ctypes.c_int
                    _funcs = (setter, getter)
                    return _funcs
        return None


def set_blas_threads(n: int) -> bool:
    """Request that BLAS use ``n`` threads for subsequent calls.

    Returns ``True`` if a control function was found and invoked, ``False``
    if thread control is unavailable (the request is then a no-op).
    """
    n = int(n)
    if n <= 0:
        raise ValueError(f"thread count must be positive, got {n}")
    funcs = _load()
    if funcs is None:
        return False
    funcs[0](n)
    return True


def get_blas_threads() -> int | None:
    """Current BLAS thread count, or ``None`` when control is unavailable."""
    funcs = _load()
    if funcs is None or funcs[1] is None:
        return None
    return int(funcs[1]())


def assert_native_layout(arr, context: str = "operand"):
    """Assert ``arr`` is contiguous in *some* order before a BLAS call.

    The runtime counterpart of lint rules RA003/RA004 (see
    ``docs/analysis.md``): an operand contiguous in neither order forces a
    hidden copy per call — or, as an ``out=`` destination, routes BLAS
    output through foreign strides onto a different code path.  Call sites
    use this to back layout assumptions the static lint cannot prove
    (e.g. "this reshape of a flat shared buffer is C-contiguous").

    No-op unless the write-set sanitizer is enabled (``REPRO_SANITIZE=1``
    or an open :func:`repro.analysis.sanitize` context); returns ``arr``
    either way so it composes inline.
    """
    if not is_sanitizing():
        return arr
    flags = arr.flags
    if not (flags["C_CONTIGUOUS"] or flags["F_CONTIGUOUS"]):
        raise SanitizerError(
            f"{context}: array of shape {arr.shape} with strides "
            f"{arr.strides} is contiguous in neither order — BLAS would "
            f"copy it per call (or write output through foreign strides); "
            f"materialize it explicitly (np.ascontiguousarray or an "
            f"order-pinned copy)"
        )
    return arr


@contextmanager
def blas_threads(n: int):
    """Context manager scoping a BLAS thread count, restoring the prior one.

    >>> with blas_threads(1):
    ...     pass  # BLAS calls in here are single-threaded (if controllable)
    """
    previous = get_blas_threads()
    set_blas_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
