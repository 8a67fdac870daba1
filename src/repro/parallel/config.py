"""Package-wide parallel-runtime configuration: the default worker count.

All parallel entry points in :mod:`repro.core` and :mod:`repro.cpd` accept
an explicit ``num_threads`` argument; when it is omitted they fall back to
the value configured here.  The default is the host CPU count (as an OpenMP
runtime would choose), overridable via the ``REPRO_NUM_THREADS`` environment
variable or programmatically.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = [
    "get_num_threads",
    "set_num_threads",
    "num_threads",
    "resolve_threads",
]

_lock = threading.Lock()
_value: int | None = None


def _default() -> int:
    env = os.environ.get("REPRO_NUM_THREADS")
    if env:
        try:
            n = int(env)
            if n > 0:
                return n
        except ValueError:
            pass
    return os.cpu_count() or 1


def get_num_threads() -> int:
    """The current default thread count for parallel algorithms."""
    with _lock:
        return _value if _value is not None else _default()


def set_num_threads(n: int) -> None:
    """Set the package-wide default thread count."""
    n = int(n)
    if n <= 0:
        raise ValueError(f"thread count must be positive, got {n}")
    global _value
    with _lock:
        _value = n


@contextmanager
def num_threads(n: int):
    """Context manager scoping the default thread count.

    >>> with num_threads(4):
    ...     pass  # parallel calls in here default to 4 threads
    """
    global _value
    with _lock:
        previous = _value
    set_num_threads(n)
    try:
        yield
    finally:
        with _lock:
            _value = previous


def resolve_threads(num_threads_arg: int | None) -> int:
    """Normalize an optional per-call thread count against the default."""
    if num_threads_arg is None:
        return get_num_threads()
    n = int(num_threads_arg)
    if n <= 0:
        raise ValueError(f"num_threads must be positive, got {n}")
    return n
