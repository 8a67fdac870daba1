"""Persisted tuning cache: measured kernel picks keyed by configuration.

The autotuner's measurements are only worth their cost if they are paid
once.  :class:`TuningCache` maps a :class:`TuneKey` — the full set of
inputs that can change which MTTKRP kernel wins: tensor shape, rank,
output mode, worker count, dtype and batch size — to a
:class:`TuneRecord` holding the winning method, its keyword arguments and
the measured candidate times, and persists the mapping as one JSON file.

File handling rules (all covered by ``tests/test_tune_cache.py``):

* **Location.**  ``REPRO_TUNE_CACHE`` names the file; when the variable is
  unset the cache is process-local (in memory only, no file I/O).  The
  explicit opt-in keeps test runs and casual imports from scattering cache
  files around the filesystem.
* **Tolerant loads.**  A missing file is an empty cache; a corrupt,
  truncated or wrong-schema file is *also* an empty cache (with a one-time
  :class:`TuneCacheWarning`) — the tuner falls back to re-measuring and the
  next ``put`` rewrites a valid file.  A broken cache must never break the
  computation it exists to speed up.
* **Atomic writes.**  Saves go to a temporary file in the target directory
  followed by :func:`os.replace`, so a reader never observes a partial
  file, and concurrent writers each land a complete file (last one wins
  per entry).  Before writing, the on-disk state is re-read and merged so
  concurrent writers of *different* keys do not clobber each other;
  writers within one process additionally serialize on a lock.

Schema (version ``2``; version ``1`` keys also named an execution
backend, so a version-1 file loads as an empty cache)::

    {"version": 2,
     "entries": {"<key-string>": {"method": "twostep",
                                  "kwargs": {"side": "left"},
                                  "times": {"onestep": 1.2e-4, ...},
                                  "source": "measured"}}}
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.dispatch import KERNELS

__all__ = [
    "TuneKey",
    "TuneRecord",
    "TuningCache",
    "TuneCacheWarning",
    "default_cache_path",
    "get_cache",
    "reset_cache",
]

_SCHEMA_VERSION = 2


class TuneCacheWarning(UserWarning):
    """Raised (as a warning) when a cache file cannot be parsed."""


@dataclass(frozen=True)
class TuneKey:
    """Everything that can change which kernel is fastest.

    ``batch`` is the number of stacked same-shape tensors the decision
    was measured for (:mod:`repro.tune.batched`); single-tensor kernels
    keep the default of 1, so their keys are unaffected by fleet-sized
    entries sharing the cache.
    """

    shape: tuple[int, ...]
    rank: int
    mode: int
    num_threads: int
    dtype: str
    batch: int = 1

    @classmethod
    def make(
        cls,
        shape,
        rank: int,
        mode: int,
        num_threads: int,
        dtype,
        batch: int = 1,
    ) -> "TuneKey":
        return cls(
            shape=tuple(int(s) for s in shape),
            rank=int(rank),
            mode=int(mode),
            num_threads=int(num_threads),
            dtype=np.dtype(dtype).name,
            batch=int(batch),
        )

    def to_str(self) -> str:
        """Stable string form used as the JSON dictionary key."""
        dims = "x".join(str(s) for s in self.shape)
        return (
            f"shape={dims};rank={self.rank};mode={self.mode};"
            f"threads={self.num_threads};"
            f"dtype={self.dtype};batch={self.batch}"
        )


@dataclass
class TuneRecord:
    """One cached decision.

    Attributes
    ----------
    method:
        The winning method name (a member of
        :data:`repro.core.dispatch.MTTKRP_METHODS`).
    kwargs:
        Method keyword arguments that were part of the winning candidate
        (e.g. ``{"side": "left"}`` for the 2-step orderings).
    times:
        Measured best-of-repeats seconds per candidate label; empty for
        degenerate (unmeasured) decisions.
    source:
        ``"measured"`` for a microbenchmark decision, ``"degenerate"``
        when every candidate collapses to the same kernel (2-way tensors)
        and measurement was skipped, ``"prior"`` when only the machine
        model ranked the single surviving candidate.
    """

    method: str
    kwargs: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    source: str = "measured"

    @property
    def label(self) -> str:
        """Replayable method spec (``"twostep:left"`` pins the ordering).

        Accepted verbatim by :func:`repro.core.dispatch.mttkrp` and the
        per-mode ``method`` list of :func:`repro.cpd.cp_als.cp_als`.
        """
        spec = KERNELS.get(self.method)
        if spec is not None:
            for label, kwargs in spec.labels():
                if kwargs and kwargs.items() <= self.kwargs.items():
                    return label
        return self.method

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "kwargs": dict(self.kwargs),
            "times": {k: float(v) for k, v in self.times.items()},
            "source": self.source,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TuneRecord":
        if not isinstance(obj, dict) or "method" not in obj:
            raise ValueError(f"malformed tune record: {obj!r}")
        return cls(
            method=str(obj["method"]),
            kwargs=dict(obj.get("kwargs", {})),
            times={str(k): float(v) for k, v in obj.get("times", {}).items()},
            source=str(obj.get("source", "measured")),
        )


class TuningCache:
    """JSON-backed key/record store with tolerant loads and atomic saves.

    Parameters
    ----------
    path:
        Cache file location, or ``None`` for a purely in-memory cache
        (used when ``REPRO_TUNE_CACHE`` is unset).
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[str, TuneRecord] = {}
        self._warned = False
        if self.path is not None:
            self._entries = self._read_file()

    # -- persistence ---------------------------------------------------- #

    def _warn_once(self, message: str) -> None:
        if not self._warned:
            self._warned = True
            warnings.warn(message, TuneCacheWarning, stacklevel=3)

    def _read_file(self) -> dict[str, TuneRecord]:
        """Parse the cache file; any failure yields an empty mapping."""
        if self.path is None or not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict) or raw.get("version") != _SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported cache schema: {raw.get('version')!r}"
                    if isinstance(raw, dict)
                    else "top-level JSON value is not an object"
                )
            entries = raw.get("entries", {})
            if not isinstance(entries, dict):
                raise ValueError("'entries' is not an object")
            return {
                str(k): TuneRecord.from_json(v) for k, v in entries.items()
            }
        except (OSError, ValueError, TypeError, KeyError) as exc:
            # json.JSONDecodeError subclasses ValueError.
            self._warn_once(
                f"ignoring unreadable tuning cache {self.path!r} "
                f"({exc}); decisions will be re-measured"
            )
            return {}

    def _save_locked(self, merge: bool = True) -> None:
        """Merge-and-replace the on-disk file (caller holds ``self._lock``).

        Concurrency is layered: ``self._lock`` serializes writers sharing
        this instance; an advisory ``flock`` on ``<path>.lock`` serializes
        writers in *other* instances and processes around the
        read-merge-write cycle, so no writer's keys are lost; and the
        write-to-temp + :func:`os.replace` publication means readers (who
        take no lock at all) only ever see complete files even against a
        writer without flock support.
        """
        if self.path is None:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with self._writer_flock(directory):
            if merge:
                # Merge with what is on disk so a concurrent writer of
                # *other* keys is not clobbered; our own entries win on
                # conflict.  ``clear`` opts out — there the on-disk state
                # is exactly what must be discarded.
                merged = self._read_file()
                merged.update(self._entries)
                self._entries = merged
            merged = self._entries
            payload = {
                "version": _SCHEMA_VERSION,
                "entries": {k: r.to_json() for k, r in merged.items()},
            }
            fd, tmp_path = tempfile.mkstemp(
                prefix=".tune-", suffix=".json.tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise

    @contextmanager
    def _writer_flock(self, directory: str):
        """Advisory cross-process writer lock (no-op where unsupported)."""
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-posix fallback
            yield
            return
        lock_path = self.path + ".lock"
        try:
            lock_file = open(lock_path, "a")
        except OSError:  # pragma: no cover - unwritable directory
            yield
            return
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            yield
        finally:
            lock_file.close()  # closing drops the flock

    # -- mapping interface ---------------------------------------------- #

    def get(self, key: TuneKey) -> TuneRecord | None:
        with self._lock:
            return self._entries.get(key.to_str())

    def put(self, key: TuneKey, record: TuneRecord) -> None:
        with self._lock:
            self._entries[key.to_str()] = record
            self._save_locked()

    def reload(self) -> None:
        """Re-read the backing file (picks up other processes' writes)."""
        with self._lock:
            if self.path is not None:
                self._entries = self._read_file()

    def clear(self, *, delete_file: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            if self.path is not None:
                if delete_file:
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                else:
                    self._save_locked(merge=False)

    def entries(self) -> dict[str, TuneRecord]:
        with self._lock:
            return dict(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path if self.path is not None else "<memory>"
        return f"TuningCache({len(self)} entries, {where})"


# --------------------------------------------------------------------- #
# Module-wide cache instance
# --------------------------------------------------------------------- #

def default_cache_path() -> str | None:
    """The configured cache file, or ``None`` for in-memory caching."""
    value = os.environ.get("REPRO_TUNE_CACHE", "").strip()
    return value or None


_state_lock = threading.Lock()
_global_cache: TuningCache | None = None


def get_cache() -> TuningCache:
    """The shared cache for the configured path.

    Re-resolves ``REPRO_TUNE_CACHE`` on every call, so changing the
    variable (tests do) transparently switches files; the instance is
    reused while the path is stable so the in-memory view persists.
    """
    global _global_cache
    path = default_cache_path()
    with _state_lock:
        if _global_cache is None or _global_cache.path != path:
            _global_cache = TuningCache(path)
        return _global_cache


def reset_cache() -> None:
    """Drop the shared instance (next :func:`get_cache` re-creates it)."""
    global _global_cache
    with _state_lock:
        _global_cache = None
