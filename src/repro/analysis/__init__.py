"""repro.analysis — machine-checked parallel invariants.

Two layers (see ``docs/analysis.md``):

* **Static lint** (:mod:`repro.analysis.lint` + :mod:`repro.analysis.rules`)
  — AST rules RA001–RA006 enforcing the partition, layout, and shm-lifetime
  contracts of the paper's Algorithms 1/3/4 as this repo implements them.
  CLI: ``python -m repro.analysis [paths]`` or the ``repro-analysis``
  console script.
* **Runtime sanitizer** (:mod:`repro.parallel.sanitizer`, re-exported
  here) — an opt-in write-set race detector for thread-backend pool
  regions plus shm bounds checks, enabled via ``REPRO_SANITIZE=1`` or
  :func:`sanitize`.  It lives in the runtime package because the runtime
  imports no analyzer code.
"""

from repro.analysis.lint import (
    Finding,
    collect_files,
    lint_file,
    lint_paths,
    render_json,
    render_text,
)
from repro.analysis.rules import ALL_RULES, get_rules
from repro.parallel.sanitizer import (
    NULL_SANITIZER,
    RaceError,
    Sanitizer,
    SanitizerError,
    WriteLogArray,
    get_sanitizer,
    is_sanitizing,
    sanitize,
)

__all__ = [
    "Finding",
    "collect_files",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_text",
    "ALL_RULES",
    "get_rules",
    "NULL_SANITIZER",
    "RaceError",
    "Sanitizer",
    "SanitizerError",
    "WriteLogArray",
    "get_sanitizer",
    "is_sanitizing",
    "sanitize",
]
