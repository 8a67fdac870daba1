"""Rule registry for the parallel-hazard lint.

Every rule is instantiated once here; :func:`get_rules` returns the active
set, optionally restricted to specific ids (the CLI's ``--rules`` flag).
Per-file rules (:class:`Rule`) see one AST at a time; project rules
(:class:`ProjectRule`) see the whole
:class:`~repro.analysis.callgraph.Project` and may cross module
boundaries.
"""

from __future__ import annotations

from repro.analysis.rules.base import (
    ProjectRawFinding,
    ProjectRule,
    RawFinding,
    Rule,
)
from repro.analysis.rules.interproc_rules import RA007InterprocViewEscape
from repro.analysis.rules.layout_rules import (
    RA003UnpinnedAllocation,
    RA004HazardousView,
)
from repro.analysis.rules.lifetime_rules import RA008WorkspaceLifetime
from repro.analysis.rules.parallel_rules import (
    RA001UnpartitionedWrite,
    RA002LoopCapture,
    RA006GlobalMutation,
)

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "get_rules",
    "get_project_rules",
    "Rule",
    "ProjectRule",
    "RawFinding",
    "ProjectRawFinding",
]

ALL_RULES: tuple[Rule, ...] = (
    RA001UnpartitionedWrite(),
    RA002LoopCapture(),
    RA003UnpinnedAllocation(),
    RA004HazardousView(),
    RA006GlobalMutation(),
    RA008WorkspaceLifetime(),
)

PROJECT_RULES: tuple[ProjectRule, ...] = (
    RA007InterprocViewEscape(),
)


def get_rules(ids: list[str] | None = None) -> tuple[Rule, ...]:
    """The active per-file rule set, optionally restricted to ``ids``.

    Unknown ids raise ``ValueError`` so a typo in ``--rules RA01`` fails
    loudly instead of silently checking nothing.  Ids naming project
    rules are accepted (they select nothing here — use
    :func:`get_project_rules` for those) so ``--rules RA007`` works.
    """
    if not ids:
        return ALL_RULES
    known = {r.id: r for r in ALL_RULES}
    project_ids = {r.id for r in PROJECT_RULES}
    missing = [i for i in ids if i not in known and i not in project_ids]
    if missing:
        raise ValueError(
            f"unknown rule id(s): {', '.join(missing)} "
            f"(known: {', '.join(sorted(set(known) | project_ids))})"
        )
    return tuple(known[i] for i in ids if i in known)


def get_project_rules(ids: list[str] | None = None) -> tuple[ProjectRule, ...]:
    """The active project-level rule set, optionally restricted to ``ids``.

    Unknown ids are :func:`get_rules`'s problem — callers pass the same
    id list to both, and that one validates.
    """
    if not ids:
        return PROJECT_RULES
    return tuple(r for r in PROJECT_RULES if r.id in ids)
