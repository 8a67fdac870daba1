"""Workspace buffer lifetime rule: RA008.

A :class:`~repro.parallel.workspace.Workspace` hands out *scratch* whose
validity ends when the arena does: ``ws.close()`` (or leaving a
``with Workspace(...) as ws:`` block, which closes it) drops every
buffer.

RA008 flags any *use* of a name acquired via ``ws.buffer(...)`` /
``ws.private(...)`` after the acquiring arena closed or left its
``with`` scope.  Purely flow-insensitive aliasing is
out of scope; ordering is by source line within one function, matching
how the arena is used in this codebase (linear setup/loop/teardown).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.rules.base import (
    RawFinding,
    Rule,
    _walk_same_scope,
)

__all__ = ["RA008WorkspaceLifetime"]

_ACQUIRE_METHODS = frozenset({"buffer", "private"})


@dataclass
class _Acquired:
    """One ``name = ws.buffer("slot", ...)`` binding."""

    name: str  # local bound to the buffer
    ws: str  # arena variable name
    slot: str | None  # slot string literal, if statically known
    line: int
    dead_after: int | None = None  # line after which the buffer is invalid
    why: str = ""


def _attr_call(node: ast.AST) -> tuple[str, str, ast.Call] | None:
    """``(receiver, method, call)`` for a ``name.method(...)`` call."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)):
        return node.func.value.id, node.func.attr, node
    return None


def _literal_str(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


class RA008WorkspaceLifetime(Rule):
    id = "RA008"
    severity = "error"
    title = "workspace buffer used after close()/with-scope exit"
    hint = (
        "move the use before the lifetime boundary, or copy the buffer "
        "out first; a closed arena no longer owns its buffers"
    )

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        findings: list[RawFinding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(node))
        return findings

    def _check_function(self, fn: ast.AST) -> list[RawFinding]:
        acquired: list[_Acquired] = []
        #: arena name -> line of the ``with`` block's last statement, for
        #: arenas bound by ``with Workspace(...) as ws:``.
        with_scope_end: dict[str, int] = {}
        #: name -> lines where the name is (re)bound; a rebinding after
        #: the lifetime boundary makes later uses fresh again.
        bind_lines: dict[str, list[int]] = {}

        def body_walk():
            for stmt in fn.body:
                yield from _walk_same_scope(stmt)

        for node in body_walk():
            # ``name = ws.buffer("slot", ...)`` / ``ws.private(...)``
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Name):
                            bind_lines.setdefault(t.id, []).append(node.lineno)
                target = node.targets[0]
                ac = _attr_call(node.value)
                if (len(node.targets) == 1 and isinstance(target, ast.Name)
                        and ac is not None
                        and ac[1] in _ACQUIRE_METHODS):
                    ws_name, _, call = ac
                    slot = _literal_str(call.args[0]) if call.args else None
                    acquired.append(_Acquired(
                        target.id, ws_name, slot, node.lineno,
                    ))
            # ``with Workspace(...) as ws:`` — buffers die at block exit.
            elif isinstance(node, ast.With):
                for item in node.items:
                    ctx = item.context_expr
                    is_ws = (isinstance(ctx, ast.Call)
                             and isinstance(ctx.func, ast.Name)
                             and ctx.func.id == "Workspace")
                    if (is_ws and item.optional_vars is not None
                            and isinstance(item.optional_vars, ast.Name)):
                        end = max(
                            (getattr(s, "end_lineno", s.lineno) or s.lineno)
                            for s in node.body
                        )
                        with_scope_end[item.optional_vars.id] = end
            # ``ws.close()``
            ac = _attr_call(node)
            if ac is not None and ac[1] == "close":
                ws_name, _, call = ac
                for a in acquired:
                    if a.ws == ws_name and a.dead_after is None:
                        a.dead_after = call.lineno
                        a.why = f"closed by {ws_name}.close()"

        for ws_name, end in with_scope_end.items():
            for a in acquired:
                if a.ws == ws_name and (a.dead_after is None
                                        or a.dead_after > end):
                    a.dead_after = end
                    a.why = f"acquiring `with Workspace(...) as {ws_name}` " \
                            f"scope ends at line {end}"

        dead = [a for a in acquired if a.dead_after is not None]
        if not dead:
            return []

        def rebound_between(name: str, after: int, line: int) -> bool:
            return any(after < b <= line for b in bind_lines.get(name, ()))

        findings: list[RawFinding] = []
        flagged: set[tuple[str, int]] = set()
        for node in body_walk():
            if not (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)):
                continue
            for a in dead:
                if (node.id == a.name and node.lineno > a.dead_after
                        and not rebound_between(a.name, a.dead_after,
                                                node.lineno)
                        and (node.id, node.lineno) not in flagged):
                    flagged.add((node.id, node.lineno))
                    findings.append(RawFinding(
                        node.lineno, node.col_offset,
                        f"workspace buffer {a.name!r} (slot {a.slot!r}, "
                        f"acquired line {a.line}) used after it was "
                        f"{a.why}",
                    ))
        return findings
