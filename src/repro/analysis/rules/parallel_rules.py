"""Parallel-partition hazard rules: RA001, RA002, RA006.

These enforce the unstated invariants of the paper's Algorithms 1, 3 and 4
as this repo implements them (see ``docs/analysis.md`` for the catalog):

* **RA001** — every write to *shared* state inside a parallel region must
  go through an index derived from the worker's contiguous partition
  (``worker``/``start``/``stop``, ultimately ``contiguous_blocks``).
  A write that is not partition-indexed can land in another worker's block
  — a data race the thread pool cannot detect by itself.
* **RA002** — a closure created inside a loop must not capture the loop
  variable by reference; all iterations would share the final value, so
  every task computes the *last* worker's block.  The repo's idiom is
  default-argument binding (``lambda t=t: ...``).
* **RA006** — worker code must not mutate module-level state (``global``
  rebinding, stores to imported modules' attributes).  Workers run
  concurrently, so such writes race with each other.
"""

from __future__ import annotations

import ast

from repro.analysis.rules.base import (
    RawFinding,
    Rule,
    TaskContext,
    attach_parents,
    derived_names,
    find_task_contexts,
    names_loaded,
    parent_of,
    subscript_indices,
    subscript_root,
)

__all__ = ["RA001UnpartitionedWrite", "RA002LoopCapture", "RA006GlobalMutation"]


class RA001UnpartitionedWrite(Rule):
    id = "RA001"
    severity = "error"
    title = "shared write not indexed through the worker's partition"
    hint = (
        "index the write through the kernel's (worker, start, stop) "
        "parameters (or a value derived from contiguous_blocks); give each "
        "worker a disjoint block or accumulate into a private buffer and "
        "reduce"
    )

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        attach_parents(tree)
        findings: list[RawFinding] = []
        for ctx in find_task_contexts(tree):
            findings.extend(self._check_context(ctx))
        return findings

    def _check_context(self, ctx: TaskContext) -> list[RawFinding]:
        derived = derived_names(ctx)
        findings: list[RawFinding] = []

        def is_partition_indexed(sub: ast.Subscript) -> bool:
            return any(
                any(n in derived for n in names_loaded(idx))
                for idx in subscript_indices(sub)
            )

        def shared_root(expr: ast.expr) -> str | None:
            root = subscript_root(expr)
            if isinstance(root, ast.Name) and root.id in ctx.shared:
                return root.id
            return None

        def flag(node: ast.AST, name: str, how: str) -> None:
            findings.append(RawFinding(
                node.lineno, node.col_offset,
                f"worker code writes shared array {name!r} {how} without a "
                f"partition-derived index",
            ))

        body = ctx.node.body
        nodes = body if isinstance(body, list) else [body]
        for stmt in nodes:
            for node in ast.walk(stmt):
                # a) subscript stores: ``shared[idx] = ...`` / ``+=``
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for t in targets:
                        for sub in _subscript_targets(t):
                            name = shared_root(sub)
                            if name and not is_partition_indexed(sub):
                                flag(sub, name, "via subscript")
                    # b) in-place mutation of a whole shared array
                    if isinstance(node, ast.AugAssign) and isinstance(
                            node.target, ast.Name):
                        if node.target.id in ctx.shared:
                            flag(node, node.target.id, "in place (whole array)")
                # c) ``out=`` destinations of calls made by the worker
                elif isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg != "out":
                            continue
                        val = kw.value
                        name = shared_root(val)
                        if name is None:
                            continue
                        if isinstance(val, ast.Subscript):
                            if not is_partition_indexed(val):
                                flag(val, name, "via out=")
                        else:
                            flag(val, name, "via out= (whole array)")
        return findings


def _subscript_targets(target: ast.AST) -> list[ast.Subscript]:
    if isinstance(target, ast.Subscript):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        subs: list[ast.Subscript] = []
        for elt in target.elts:
            subs.extend(_subscript_targets(elt))
        return subs
    return []


class RA002LoopCapture(Rule):
    id = "RA002"
    severity = "error"
    title = "closure captures a loop variable by reference"
    hint = (
        "bind the loop variable at definition time with a default argument "
        "(``lambda t=t: ...``) or a factory function; a by-reference "
        "capture makes every task see the final iteration's value"
    )

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        attach_parents(tree)
        findings: list[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Lambda, ast.FunctionDef)):
                continue
            if _immediately_called(node):
                continue
            captured = _free_body_names(node)
            if not captured:
                continue
            loop_vars = _enclosing_loop_targets(node)
            hit = sorted(captured & loop_vars)
            if hit:
                kind = "lambda" if isinstance(node, ast.Lambda) else (
                    f"function {node.name!r}")
                findings.append(RawFinding(
                    node.lineno, node.col_offset,
                    f"{kind} captures loop variable(s) "
                    f"{', '.join(repr(h) for h in hit)} by reference",
                ))
        return findings


def _immediately_called(fn: ast.AST) -> bool:
    parent = parent_of(fn)
    return isinstance(parent, ast.Call) and parent.func is fn


def _free_body_names(fn: ast.AST) -> set[str]:
    """Names the closure body reads that are not bound by the closure.

    Default-argument expressions are evaluated at definition time in the
    enclosing scope — referencing the loop variable there is exactly the
    safe binding idiom, so defaults are excluded from the body scan.
    """
    from repro.analysis.rules.base import bound_names

    body = fn.body if isinstance(fn, ast.Lambda) else fn.body
    loaded: set[str] = set()
    nodes = body if isinstance(body, list) else [body]
    for stmt in nodes:
        loaded |= names_loaded(stmt)
    return loaded - bound_names(fn)


def _enclosing_loop_targets(fn: ast.AST) -> set[str]:
    """Loop variables of every ``for``/comprehension enclosing ``fn``.

    Stops at the nearest enclosing function definition: a loop *outside*
    the factory that creates the closure rebinding its own parameters is
    not a capture hazard.
    """
    targets: set[str] = set()
    prev: ast.AST = fn
    cur = parent_of(fn)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            break
        if isinstance(cur, (ast.For, ast.AsyncFor)) and prev in cur.body:
            for n in ast.walk(cur.target):
                if isinstance(n, ast.Name):
                    targets.add(n.id)
        elif isinstance(cur, (ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp)):
            for gen in cur.generators:
                for n in ast.walk(gen.target):
                    if isinstance(n, ast.Name):
                        targets.add(n.id)
        prev = cur
        cur = parent_of(cur)
    return targets


class RA006GlobalMutation(Rule):
    id = "RA006"
    severity = "error"
    title = "worker code mutates module-level state"
    hint = (
        "pass state into the kernel as an argument and return results "
        "through partition-indexed shared arrays; module-level writes race "
        "under threads and are silently dropped by process workers"
    )

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        attach_parents(tree)
        module_names = _imported_module_names(tree)
        findings: list[RawFinding] = []
        for ctx in find_task_contexts(tree):
            body = ctx.node.body
            nodes = body if isinstance(body, list) else [body]
            declared_global: set[str] = set()
            for stmt in nodes:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Global):
                        declared_global |= set(node.names)
                        findings.append(RawFinding(
                            node.lineno, node.col_offset,
                            f"worker code declares global "
                            f"{', '.join(repr(n) for n in node.names)}",
                        ))
                    elif isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                        for t in targets:
                            if (isinstance(t, ast.Attribute)
                                    and isinstance(t.value, ast.Name)
                                    and t.value.id in module_names):
                                findings.append(RawFinding(
                                    t.lineno, t.col_offset,
                                    f"worker code stores to module attribute "
                                    f"{t.value.id}.{t.attr}",
                                ))
        return findings


def _imported_module_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names
