"""Shared AST machinery for the parallel-hazard lint rules.

The rules in this package are *repo-specific*: they know the shapes of this
codebase's parallel regions (``ThreadPool.run_tasks`` task lists,
``parallel_for`` region kernels, the ``_k_*``
module-level kernel naming convention) and the partition contract they must
obey (every shared write goes through an index derived from the worker's
``(worker, start, stop)`` block, i.e. ultimately from
:func:`repro.parallel.partition.contiguous_blocks`).

This module provides the pieces every rule needs:

* :class:`Rule` — the rule interface (id, severity, hint, ``check``);
* :class:`RawFinding` — a pre-suppression finding location + message;
* :func:`find_task_contexts` — discovery of *task contexts*: function or
  lambda bodies that execute on pool workers;
* :func:`derived_names` — the fixed-point set of names derived from a task
  context's partition parameters (loop variables over ``range(start,
  stop)``, values unpacked from partition-indexed containers, ...);
* small name/scope utilities (:func:`names_loaded`, :func:`bound_names`,
  :func:`free_names`, :func:`attach_parents`).

Everything is purely syntactic (single file at a time, no imports executed,
no type inference).  The rules err on the side of precision: they flag the
patterns that violate the paper's invariants in *this* codebase's idiom and
stay quiet about constructs they cannot prove hazardous.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "Rule",
    "ProjectRule",
    "RawFinding",
    "ProjectRawFinding",
    "TaskContext",
    "attach_parents",
    "bound_names",
    "free_names",
    "names_loaded",
    "find_task_contexts",
    "derived_names",
    "subscript_root",
    "subscript_indices",
]

#: Calls whose results are, by construction, valid partition bounds.
PARTITION_SOURCES = frozenset({"contiguous_blocks", "block_bounds", "owner_of"})

#: Methods that launch a parallel region with one callable per worker.
REGION_LAUNCHERS = frozenset({"run_tasks", "parallel_for"})


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before suppression handling: location plus message."""

    line: int
    col: int
    message: str


@dataclass(frozen=True)
class ProjectRawFinding:
    """A project-rule hit: a :class:`RawFinding` plus the file it lands in.

    Project rules see the whole :class:`~repro.analysis.callgraph.Project`
    at once, so — unlike per-file rules — the flagged location is not
    implied by the lint driver's current file.
    """

    path: str
    line: int
    col: int
    message: str


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`, which
    receives the parsed module (with parent links attached, see
    :func:`attach_parents`) and the path being linted, and returns raw
    findings.  ``allowed_paths`` entries are path *suffixes* exempt from the
    rule (e.g. the module that owns an otherwise-forbidden construct).
    """

    id: str = ""
    severity: str = "error"  # "error" | "warning"
    title: str = ""
    hint: str = ""
    allowed_paths: tuple[str, ...] = ()

    def check(self, tree: ast.Module, path: str) -> list[RawFinding]:
        raise NotImplementedError

    def applies_to(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return not any(norm.endswith(suffix) for suffix in self.allowed_paths)


class ProjectRule:
    """Base class for call-graph-aware rules (RA007).

    Same id/severity/title/hint surface as :class:`Rule`, but
    :meth:`check_project` receives the whole parsed
    :class:`~repro.analysis.callgraph.Project` and returns findings that
    name their own file.  The lint driver applies per-file suppression
    comments to them exactly as for per-file rules.
    """

    id: str = ""
    severity: str = "error"
    title: str = ""
    hint: str = ""

    def check_project(self, project) -> list[ProjectRawFinding]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# Generic AST utilities
# --------------------------------------------------------------------- #


def attach_parents(tree: ast.AST) -> None:
    """Attach a ``_repro_parent`` link to every node (rules need context)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_repro_parent", None)


def names_loaded(node: ast.AST) -> set[str]:
    """Every name read anywhere inside ``node``."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _function_body(fn: ast.AST) -> list[ast.stmt] | ast.expr:
    if isinstance(fn, ast.Lambda):
        return fn.body
    return fn.body  # type: ignore[return-value]


def _param_names(fn: ast.AST) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def bound_names(fn: ast.AST) -> set[str]:
    """Names bound inside a function/lambda: params, assignments, loop and
    comprehension targets, ``with ... as`` targets, local imports and defs.

    Nested function bodies are *not* descended into (their bindings are not
    visible in the enclosing scope), but their names are bound.
    """
    bound = set(_param_names(fn))
    body = _function_body(fn)
    nodes = body if isinstance(body, list) else [body]
    for stmt in nodes:
        for node in _walk_same_scope(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    bound |= _target_names(t)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bound |= _target_names(node.target)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                bound |= _target_names(node.optional_vars)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # Comprehension targets leak nothing in py3, but treat them
                # as bound so they never look like captured state.
                for gen in node.generators:
                    bound |= _target_names(gen.target)
    return bound


def _walk_same_scope(node: ast.AST):
    """``ast.walk`` that does not descend into nested function bodies."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_same_scope(child)


def _target_names(target: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def free_names(fn: ast.AST) -> set[str]:
    """Names a function/lambda reads from enclosing scopes (captures)."""
    return names_loaded(fn if isinstance(fn, ast.Lambda) else fn) - bound_names(fn)


def subscript_root(node: ast.expr) -> ast.expr:
    """The base expression under a chain of subscripts: ``a[i][j]`` -> ``a``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def subscript_indices(node: ast.expr) -> list[ast.expr]:
    """All index expressions along a chain of subscripts."""
    indices = []
    while isinstance(node, ast.Subscript):
        indices.append(node.slice)
        node = node.value
    return indices


# --------------------------------------------------------------------- #
# Task-context discovery
# --------------------------------------------------------------------- #


@dataclass
class TaskContext:
    """A function or lambda body that executes on a pool worker.

    Attributes
    ----------
    node:
        The ``FunctionDef`` or ``Lambda`` node.
    kind:
        ``"kernel"`` (``fn(worker, start, stop, *shared)`` region kernels)
        or ``"task"`` (zero/few-arg callables from ``run_tasks`` lists).
    partition:
        Parameter names that carry the worker's partition (worker index
        and block bounds).  Writes indexed through these (or names derived
        from them) respect the contiguous-block contract.
    shared:
        Names visible in the body that refer to *shared* state: non-
        partition parameters (kernel operands) and captured free variables.
    """

    node: ast.AST
    kind: str
    partition: set[str] = field(default_factory=set)
    shared: set[str] = field(default_factory=set)

    @property
    def line(self) -> int:
        return self.node.lineno


def _is_region_launch(call: ast.Call) -> str | None:
    """``"run_tasks"``/``"parallel_for"`` if ``call`` launches a region."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in REGION_LAUNCHERS:
        return fn.attr
    if isinstance(fn, ast.Name) and fn.id in REGION_LAUNCHERS:
        return fn.id
    return None


def _local_defs(tree: ast.AST) -> dict[str, ast.AST]:
    """Every named function definition in the module, by name."""
    defs: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
    return defs


def _kernel_context(fn: ast.AST) -> TaskContext:
    params = _param_names(fn)
    partition = set(params[:3])
    shared = set(params[3:]) | free_names(fn)
    return TaskContext(fn, "kernel", partition, shared)


def _task_closure_context(fn: ast.AST) -> TaskContext:
    # run_tasks callables carry their identity via default-bound params
    # (``lambda t=t, start=start, stop=stop: ...``); those params are the
    # partition.  Everything captured is shared.
    partition = set(_param_names(fn))
    shared = free_names(fn)
    return TaskContext(fn, "task", partition, shared)


def _closures_in(expr: ast.expr, defs: dict[str, ast.AST],
                 scope: ast.AST) -> list[ast.AST]:
    """Callables contributed by a run_tasks argument expression.

    Handles inline lambdas, list literals and comprehensions of lambdas,
    and a local name assigned/appended such callables within ``scope``.
    """
    found: list[ast.AST] = []
    if isinstance(expr, ast.Lambda):
        return [expr]
    if isinstance(expr, (ast.List, ast.Tuple)):
        for elt in expr.elts:
            found.extend(_closures_in(elt, defs, scope))
        return found
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        return _closures_in(expr.elt, defs, scope)
    if isinstance(expr, ast.IfExp):
        return (_closures_in(expr.body, defs, scope)
                + _closures_in(expr.orelse, defs, scope))
    if isinstance(expr, ast.Name):
        name = expr.id
        if name in defs:
            return [defs[name]]
        # A list built locally: ``name = [...]`` / ``name.append(...)``.
        for node in ast.walk(scope):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == name
                            for t in node.targets)):
                found.extend(_closures_in(node.value, defs, scope))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                    and node.args):
                found.extend(_closures_in(node.args[0], defs, scope))
    if isinstance(expr, ast.Call):
        # e.g. ``timed(i, task)`` wrappers — look inside the arguments.
        for arg in expr.args:
            found.extend(_closures_in(arg, defs, scope))
    return found


def find_task_contexts(tree: ast.Module) -> list[TaskContext]:
    """Discover every task context in a module (see module docstring).

    Three sources, matching this repo's region idioms:

    1. module-level functions named ``_k_*`` (the documented kernel naming
       convention for region kernels);
    2. the first argument of any ``*.parallel_for(fn, ...)`` call, resolved
       to a lambda or a locally/module-defined function;
    3. callables inside the first argument of any ``*.run_tasks(...)``
       call (inline lambdas, list literals/comprehensions, or a local name
       those were assigned/appended to).
    """
    defs = _local_defs(tree)
    contexts: dict[int, TaskContext] = {}

    for name, fn in defs.items():
        if name.startswith("_k_"):
            contexts[id(fn)] = _kernel_context(fn)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        launcher = _is_region_launch(node)
        if launcher is None or not node.args:
            continue
        scope = _enclosing_scope(node, tree)
        first = node.args[0]
        if launcher == "parallel_for":
            target: ast.AST | None = None
            if isinstance(first, ast.Lambda):
                target = first
            elif isinstance(first, ast.Name) and first.id in defs:
                target = defs[first.id]
            if target is not None and id(target) not in contexts:
                contexts[id(target)] = _kernel_context(target)
        else:  # run_tasks
            for fn in _closures_in(first, defs, scope):
                if id(fn) not in contexts:
                    if isinstance(fn, ast.Lambda):
                        contexts[id(fn)] = _task_closure_context(fn)
                    else:
                        ctx = (_kernel_context(fn)
                               if len(_param_names(fn)) >= 3
                               else _task_closure_context(fn))
                        contexts[id(fn)] = ctx
    return list(contexts.values())


def _enclosing_scope(node: ast.AST, tree: ast.Module) -> ast.AST:
    cur = parent_of(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            return cur
        cur = parent_of(cur)
    return tree


# --------------------------------------------------------------------- #
# Partition-derived name propagation
# --------------------------------------------------------------------- #


def derived_names(ctx: TaskContext) -> set[str]:
    """Names provably derived from the context's partition parameters.

    Seeds with the partition params and any name assigned from a
    :data:`PARTITION_SOURCES` call, then iterates to a fixed point over the
    body: an assignment (or ``for`` target) whose right-hand side mentions
    a derived name makes its targets derived.  This is deliberately
    generous about *how* the derivation happens (``int(pairs[i, 0])``,
    tuple unpacking, ``enumerate`` over a derived slice, arithmetic) —
    the point of RA001 is writes with **no** connection to the partition.
    """
    derived = set(ctx.partition)
    body = _function_body(ctx.node)
    stmts = body if isinstance(body, list) else [body]

    def mentions_derived(expr: ast.AST) -> bool:
        if any(n in derived for n in names_loaded(expr)):
            return True
        for node in ast.walk(expr):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))):
                fname = (node.func.id if isinstance(node.func, ast.Name)
                         else node.func.attr)
                if fname in PARTITION_SOURCES:
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for stmt in stmts:
            for node in _walk_same_scope(stmt) if isinstance(stmt, ast.stmt) \
                    else ast.walk(stmt):
                targets: list[ast.AST] = []
                source: ast.AST | None = None
                if isinstance(node, ast.Assign):
                    targets, source = node.targets, node.value
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if node.value is not None:
                        targets, source = [node.target], node.value
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    targets, source = [node.target], node.iter
                if source is None or not mentions_derived(source):
                    continue
                for t in targets:
                    new = _target_names(t) - derived
                    if new:
                        derived |= new
                        changed = True
    return derived
