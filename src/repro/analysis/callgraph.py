"""Project-level module, import, and call graph for the analyzer.

The per-file rules (RA001–RA004, RA006, RA008) see one ``ast.Module`` at a time;
the project rule RA007 needs to follow a numpy view created in
``cp_als`` through a helper in another module into a ``_k_*`` kernel.
This module provides the shared substrate:

* :class:`ModuleInfo` — one parsed source file: dotted module name,
  import map (local name -> fully qualified target), and the function
  definitions it contains;
* :class:`Project` — the set of modules under analysis, a
  name-resolution service (``resolve_call``), and the induced call graph
  (``callees`` / ``reachable``).

Resolution is purely syntactic and deliberately conservative: only
plain-name calls (``helper(...)``), imported-name calls (``from m import
helper``), and module-attribute calls (``import m; m.helper(...)``) are
resolved; method calls on objects are not.  An unresolved call simply
contributes no edge — the project rules err quiet, like the per-file
rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "module_name_for",
]


@dataclass
class FunctionInfo:
    """One function/async-function definition in the project."""

    qualname: str  # "repro.core.dispatch.mttkrp" (nested: outer.inner)
    name: str
    module: "ModuleInfo"
    node: ast.AST

    @property
    def path(self) -> str:
        return self.module.path

    @property
    def line(self) -> int:
        return self.node.lineno


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py``
    packages.  A file outside any package is its bare stem."""
    path = Path(path).resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    cur = path.parent
    while (cur / "__init__.py").exists():
        parts.insert(0, cur.name)
        parent = cur.parent
        if parent == cur:
            break
        cur = parent
    return ".".join(parts) if parts else path.stem


class ModuleInfo:
    """One parsed module: AST plus import map and function table."""

    def __init__(self, path: Path, name: str, source: str,
                 tree: ast.Module) -> None:
        self.path = str(path)
        self.name = name
        self.source = source
        self.tree = tree
        #: local name -> fully qualified target ("np" -> "numpy",
        #: "mttkrp_onestep" -> "repro.core.mttkrp_onestep.mttkrp_onestep")
        self.imports: dict[str, str] = {}
        #: dotted-in-module name ("outer.inner") -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        self._index()

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        # ``import repro.core.krp`` binds "repro" but the
                        # dotted path is what attribute calls resolve by.
                        self.imports[head] = head
                        self.imports[alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: resolve against this module's package.
                    anchor_parts = self.name.split(".")[: -node.level]
                    anchor = ".".join(anchor_parts)
                    base = f"{anchor}.{base}".strip(".") if base else anchor
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name
        # Functions, with dotted names for nesting.
        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    dotted = f"{prefix}{child.name}"
                    info = FunctionInfo(
                        qualname=f"{self.name}.{dotted}",
                        name=child.name, module=self, node=child,
                    )
                    self.functions.setdefault(dotted, info)
                    visit(child, f"{dotted}.")
                elif isinstance(child, (ast.ClassDef,)):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(self.tree, "")


class Project:
    """A set of parsed modules plus the induced call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}  # by dotted name
        self.modules_by_path: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}  # by qualname
        self._edges: dict[str, set[str]] | None = None

    # -- loading -------------------------------------------------------- #

    @classmethod
    def load(
        cls, files: list[Path], *, sources: dict[str, str] | None = None
    ) -> "Project":
        """Parse ``files`` into a project.

        ``sources`` optionally supplies pre-read file contents (keyed by
        ``str(path)``) so the incremental cache can avoid double reads.
        """
        proj = cls()
        for f in files:
            f = Path(f)
            src = (sources or {}).get(str(f))
            if src is None:
                try:
                    src = f.read_text(encoding="utf-8")
                except OSError:
                    continue
            proj.add_module(f, src)
        return proj

    def add_module(self, path: Path, source: str) -> ModuleInfo | None:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return None
        mod = ModuleInfo(path, module_name_for(path), source, tree)
        self.modules[mod.name] = mod
        self.modules_by_path[str(Path(path).resolve())] = mod
        for info in mod.functions.values():
            self.functions[info.qualname] = info
        self._edges = None
        return mod

    # -- name resolution ------------------------------------------------ #

    def resolve_name(self, module: ModuleInfo, name: str) -> FunctionInfo | None:
        """Function a bare name refers to inside ``module``."""
        if name in module.functions:
            return module.functions[name]
        target = module.imports.get(name)
        if target is None:
            return None
        return self._function_by_qualname(target)

    def resolve_call(self, module: ModuleInfo,
                     call: ast.Call) -> FunctionInfo | None:
        """Project function a call expression refers to, if resolvable."""
        fn = call.func
        if isinstance(fn, ast.Name):
            return self.resolve_name(module, fn.id)
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            # ``alias.helper(...)`` where alias is an imported module.
            target_mod = module.imports.get(fn.value.id)
            if target_mod is not None:
                return self._function_by_qualname(f"{target_mod}.{fn.attr}")
        return None

    def _function_by_qualname(self, qualname: str) -> FunctionInfo | None:
        info = self.functions.get(qualname)
        if info is not None:
            return info
        # ``from pkg import mod`` then ``mod.fn`` resolves to
        # ``pkg.mod.fn`` only through the module table:
        mod_name, _, fn_name = qualname.rpartition(".")
        mod = self.modules.get(mod_name)
        if mod is not None:
            return mod.functions.get(fn_name)
        return None

    # -- call graph ----------------------------------------------------- #

    def callees(self, fn: FunctionInfo) -> list[FunctionInfo]:
        """Direct project-internal callees of ``fn`` (conservative)."""
        out: dict[str, FunctionInfo] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                target = self.resolve_call(fn.module, node)
                if target is not None and target.qualname != fn.qualname:
                    out[target.qualname] = target
        return list(out.values())

    def reachable(self, fn: FunctionInfo) -> list[FunctionInfo]:
        """``fn`` plus the transitive closure of its project callees."""
        seen: dict[str, FunctionInfo] = {fn.qualname: fn}
        frontier = [fn]
        while frontier:
            cur = frontier.pop()
            for nxt in self.callees(cur):
                if nxt.qualname not in seen:
                    seen[nxt.qualname] = nxt
                    frontier.append(nxt)
        return list(seen.values())
