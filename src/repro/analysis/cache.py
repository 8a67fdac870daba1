"""Incremental result cache for the analyzer.

Re-linting an unchanged tree should cost file reads and hash checks, not
AST parses and interprocedural fixpoints.  The cache stores, per file,
the content hash and the findings produced last time; per project, a
digest over every linted file.

The cache is keyed by the active rule-set signature: running with
``--rules RA001`` and then without must not serve each other's results.
A version or signature mismatch silently discards the stored state —
the cache is an accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

__all__ = ["LintCache", "DEFAULT_CACHE_PATH"]

_VERSION = 1

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_PATH = ".repro-analysis-cache.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class LintCache:
    """Content-hash keyed cache of per-file and project-pass findings."""

    def __init__(self, path: str | Path, rules_key: str) -> None:
        self.path = Path(path)
        self.rules_key = rules_key
        self._files: dict[str, dict] = {}
        self._project: dict | None = None
        self.hits = 0
        self.misses = 0
        self._load()

    @staticmethod
    def rules_signature(rules, project_rules) -> str:
        ids = sorted(r.id for r in rules) + sorted(r.id for r in project_rules)
        return _sha256(",".join(ids))[:16]

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (data.get("version") != _VERSION
                or data.get("rules_key") != self.rules_key):
            return
        self._files = data.get("files", {})
        self._project = data.get("project")

    def save(self) -> None:
        payload = {
            "version": _VERSION,
            "rules_key": self.rules_key,
            "files": self._files,
            "project": self._project,
        }
        self.path.write_text(json.dumps(payload), encoding="utf-8")

    # -- per-file results ----------------------------------------------- #

    def get_file(self, path: str, source: str):
        from repro.analysis.lint import Finding

        entry = self._files.get(path)
        if entry is None or entry["hash"] != _sha256(source):
            self.misses += 1
            return None
        self.hits += 1
        return [Finding(**f) for f in entry["findings"]]

    def put_file(self, path: str, source: str, findings) -> None:
        self._files[path] = {
            "hash": _sha256(source),
            "findings": [asdict(f) for f in findings],
        }

    # -- project pass --------------------------------------------------- #

    def project_digest(self, files: list[Path],
                       sources: dict[str, str]) -> str:
        """Digest of everything the project rules can observe."""
        h = hashlib.sha256()
        for f in files:
            h.update(str(f).encode())
            h.update(_sha256(sources.get(str(f), "")).encode())
        return h.hexdigest()

    def get_project(self, digest: str):
        from repro.analysis.lint import Finding

        entry = self._project
        if entry is None or entry["digest"] != digest:
            self.misses += 1
            return None
        self.hits += 1
        return [Finding(**f) for f in entry["findings"]]

    def put_project(self, digest: str, findings) -> None:
        self._project = {
            "digest": digest,
            "findings": [asdict(f) for f in findings],
        }
