"""Whole-run result cache for ``repro lint`` (``--cache``).

Linting the tree costs a few seconds of AST walking and interprocedural
fixpointing; in a pre-commit hook or a tight edit loop that latency is
paid on every invocation even when nothing changed.  This module caches
the *entire* :class:`~repro.analysis.engine.LintReport` keyed by a
fingerprint of everything the run can observe:

* the lint inputs — every collected file's path, ``mtime_ns`` and size
  (content hashing would defeat the point; mtime+size is the same
  staleness contract ``make`` uses);
* the rule set — rule ids of the checkers in play, so adding or removing
  a checker invalidates;
* out-of-band dependencies — the allowlist file and the docs the
  doc-drift checker reads (:data:`EXTRA_DEPENDENCIES`).

Touching any input produces a different key, which misses and falls
through to a real run; the new result then replaces the stored entry
(the cache holds exactly one run — the common warm case is "re-lint the
same tree", not an LRU workload).  :attr:`LintCache.hits` /
:attr:`LintCache.misses` count lookups for tests and the CLI footer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = ["EXTRA_DEPENDENCIES", "LintCache"]

CACHE_VERSION = 1

DEFAULT_CACHE_NAME = ".repro-lint-cache.json"

#: Repo-relative files that checkers read besides the linted sources.
EXTRA_DEPENDENCIES = ("docs/OBSERVABILITY.md",)


def _stat_token(path: Path) -> str:
    """``mtime_ns:size`` for an existing file, ``absent`` otherwise."""
    try:
        stat = path.stat()
    except OSError:
        return "absent"
    return f"{stat.st_mtime_ns}:{stat.st_size}"


class LintCache:
    """Single-entry report cache persisted as JSON at ``path``."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.hits = 0
        self.misses = 0

    def key_for(
        self,
        *,
        root: Path,
        files: list[Path],
        rule_ids: list[str],
        extra_paths: list[Path | None] = (),  # type: ignore[assignment]
    ) -> str:
        """Deterministic fingerprint of one run's observable inputs."""
        digest = hashlib.sha256()
        digest.update(f"version={CACHE_VERSION}\n".encode())
        digest.update(("rules=" + ",".join(sorted(rule_ids)) + "\n").encode())
        for relpath in EXTRA_DEPENDENCIES:
            dep = root / relpath
            digest.update(f"dep={relpath}={_stat_token(dep)}\n".encode())
        for extra in extra_paths:
            if extra is not None:
                digest.update(f"extra={extra}={_stat_token(extra)}\n".encode())
        for file_path in sorted(files):
            digest.update(
                f"file={file_path}={_stat_token(file_path)}\n".encode()
            )
        return digest.hexdigest()

    # -- persistence ----------------------------------------------------

    def lookup(self, key: str) -> "dict[str, object] | None":
        """The stored report payload for ``key``, counting hit/miss."""
        entry = self._read()
        if entry is not None and entry.get("key") == key:
            self.hits += 1
            return entry["report"]  # type: ignore[return-value]
        self.misses += 1
        return None

    def store(self, key: str, report_payload: dict[str, object]) -> None:
        """Replace the cache with ``key``'s result (atomic rename)."""
        document = {
            "version": CACHE_VERSION,
            "key": key,
            "report": report_payload,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        tmp.replace(self.path)

    def _read(self) -> "dict[str, object] | None":
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or not isinstance(data.get("report"), dict)
        ):
            return None
        return data

    # -- report payload round-trip --------------------------------------

    @staticmethod
    def encode_report(report: "object") -> dict[str, object]:
        """JSON payload for a :class:`LintReport` (rules are re-derived)."""
        return {
            "findings": [f.as_dict() for f in report.findings],  # type: ignore[attr-defined]
            "suppressed": [f.as_dict() for f in report.suppressed],  # type: ignore[attr-defined]
            "files_checked": report.files_checked,  # type: ignore[attr-defined]
            "rules_run": report.rules_run,  # type: ignore[attr-defined]
        }

    @staticmethod
    def decode_findings(payload: dict[str, object], key: str) -> list[Finding]:
        raw = payload.get(key, [])
        return [Finding.from_dict(item) for item in raw]  # type: ignore[union-attr]
