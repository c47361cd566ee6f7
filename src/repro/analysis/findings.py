"""Finding/rule data model for the static-analysis suite.

A :class:`Rule` is the *description* of something that can go wrong
(stable id, severity, what it means, how to fix it); a :class:`Finding`
is one concrete occurrence of a rule at a ``file:line``.  Rule ids are
dotted, ``<checker>.<slug>`` (e.g. ``privacy.raw-data-to-network``) —
the pragma and allowlist machinery key on them, so ids are part of the
public contract and must stay stable across refactors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail ``repro lint`` unconditionally; ``WARNING``
    findings fail only under ``--strict`` (the CI configuration).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Rule:
    """Static description of one lint rule.

    Attributes
    ----------
    id:
        Stable dotted identifier, ``<checker>.<slug>``.
    severity:
        Default severity of findings for this rule.
    summary:
        One-line description (shown by ``repro lint --list-rules``).
    hint:
        How to fix or legitimately suppress occurrences.
    """

    id: str
    severity: Severity
    summary: str
    hint: str = ""

    def __post_init__(self) -> None:
        if "." not in self.id or self.id != self.id.strip().lower():
            raise ValueError(f"rule ids are dotted lowercase slugs, got {self.id!r}")


@dataclass(frozen=True)
class Finding:
    """One occurrence of a rule violation.

    Attributes
    ----------
    rule:
        The violated rule's id.
    severity:
        Severity of this occurrence (normally the rule's default).
    path:
        Repo-relative POSIX path of the offending file.
    line:
        1-based line number of the offending statement.
    message:
        Human-readable description of this specific occurrence.
    hint:
        Fix suggestion (defaults to the rule's hint).
    source:
        The offending source line, stripped (for text reports).
    trace:
        Optional source→sink path for interprocedural findings: each
        step is ``"path:line description"``, outermost (the sink) first,
        the taint origin last.  Empty for single-site findings.
    suppressed_by:
        ``None`` for active findings; ``"pragma"`` or ``"allowlist"``
        when the occurrence was audited away (kept for reporting).
    """

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    hint: str = ""
    source: str = ""
    trace: tuple[str, ...] = ()
    suppressed_by: str | None = field(default=None, compare=False)

    def sort_key(self) -> tuple[str, int, str]:
        """Deterministic report ordering: by file, then line, then rule."""
        return (self.path, self.line, self.rule)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "source": self.source,
            "trace": list(self.trace),
            "suppressed_by": self.suppressed_by,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Finding":
        """Inverse of :meth:`as_dict` (used by the result cache)."""
        return cls(
            rule=str(data["rule"]),
            severity=Severity(data["severity"]),
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            message=str(data["message"]),
            hint=str(data.get("hint", "")),
            source=str(data.get("source", "")),
            trace=tuple(str(step) for step in data.get("trace", ())),  # type: ignore[union-attr]
            suppressed_by=(
                str(data["suppressed_by"])
                if data.get("suppressed_by") is not None
                else None
            ),
        )
