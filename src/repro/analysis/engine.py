"""Lint driver: collect files, run checkers, apply suppressions, report.

:func:`run_lint` is the single entry point used by the ``repro lint``
CLI, the test suite, and CI.  It

1. collects ``.py`` files under the requested paths (sorted, so runs
   are deterministic),
2. parses each into a :class:`~repro.analysis.source.ModuleSource`
   (syntax errors become ``lint.syntax-error`` findings instead of
   crashing the run),
3. runs every checker over the :class:`~repro.analysis.base.Project`,
4. suppresses findings covered by a ``# repro-lint: disable=...``
   pragma or an allowlist entry (suppressed findings are kept, marked,
   for auditing), and
5. reports allowlist entries that matched nothing
   (``lint.unused-allowlist-entry``) so dead exceptions are cleaned up.

With a :class:`~repro.analysis.cache.LintCache`, the whole run is
keyed on its observable inputs and served from the previous result
when nothing changed.

Exit-code policy lives in :meth:`LintReport.exit_code`: ERROR findings
always fail; WARNING findings fail only under ``--strict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.allowlist import (
    DEFAULT_ALLOWLIST_NAME,
    Allowlist,
)
from repro.analysis.base import Checker, Project
from repro.analysis.cache import LintCache
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource

__all__ = ["LintReport", "run_lint", "default_checkers", "all_rules"]

#: Framework-level rules (not owned by any checker).
ENGINE_RULES = (
    Rule(
        id="lint.syntax-error",
        severity=Severity.ERROR,
        summary="file does not parse",
        hint="fix the syntax error; unparsable files cannot be analyzed",
    ),
    Rule(
        id="lint.unused-allowlist-entry",
        severity=Severity.WARNING,
        summary="allowlist entry matched no finding",
        hint="delete the stale entry from .repro-lint.toml",
    ),
)


def default_checkers() -> list[Checker]:
    """Fresh instances of the six shipped checkers, in reporting order."""
    from repro.analysis.checkers.crypto import CryptoMisuseChecker
    from repro.analysis.checkers.determinism import DeterminismChecker
    from repro.analysis.checkers.docs import CounterDocsChecker
    from repro.analysis.checkers.privacy import PrivacyTaintChecker
    from repro.analysis.checkers.protocol import ProtocolInvariantChecker
    from repro.analysis.interproc import InterproceduralTaintChecker

    return [
        PrivacyTaintChecker(),
        InterproceduralTaintChecker(),
        ProtocolInvariantChecker(),
        CryptoMisuseChecker(),
        DeterminismChecker(),
        CounterDocsChecker(),
    ]


def all_rules(checkers: list[Checker] | None = None) -> list[Rule]:
    """Every rule the suite can emit, engine rules included, sorted by id."""
    checkers = checkers if checkers is not None else default_checkers()
    rules = list(ENGINE_RULES)
    for checker in checkers:
        rules.extend(checker.rules)
    return sorted(rules, key=lambda rule: rule.id)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: int = 0
    #: Every rule the run could have emitted (drives SARIF metadata).
    rules: list[Rule] = field(default_factory=list)
    #: "hit" when served from the result cache, "miss" after a cached
    #: run, "" when no cache was in play.
    cache_status: str = ""

    def errors(self) -> list[Finding]:
        """Active findings with ERROR severity."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> list[Finding]:
        """Active findings with WARNING severity."""
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def exit_code(self, *, strict: bool = False) -> int:
        """0 when acceptable, 1 when findings fail the run."""
        if self.errors():
            return 1
        if strict and self.warnings():
            return 1
        return 0

    # -- output formats -------------------------------------------------

    def format_text(self, *, show_suppressed: bool = False) -> str:
        """Human-readable report (the default CLI output)."""
        lines: list[str] = []
        for finding in self.findings:
            lines.append(
                f"{finding.path}:{finding.line}: {finding.severity.value} "
                f"[{finding.rule}] {finding.message}"
            )
            if finding.source:
                lines.append(f"    {finding.source}")
            if finding.hint:
                lines.append(f"    hint: {finding.hint}")
        if show_suppressed:
            for finding in self.suppressed:
                lines.append(
                    f"{finding.path}:{finding.line}: suppressed "
                    f"({finding.suppressed_by}) [{finding.rule}] {finding.message}"
                )
        summary = (
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s), "
            f"{len(self.suppressed)} suppressed, {self.files_checked} file(s) "
            f"checked, {self.rules_run} rule(s)"
        )
        if self.cache_status:
            summary += f" [cache {self.cache_status}]"
        lines.append(summary)
        return "\n".join(lines)

    def format_json(self) -> str:
        """Machine-readable report (``--format json``)."""
        return json.dumps(
            {
                "findings": [f.as_dict() for f in self.findings],
                "suppressed": [f.as_dict() for f in self.suppressed],
                "files_checked": self.files_checked,
                "rules_run": self.rules_run,
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
            },
            indent=2,
        )

    def format_github(self) -> str:
        """GitHub Actions workflow commands (``--format github``) so CI
        annotates the offending lines directly on the pull request."""
        lines = []
        for finding in self.findings:
            level = "error" if finding.severity is Severity.ERROR else "warning"
            message = f"[{finding.rule}] {finding.message}"
            if finding.hint:
                message += f" — {finding.hint}"
            # Workflow-command data must stay on one line.
            message = message.replace("%", "%25").replace("\n", "%0A")
            lines.append(
                f"::{level} file={finding.path},line={finding.line},"
                f"title={finding.rule}::{message}"
            )
        return "\n".join(lines)

    def format_sarif(self) -> str:
        """SARIF 2.1.0 document (``--format sarif``) for code-scanning UIs.

        Active findings become ``results``; pragma/allowlist-suppressed
        findings are included with a ``suppressions`` entry so
        scanners show them as reviewed rather than silently dropping
        them.  Interprocedural traces map onto ``codeFlows``.
        """
        rules = sorted(self.rules, key=lambda rule: rule.id)
        rule_index = {rule.id: i for i, rule in enumerate(rules)}

        def location(path: str, line: int, text: str = "") -> dict:
            entry: dict = {
                "physicalLocation": {
                    "artifactLocation": {"uri": path},
                    "region": {"startLine": max(line, 1)},
                }
            }
            if text:
                entry["message"] = {"text": text}
            return entry

        def result(finding: Finding) -> dict:
            entry: dict = {
                "ruleId": finding.rule,
                "level": finding.severity.value,
                "message": {"text": finding.message},
                "locations": [location(finding.path, finding.line)],
            }
            if finding.rule in rule_index:
                entry["ruleIndex"] = rule_index[finding.rule]
            if finding.trace:
                flow_locations = []
                for step in finding.trace:
                    site, _, description = step.partition(" ")
                    path, _, line_text = site.rpartition(":")
                    line = int(line_text) if line_text.isdigit() else 1
                    flow_locations.append(
                        {"location": location(path, line, description)}
                    )
                entry["codeFlows"] = [
                    {"threadFlows": [{"locations": flow_locations}]}
                ]
            if finding.suppressed_by is not None:
                kind = "inSource" if finding.suppressed_by == "pragma" else "external"
                entry["suppressions"] = [
                    {"kind": kind, "justification": finding.suppressed_by}
                ]
            return entry

        document = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": "docs/STATIC_ANALYSIS.md",
                            "rules": [
                                {
                                    "id": rule.id,
                                    "shortDescription": {"text": rule.summary},
                                    "help": {"text": rule.hint},
                                    "defaultConfiguration": {
                                        "level": rule.severity.value
                                    },
                                }
                                for rule in rules
                            ],
                        }
                    },
                    "results": [
                        result(f) for f in [*self.findings, *self.suppressed]
                    ],
                }
            ],
        }
        return json.dumps(document, indent=2)


def _collect_files(paths: list[Path]) -> list[Path]:
    """All .py files under ``paths`` (files kept as-is), sorted, deduped."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                seen.setdefault(candidate.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return sorted(seen)


def run_lint(
    root: Path,
    paths: list[Path] | None = None,
    *,
    checkers: list[Checker] | None = None,
    allowlist: Allowlist | None = None,
    use_default_allowlist: bool = True,
    cache: LintCache | None = None,
) -> LintReport:
    """Lint ``paths`` (default: ``root/src``) and return the report.

    Parameters
    ----------
    root:
        Repo root; finding paths are reported relative to it, and the
        default allowlist (``.repro-lint.toml``) and the observability
        registry are resolved against it.
    paths:
        Files or directories to lint.
    checkers:
        Checker instances to run (defaults to the six shipped ones).
    allowlist:
        Pre-loaded allowlist; overrides the default lookup.
    use_default_allowlist:
        When True and ``allowlist`` is None, load
        ``root/.repro-lint.toml`` if it exists.
    cache:
        Whole-run result cache (``--cache``).  A hit skips the run
        entirely; any change to the linted files, the rule set, the
        allowlist, or the checker-read docs misses.
    """
    root = root.resolve()
    if paths is None:
        paths = [root / "src"]
    if checkers is None:
        checkers = default_checkers()
    if allowlist is None and use_default_allowlist:
        default_path = root / DEFAULT_ALLOWLIST_NAME
        if default_path.is_file():
            allowlist = Allowlist.load(default_path)

    collected = _collect_files(list(paths))
    run_rules = all_rules(checkers)

    cache_key: str | None = None
    if cache is not None:
        cache_key = cache.key_for(
            root=root,
            files=collected,
            rule_ids=[rule.id for rule in run_rules],
            extra_paths=[Path(allowlist.path) if allowlist is not None else None],
        )
        payload = cache.lookup(cache_key)
        if payload is not None:
            return LintReport(
                findings=LintCache.decode_findings(payload, "findings"),
                suppressed=LintCache.decode_findings(payload, "suppressed"),
                files_checked=int(payload["files_checked"]),  # type: ignore[arg-type]
                rules_run=int(payload["rules_run"]),  # type: ignore[arg-type]
                rules=run_rules,
                cache_status="hit",
            )

    engine_rules = {rule.id: rule for rule in ENGINE_RULES}
    project = Project(root=root)
    raw_findings: list[Finding] = []

    for file_path in collected:
        module = ModuleSource.load(file_path, root)
        project.modules.append(module)
        if module.tree is None:
            rule = engine_rules["lint.syntax-error"]
            raw_findings.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    path=module.relpath,
                    line=1,
                    message="file does not parse as Python",
                    hint=rule.hint,
                )
            )

    for checker in checkers:
        raw_findings.extend(checker.check(project))

    modules_by_path = {module.relpath: module for module in project.modules}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw_findings:
        module = modules_by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.rule, finding.line):
            suppressed.append(replace(finding, suppressed_by="pragma"))
            continue
        if allowlist is not None and allowlist.match(finding) is not None:
            suppressed.append(replace(finding, suppressed_by="allowlist"))
            continue
        active.append(finding)

    if allowlist is not None:
        rule = engine_rules["lint.unused-allowlist-entry"]
        for entry in allowlist.unused_entries():
            active.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    path=allowlist.path,
                    line=1,
                    message=(
                        f"entry (rule={entry.rule!r}, path={entry.path!r}) "
                        "matched no finding"
                    ),
                    hint=rule.hint,
                )
            )

    n_rules = len(ENGINE_RULES) + sum(len(checker.rules) for checker in checkers)
    report = LintReport(
        findings=sorted(active, key=Finding.sort_key),
        suppressed=sorted(suppressed, key=Finding.sort_key),
        files_checked=len(project.modules),
        rules_run=n_rules,
        rules=run_rules,
        cache_status="miss" if cache is not None else "",
    )
    if cache is not None and cache_key is not None:
        cache.store(cache_key, LintCache.encode_report(report))
    return report
