"""Counter/doc drift checker.

``docs/OBSERVABILITY.md`` is the registry of record for every counter
name the code emits; this checker extracts every ``.increment(`` /
``.counter(`` call-site name (f-string placeholders normalize to
``<name>``) and reports any name the document does not mention, as a
structured finding at the emitting line.  Folding it into
the framework means one driver (``repro lint``) runs the whole static
suite.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.base import Checker, Project
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.source import ModuleSource

__all__ = ["CounterDocsChecker", "extract_counter_names"]

_CALL = re.compile(r"\.(?:increment|counter)\(")
_LITERAL = re.compile(r"""(f?)(["'])([A-Za-z0-9_.{}-]+)\2""")

#: Repo-relative path of the registry of record.
DOC_RELPATH = "docs/OBSERVABILITY.md"


def extract_counter_names(module: ModuleSource) -> dict[str, int]:
    """Counter names emitted by ``module``, mapped to their first line.

    F-string placeholders are normalized (``f"network.bytes.{kind}"``
    matches the documented ``network.bytes.<kind>``); only dotted
    literals count — plain words near an ``increment(`` call are not
    counter names.
    """
    names: dict[str, int] = {}
    for lineno, line in enumerate(module.lines, start=1):
        if not _CALL.search(line):
            continue
        for _, _, text in _LITERAL.findall(line):
            if "." not in text:
                continue
            name = re.sub(r"\{([^}]*)\}", r"<\1>", text)
            names.setdefault(name, lineno)
    return names


class CounterDocsChecker(Checker):
    """Every emitted counter name must appear in docs/OBSERVABILITY.md."""

    name = "docs"
    rules = (
        Rule(
            id="docs.undocumented-counter",
            severity=Severity.ERROR,
            summary="counter name emitted but absent from docs/OBSERVABILITY.md",
            hint="add the counter (and its meaning) to the registry table in "
            "docs/OBSERVABILITY.md",
        ),
        Rule(
            id="docs.registry-missing",
            severity=Severity.ERROR,
            summary="counters are emitted but docs/OBSERVABILITY.md is absent",
            hint="restore the observability registry document",
        ),
    )

    def check(self, project: Project) -> Iterator[Finding]:
        emitting: list[tuple[ModuleSource, dict[str, int]]] = []
        for module in project.modules:
            names = extract_counter_names(module)
            if names:
                emitting.append((module, names))
        if not emitting:
            return

        doc = project.doc_text(DOC_RELPATH)
        if doc is None:
            module, names = emitting[0]
            first = sorted(names, key=lambda n: names[n])[0]
            yield self.finding(
                "docs.registry-missing",
                module,
                names[first],
                f"counters are emitted (first: {first!r}) but "
                f"{DOC_RELPATH} does not exist",
            )
            return

        for module, names in emitting:
            for name in sorted(names, key=lambda n: (names[n], n)):
                if name not in doc:
                    yield self.finding(
                        "docs.undocumented-counter",
                        module,
                        names[name],
                        f"counter {name!r} is not documented in {DOC_RELPATH}",
                    )
