"""docs/OBSERVABILITY.md must cover every counter the code emits.

The extraction lives in the static-analysis suite
(``repro.analysis.checkers.docs``) and runs in CI as the
``docs.undocumented-counter`` rule of ``repro lint``.  It is exercised
here over the real source tree, so a new
``metrics.increment("new.counter", ...)`` call site fails the suite
until the counter is documented.
"""

import sys
from pathlib import Path

from repro.analysis import Project, run_lint
from repro.analysis.checkers.docs import CounterDocsChecker, extract_counter_names
from repro.analysis.source import ModuleSource

ROOT = Path(__file__).resolve().parent.parent


def _source_modules() -> list[ModuleSource]:
    paths = sorted((ROOT / "src" / "repro").rglob("*.py"))
    return [ModuleSource.load(path, ROOT) for path in paths]


def test_every_emitted_counter_documented():
    names = {name for module in _source_modules() for name in extract_counter_names(module)}
    # Extraction sanity: the well-known counters must be found...
    assert "network.bytes.<kind>" in names
    assert "crypto.secure_sum_rounds" in names
    assert "scheduler.remote_tasks" in names  # conditional-expression call site
    # ...and every found name must appear in the doc.
    doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    missing = sorted(name for name in names if name not in doc)
    assert not missing, f"undocumented counters: {missing}"


def test_lint_script_exit_code():
    report = run_lint(ROOT, checkers=[CounterDocsChecker()], use_default_allowlist=False)
    assert report.findings == []
    assert report.exit_code(strict=True) == 0


def test_lint_detects_missing_name(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text("nothing documented here")
    project = Project(root=tmp_path, modules=_source_modules())
    findings = list(CounterDocsChecker().check(project))
    assert findings
    assert {f.rule for f in findings} == {"docs.undocumented-counter"}
    assert "crypto.secure_sum_rounds" in " ".join(f.message for f in findings)


def test_docs_checker_flags_undocumented_counter(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text("`known.counter`\n")
    src = tmp_path / "mod.py"
    src.write_text(
        'metrics.increment("known.counter", 1)\n'
        'metrics.increment("rogue.counter", 1)\n'
    )
    project = Project(root=tmp_path, modules=[ModuleSource.load(src, tmp_path)])
    findings = list(CounterDocsChecker().check(project))
    assert [(f.rule, f.line) for f in findings] == [("docs.undocumented-counter", 2)]
    assert "rogue.counter" in findings[0].message


def test_docs_checker_part_of_default_lint(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text("registry\n")
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "mod.py").write_text('metrics.increment("ghost.counter", 1)\n')
    report = run_lint(tmp_path)
    assert [f.rule for f in report.findings] == ["docs.undocumented-counter"]
    assert report.exit_code() == 1


if __name__ == "__main__":
    sys.exit(0)
