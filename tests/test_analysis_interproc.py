"""Tests for the interprocedural engine, protocol checker, and CI infra.

Covers the whole-program half of the static-analysis suite added on top
of the per-module checkers:

* call-graph resolution (``repro.analysis.callgraph``);
* interprocedural taint summaries and source→sink traces
  (``repro.analysis.interproc``);
* protocol-invariant verification (``checkers/protocol.py``) against
  both broken fixtures and the real crypto implementations;
* the CI-grade outputs — SARIF and the whole-run result cache — at
  the API and CLI levels.
"""

import ast
import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintCache,
    Severity,
    run_lint,
)
from repro.analysis.callgraph import MAX_DISPATCH_CANDIDATES, CallGraph
from repro.analysis.base import Project
from repro.analysis.checkers.privacy import PrivacyTaintChecker
from repro.analysis.checkers.protocol import ProtocolInvariantChecker
from repro.analysis.interproc import InterproceduralTaintChecker
from repro.analysis.source import ModuleSource
from repro.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "lint"
LEAK_FIXTURE = "tests/fixtures/lint/interproc_leak.py"


def lint_fixture(name, **kwargs):
    kwargs.setdefault("use_default_allowlist", False)
    return run_lint(ROOT, [FIXTURES / name], **kwargs)


def project_for(paths):
    project = Project(root=ROOT)
    for path in paths:
        project.modules.append(ModuleSource.load(path, ROOT))
    return project


# -- call graph -----------------------------------------------------------


def build_graph(source, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(source)
    project = Project(root=tmp_path)
    project.modules.append(ModuleSource.load(path, tmp_path))
    return CallGraph.build(project), project


def first_call(project, name):
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                attr = getattr(func, "attr", getattr(func, "id", None))
                if attr == name:
                    return node
    raise AssertionError(f"no call to {name} in fixture")


def test_callgraph_resolves_module_functions_by_name(tmp_path):
    graph, project = build_graph(
        "def helper(x):\n    return x\n\ndef caller(x):\n    return helper(x)\n",
        tmp_path,
    )
    call = first_call(project, "helper")
    (info,) = graph.resolve(call)
    assert info.display == "helper"
    assert info.qualname == "mod.py::helper"


def test_callgraph_dispatches_self_attr_on_known_class(tmp_path):
    graph, project = build_graph(
        "class Logic:\n"
        "    def step(self):\n"
        "        return 1\n"
        "\n"
        "class Other:\n"
        "    def step(self):\n"
        "        return 2\n"
        "\n"
        "class Driver:\n"
        "    def __init__(self):\n"
        "        self.logic = Logic()\n"
        "    def run(self):\n"
        "        return self.logic.step()\n",
        tmp_path,
    )
    call = first_call(project, "step")
    caller = next(f for f in graph.functions if f.display == "Driver.run")
    candidates = graph.resolve(call, caller)
    assert [c.display for c in candidates] == ["Logic.step"]


def test_callgraph_caps_unbounded_fanout(tmp_path):
    classes = "\n".join(
        f"class C{i}:\n    def work(self):\n        return {i}\n"
        for i in range(MAX_DISPATCH_CANDIDATES + 1)
    )
    graph, project = build_graph(
        classes + "\ndef go(obj):\n    return obj.work()\n", tmp_path
    )
    call = first_call(project, "work")
    assert graph.resolve(call) == []


def test_callgraph_never_resolves_sink_names(tmp_path):
    graph, project = build_graph(
        "def send(x):\n    return x\n\ndef go(network, x):\n"
        "    network.send(x)\n",
        tmp_path,
    )
    call = first_call(project, "send")
    assert graph.resolve(call) == []


# -- interprocedural taint ------------------------------------------------


def test_intraprocedural_checker_misses_the_multi_hop_leak():
    report = lint_fixture("interproc_leak.py", checkers=[PrivacyTaintChecker()])
    assert report.findings == []


def test_interproc_reports_two_hop_leak_with_full_call_path():
    report = lint_fixture("interproc_leak.py")
    leaks = [f for f in report.findings if f.rule == "privacy.interproc-leak"]
    assert [(f.rule, f.line) for f in leaks] == [
        ("privacy.interproc-leak", 13),
        ("privacy.interproc-leak", 21),
    ]
    assert all(f.severity is Severity.ERROR for f in leaks)

    return_leak = leaks[0]
    assert return_leak.trace == (
        f"{LEAK_FIXTURE}:13 publish() passes a tainted value to network.send()",
        f"{LEAK_FIXTURE}:13 call to collect()",
        f"{LEAK_FIXTURE}:9 collect() returns fetch_rows()",
        f"{LEAK_FIXTURE}:5 fetch_rows() returns raw dataset.X",
    )

    forward_leak = leaks[1]
    assert forward_leak.trace == (
        f"{LEAK_FIXTURE}:21 relay() passes a tainted argument to ship()",
        f"{LEAK_FIXTURE}:17 ship() forwards parameter 'payload' into network.send()",
        f"{LEAK_FIXTURE}:21 raw source dataset.y",
    )


def test_interproc_flags_the_raw_returning_helper():
    report = lint_fixture("interproc_leak.py")
    raw = [f for f in report.findings if f.rule == "privacy.return-raw"]
    assert [(f.rule, f.line) for f in raw] == [("privacy.return-raw", 5)]
    assert "fetch_rows() returns raw training data" in raw[0].message
    assert f"{LEAK_FIXTURE}:13" in raw[0].message


def test_interproc_clean_fixture_is_silent():
    report = lint_fixture("interproc_clean.py")
    assert report.findings == []


def test_interproc_does_not_duplicate_intraprocedural_findings():
    # Direct leaks are the intraprocedural checker's job; the engine
    # reports only flows that need call-graph context.
    report = lint_fixture("leaky_privacy.py")
    interproc_rules = {"privacy.interproc-leak", "privacy.return-raw"}
    direct_lines = {
        f.line for f in report.findings if f.rule.startswith("privacy.raw-data")
    }
    overlap = [
        f
        for f in report.findings
        if f.rule in interproc_rules and f.line in direct_lines
    ]
    assert overlap == []


def test_interproc_trace_serializes_through_finding_roundtrip():
    report = lint_fixture("interproc_leak.py")
    leak = next(f for f in report.findings if f.trace)
    assert Finding.from_dict(leak.as_dict()) == leak


# -- protocol invariants --------------------------------------------------


def test_protocol_bad_fixture_flags_every_invariant():
    report = lint_fixture(
        "crypto/protocol_bad.py", checkers=[ProtocolInvariantChecker()]
    )
    assert [(f.rule, f.line) for f in report.findings] == [
        ("protocol.missing-participant-guard", 9),
        ("protocol.unbalanced-mask", 25),
        ("protocol.pair-seed-provenance", 40),
        ("protocol.unbalanced-mask", 48),
        ("protocol.unbalanced-mask", 63),
    ]
    unbalanced = next(
        f for f in report.findings if f.rule == "protocol.unbalanced-mask"
    )
    assert "+ 2 time(s)" in unbalanced.message
    assert "- 0 time(s)" in unbalanced.message
    batched, unapplied = [
        f for f in report.findings if f.rule == "protocol.unbalanced-mask"
    ][1:]
    assert "'pad'" in batched.message and "+ 2 time(s)" in batched.message
    assert "never applied" in unapplied.message


def test_protocol_ok_fixture_is_clean():
    report = lint_fixture(
        "crypto/protocol_ok.py", checkers=[ProtocolInvariantChecker()]
    )
    assert report.findings == []


def test_real_summation_protocols_pass_protocol_checker():
    report = run_lint(
        ROOT,
        [ROOT / "src" / "repro" / "crypto"],
        checkers=[ProtocolInvariantChecker()],
        use_default_allowlist=False,
    )
    assert report.findings == [], report.format_text()


def test_protocol_rules_only_apply_in_crypto_scope(tmp_path):
    src = tmp_path / "not_protocol.py"
    src.write_text(
        (FIXTURES / "crypto" / "protocol_bad.py").read_text()
    )
    report = run_lint(
        tmp_path,
        [src],
        checkers=[ProtocolInvariantChecker()],
        use_default_allowlist=False,
    )
    assert report.findings == []


# -- result cache ---------------------------------------------------------


def _leaky_tree(tmp_path):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    leak = src_dir / "leak.py"
    leak.write_text(
        "def publish(network, node, data):\n"
        "    network.send(node, 'reducer', data.X)\n"
    )
    return leak


def test_cache_hit_returns_identical_report_and_is_faster(tmp_path):
    cache = LintCache(tmp_path / "cache.json")
    t0 = time.monotonic()
    cold = run_lint(ROOT, [FIXTURES], use_default_allowlist=False, cache=cache)
    cold_elapsed = time.monotonic() - t0
    assert cold.cache_status == "miss"
    assert (cache.hits, cache.misses) == (0, 1)

    t0 = time.monotonic()
    warm = run_lint(ROOT, [FIXTURES], use_default_allowlist=False, cache=cache)
    warm_elapsed = time.monotonic() - t0
    assert warm.cache_status == "hit"
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm_elapsed < cold_elapsed
    assert warm.findings == cold.findings
    assert warm.suppressed == cold.suppressed
    assert warm.files_checked == cold.files_checked
    assert warm.rules_run == cold.rules_run


def test_cache_invalidates_when_a_file_changes(tmp_path):
    _leaky_tree(tmp_path)
    cache = LintCache(tmp_path / "cache.json")
    run_lint(tmp_path, use_default_allowlist=False, cache=cache)
    # Same tree again: hit.
    run_lint(tmp_path, use_default_allowlist=False, cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    # Touch the file with a different mtime: miss, then re-cached.
    leak = tmp_path / "src" / "leak.py"
    stat = leak.stat()
    os.utime(leak, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    report = run_lint(tmp_path, use_default_allowlist=False, cache=cache)
    assert report.cache_status == "miss"
    assert (cache.hits, cache.misses) == (1, 2)


def test_cache_invalidates_when_the_rule_set_changes(tmp_path):
    _leaky_tree(tmp_path)
    cache = LintCache(tmp_path / "cache.json")
    run_lint(tmp_path, use_default_allowlist=False, cache=cache)
    report = run_lint(
        tmp_path,
        use_default_allowlist=False,
        cache=cache,
        checkers=[PrivacyTaintChecker()],
    )
    assert report.cache_status == "miss"
    assert cache.hits == 0


def test_cache_survives_a_corrupt_cache_file(tmp_path):
    _leaky_tree(tmp_path)
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{corrupt")
    cache = LintCache(cache_path)
    report = run_lint(tmp_path, use_default_allowlist=False, cache=cache)
    assert report.cache_status == "miss"
    assert len(report.findings) == 1


# -- SARIF ----------------------------------------------------------------


def test_sarif_document_shape_is_valid():
    report = run_lint(ROOT, [FIXTURES], use_default_allowlist=False)
    document = json.loads(report.format_sarif())
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert len(rule_ids) == report.rules_run
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in ("error", "warning")
    known = set(rule_ids)
    for result in run["results"]:
        assert result["ruleId"] in known
        assert result["level"] in ("error", "warning")
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"]
        assert physical["region"]["startLine"] >= 1
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]


def test_sarif_traces_become_code_flows():
    report = lint_fixture("interproc_leak.py")
    document = json.loads(report.format_sarif())
    flows = [r for r in document["runs"][0]["results"] if "codeFlows" in r]
    assert [r["ruleId"] for r in flows] == [
        "privacy.interproc-leak",
        "privacy.interproc-leak",
    ]
    locations = flows[0]["codeFlows"][0]["threadFlows"][0]["locations"]
    assert len(locations) == 4
    sink = locations[0]["location"]
    assert sink["physicalLocation"]["artifactLocation"]["uri"] == LEAK_FIXTURE
    assert sink["physicalLocation"]["region"]["startLine"] == 13
    origin = locations[-1]["location"]
    assert origin["message"]["text"] == "fetch_rows() returns raw dataset.X"


def test_sarif_marks_suppressed_findings():
    report = lint_fixture("pragma_clean.py")
    document = json.loads(report.format_sarif())
    results = document["runs"][0]["results"]
    suppressions = [r["suppressions"] for r in results if "suppressions" in r]
    assert len(suppressions) == len(report.suppressed) == 3
    assert all(s == [{"kind": "inSource", "justification": "pragma"}]
               for s in suppressions)


# -- CLI ------------------------------------------------------------------


def test_cli_lint_sarif_format(capsys):
    code = cli_main(
        ["lint", "--root", str(ROOT), str(FIXTURES / "interproc_leak.py"),
         "--no-allowlist", "--format", "sarif"]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    results = document["runs"][0]["results"]
    assert any(r["ruleId"] == "privacy.interproc-leak" for r in results)


def test_cli_lint_stale_allowlist_strict_vs_not(tmp_path, capsys):
    src_dir = tmp_path / "src"
    src_dir.mkdir()
    (src_dir / "ok.py").write_text("def f():\n    return 1\n")
    (tmp_path / ".repro-lint.toml").write_text(
        '[[allow]]\n'
        'rule = "privacy.raw-data-to-network"\n'
        'path = "src/gone.py"\n'
        'reason = "code was deleted"\n'
    )
    args = ["lint", "--root", str(tmp_path)]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert "lint.unused-allowlist-entry" in out
    assert cli_main(args + ["--strict"]) == 1
    capsys.readouterr()


def test_cli_lint_cache_roundtrip(tmp_path, capsys):
    _leaky_tree(tmp_path)
    cache_path = tmp_path / "lint-cache.json"
    args = ["lint", "--root", str(tmp_path), "--no-allowlist",
            "--cache-path", str(cache_path)]
    assert cli_main(args) == 1
    first = capsys.readouterr().out
    assert "[cache miss]" in first
    assert cache_path.is_file()
    assert cli_main(args) == 1
    second = capsys.readouterr().out
    assert "[cache hit]" in second
    assert first.replace("miss", "hit") == second


def test_cli_lint_bad_baseline_is_usage_error(tmp_path, capsys):
    # The finding-snapshot mode is gone; its flag is an unknown option.
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["lint", "--root", str(tmp_path), "--baseline", str(tmp_path / "b.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --baseline" in capsys.readouterr().err
