"""Tier-1 mirror of the CI docs link-checker (tools/check_doc_links.py)."""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = REPO_ROOT / "tools" / "check_doc_links.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_broken_relative_links(checker):
    findings = checker.broken_links(REPO_ROOT)
    assert not findings, "broken doc links:\n" + "\n".join(findings)


def test_checker_covers_readme_and_docs(checker):
    files = {p.name for p in checker.doc_files(REPO_ROOT)}
    assert "README.md" in files
    assert "FAULTS.md" in files
    assert "ARCHITECTURE.md" in files


def test_checker_detects_breakage(checker, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/REAL.md) [bad](docs/MISSING.md) [ext](https://example.com) "
        "[anchor](#section)\n"
    )
    (tmp_path / "docs" / "REAL.md").write_text("[up](../README.md#quick)\n")
    findings = checker.broken_links(tmp_path)
    assert findings == ["README.md: docs/MISSING.md"]


def test_every_doc_reachable_from_readme(checker):
    findings = checker.unreachable_docs(REPO_ROOT)
    assert not findings, "docs unreachable from README:\n" + "\n".join(findings)


def test_reachability_detects_orphan(checker, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("[a](docs/A.md)\n")
    (tmp_path / "docs" / "A.md").write_text("[b](B.md#anchor)\n")
    (tmp_path / "docs" / "B.md").write_text("no links\n")
    (tmp_path / "docs" / "ORPHAN.md").write_text("nobody links here\n")
    assert checker.unreachable_docs(tmp_path) == ["docs/ORPHAN.md"]


def test_named_paths_exist(checker):
    findings = checker.missing_named_paths(REPO_ROOT)
    assert not findings, "docs name missing paths:\n" + "\n".join(findings)


def test_named_path_check_detects_missing(checker, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_real.py").write_text("")
    (tmp_path / "README.md").write_text(
        "`tests/test_real.py` `tests/test_gone.py` `benchmarks/results/*.txt` "
        "`python tools/run.py` `docs/NOT_A_CODE_DIR.md`\n"
    )
    (tmp_path / "docs" / "A.md").write_text("see `src/repro/gone.py`\n")
    assert checker.missing_named_paths(tmp_path) == [
        "README.md: tests/test_gone.py",
        "docs/A.md: src/repro/gone.py",
    ]


def test_analytics_instruments_documented(checker):
    findings = checker.undocumented_analytics_instruments(REPO_ROOT)
    assert not findings, (
        "analytics instruments missing from docs/OBSERVABILITY.md:\n"
        + "\n".join(findings)
    )


def test_analytics_instrument_check_detects_gap(checker, tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "documented: `analytics.events.ingested`\n"
    )
    (tmp_path / "src" / "mod.py").write_text(
        'registry.counter("analytics.events.ingested")\n'
        'registry.gauge("analytics.store.undocumented")\n'
    )
    assert checker.undocumented_analytics_instruments(tmp_path) == [
        "`analytics.store.undocumented`"
    ]
