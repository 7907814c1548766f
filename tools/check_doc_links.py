"""Relative-link and doc-reachability checker for the repo's markdown docs.

Four gates in one pass:

1. **Broken links** — scans ``README.md`` and ``docs/*.md`` for markdown
   links, resolves every relative target against the linking file's
   directory, and reports targets that do not exist on disk.  External
   links (http/https/mailto) and pure-anchor links are skipped; a
   ``#fragment`` on a relative link is stripped before the existence
   check.
2. **Reachability** — every ``docs/*.md`` must be reachable from
   ``README.md`` by following relative links (the README's "Document
   map" promises this), so no page can silently fall out of the
   navigation graph.
3. **Analytics instruments** — every literal ``analytics.*`` instrument
   registered under ``src/`` must appear in ``docs/OBSERVABILITY.md``.
   The general instrument gate is ``tools/check_metric_docs.py``; this
   narrow regex check keeps the analytics family honest even when that
   heavier gate is skipped.
4. **Named paths** — every backticked repo-relative path
   (`` `benchmarks/…` ``, `` `tests/…` ``, `` `src/…` ``, `` `tools/…` ``,
   `` `examples/…` ``) in ``README.md`` and ``docs/*.md`` must exist on
   disk, so no page keeps naming a deleted seed, test or module.  Glob
   patterns (``*``, ``?``, ``[``) are skipped.

Used two ways: the ``analyze`` CI job runs it as a script (exit 1 on
findings), and ``tests/test_docs_links.py`` imports it so the tier-1
suite catches doc rot locally.
"""

from __future__ import annotations

import pathlib
import re
import sys

#: Inline markdown links: [text](target).  Good enough for this repo's
#: docs — no reference-style links, no angle-bracket autolinks to files.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: A whole backtick span that is a path under one of the repo's top-level
#: code directories, resolved against the repo root.
REPO_PATH_RE = re.compile(r"`((?:benchmarks|tests|src|tools|examples)/[^`\s]*)`")

GLOB_CHARS = ("*", "?", "[")

#: Literal registry-factory calls registering an analytics.* instrument.
ANALYTICS_INSTRUMENT_RE = re.compile(
    r"\b(?:counter|gauge|histogram|timer)\(\s*\"(analytics\.[a-z0-9_.]+)\""
)


def doc_files(root: pathlib.Path) -> list[pathlib.Path]:
    """README.md plus every markdown file under docs/, sorted."""
    files = []
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    files.extend(sorted((root / "docs").glob("*.md")))
    return files


def links_in(text: str) -> list[str]:
    return LINK_RE.findall(text)


def _relative_md_targets(doc: pathlib.Path) -> list[pathlib.Path]:
    """Existing .md files ``doc`` links to, resolved."""
    targets = []
    for target in links_in(doc.read_text()):
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part or not path_part.endswith(".md"):
            continue
        resolved = (doc.parent / path_part).resolve()
        if resolved.exists():
            targets.append(resolved)
    return targets


def broken_links(root: pathlib.Path) -> list[str]:
    """``"<file>: <target>"`` for every relative link that resolves nowhere."""
    findings: list[str] = []
    for doc in doc_files(root):
        for target in links_in(doc.read_text()):
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                findings.append(f"{doc.relative_to(root)}: {target}")
    return findings


def unreachable_docs(root: pathlib.Path) -> list[str]:
    """docs/*.md files no chain of links from README.md arrives at."""
    readme = root / "README.md"
    if not readme.exists():
        return []
    reachable = {readme.resolve()}
    frontier = [readme]
    while frontier:
        doc = frontier.pop()
        for target in _relative_md_targets(doc):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    return [
        str(doc.relative_to(root))
        for doc in sorted((root / "docs").glob("*.md"))
        if doc.resolve() not in reachable
    ]


def missing_named_paths(root: pathlib.Path) -> list[str]:
    """``"<file>: <path>"`` for every backticked repo path that is gone."""
    findings: list[str] = []
    for doc in doc_files(root):
        for path in REPO_PATH_RE.findall(doc.read_text()):
            if any(char in path for char in GLOB_CHARS):
                continue
            if not (root / path).exists():
                findings.append(f"{doc.relative_to(root)}: {path}")
    return findings


def undocumented_analytics_instruments(root: pathlib.Path) -> list[str]:
    """Literal ``analytics.*`` instruments missing from OBSERVABILITY.md."""
    doc = root / "docs" / "OBSERVABILITY.md"
    if not doc.exists():
        return []
    doc_text = doc.read_text()
    names: set[str] = set()
    for source in sorted((root / "src").rglob("*.py")):
        names.update(ANALYTICS_INSTRUMENT_RE.findall(source.read_text()))
    return [f"`{name}`" for name in sorted(names) if f"`{name}`" not in doc_text]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else pathlib.Path.cwd()
    failed = False
    for finding in broken_links(root):
        print(f"BROKEN LINK: {finding}")
        failed = True
    for finding in unreachable_docs(root):
        print(f"UNREACHABLE FROM README: {finding}")
        failed = True
    for finding in missing_named_paths(root):
        print(f"MISSING PATH: {finding}")
        failed = True
    for finding in undocumented_analytics_instruments(root):
        print(
            f"UNDOCUMENTED ANALYTICS INSTRUMENT: {finding} is registered "
            "in src/ but missing from docs/OBSERVABILITY.md"
        )
        failed = True
    if not failed:
        print(
            f"doc links OK ({len(doc_files(root))} files checked, "
            "all docs reachable from README, named paths exist, "
            "analytics instruments documented)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
