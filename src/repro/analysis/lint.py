"""Driver for the determinism linter.

Parses each file once, runs every registered rule over the AST, applies
``# sim: ignore`` suppression comments, and renders findings as text or
JSON.  Exposed as a library (``lint_source`` / ``lint_paths``) for the
self-check tests and as a CLI via ``python -m repro.analysis``.
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from .rules import all_rules
from .rules.base import LintContext, Rule

__all__ = ["Finding", "LintConfig", "lint_source", "lint_file", "lint_paths",
           "iter_python_files", "format_findings", "format_findings_json"]

#: ``# sim: ignore`` or ``# sim: ignore[SIM001, SIM003]``
_SUPPRESS_RE = re.compile(
    r"#\s*sim:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*sim:\s*skip-file")
#: How many leading lines may carry a skip-file pragma.
_SKIP_FILE_WINDOW = 10


class Finding(NamedTuple):
    """One rule violation at a specific location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: " \
               f"{self.rule_id} {self.message}"


class LintConfig:
    """Which rules run.  ``select=None`` means the full catalogue."""

    def __init__(self, select: Optional[Iterable[str]] = None):
        self.select: Optional[Set[str]] = set(select) if select else None

    def rules(self) -> List[Rule]:
        rules = all_rules()
        if self.select is None:
            return rules
        unknown = self.select - {rule.rule_id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        return [rule for rule in rules if rule.rule_id in self.select]


def _suppressions(
        source_lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> suppressed rule ids (None = all rules)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = {part.strip() for part in rules.split(",")
                             if part.strip()}
    return table


def _is_suppressed(finding: Finding,
                   table: Dict[int, Optional[Set[str]]]) -> bool:
    if finding.line not in table:
        return False
    rules = table[finding.line]
    return rules is None or finding.rule_id in rules


def lint_source(source: str, path: str = "<string>",
                config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint a source string; ``path`` drives path-scoped rules (SIM001/6)."""
    config = config or LintConfig()
    lines = source.splitlines()
    for line in lines[:_SKIP_FILE_WINDOW]:
        if _SKIP_FILE_RE.search(line):
            return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("SIM000", path, exc.lineno or 1,
                        (exc.offset or 1) - 1,
                        f"syntax error: {exc.msg}")]
    ctx = LintContext(path=path, tree=tree, source_lines=tuple(lines))
    table = _suppressions(lines)
    findings: List[Finding] = []
    for rule in config.rules():
        if not rule.applies_to(path):
            continue
        for node, message in rule.check(ctx):
            finding = Finding(rule.rule_id, path,
                              getattr(node, "lineno", 1),
                              getattr(node, "col_offset", 0), message)
            if not _is_suppressed(finding, table):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_file(path: str,
              config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, config=config)


def iter_python_files(root: str) -> Iterable[str]:
    """Yield ``.py`` files under ``root`` (or ``root`` itself), sorted."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [name for name in dirnames
                       if name not in ("__pycache__", ".git")]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None) -> List[Finding]:
    """Lint every python file under each path; findings sorted by location."""
    findings: List[Finding] = []
    for path in paths:
        for filename in iter_python_files(path):
            findings.extend(lint_file(filename, config=config))
    return findings


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` per line."""
    lines = [finding.render() for finding in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def format_findings_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (a JSON array of objects)."""
    return json.dumps([finding._asdict() for finding in findings], indent=2)
