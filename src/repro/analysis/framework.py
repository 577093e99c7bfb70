"""Contract-aware static analysis: the rule framework.

The ROADMAP's standing contracts (bitwise determinism, O(touched-rows)
sparse hot paths, atomic ``.repro_cache/`` writes, complete RNG
checkpointing, facade-only examples) were historically enforced only by
runtime tests — which catch a violation *after* it has corrupted a
stream.  PR 5's stale-cache incident is the canonical failure: an
unregistered RNG-stream change sailed through review and masked drift
for three PRs.  This package moves those contracts to diff time.

Architecture (mirrors the autograd tape's ``Operation`` registry): each
rule is a self-contained class registered by name via :func:`register`;
the runner parses each file once and hands every rule the same
:class:`FileContext`.  Adding a rule is one module with one class and
one decorator — nothing in the framework changes.

Suppression
-----------
* Inline: ``# repro-lint: disable=RULE[,RULE...]`` (or ``disable=all``)
  on the offending line — or on a comment-only line directly above it —
  silences that line.  Suppressions should carry a justification in the
  surrounding comment; the sweep that introduced this framework treats
  an undocumented suppression as a review defect.
* File-level: ``# repro-lint: disable-file=RULE`` within the first ten
  lines silences a whole file for that rule.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "rule_catalogue",
    "lint_source",
    "lint_file",
    "lint_paths",
    "Report",
    "render_text",
    "render_json",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([\w\-,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([\w\-,\s]+)")
_FILE_PRAGMA_WINDOW = 10


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str        #: display path (as the file was addressed)
    logical: str     #: repo-logical path, e.g. ``repro/federated/trainer.py``
    line: int
    col: int
    message: str
    source_line: str = ""

    def fingerprint(self) -> str:
        """Stable identity of a finding in the JSON report.

        Keyed on the rule, the logical path and the *text* of the
        offending line — so pure line-number churn (edits elsewhere in
        the file) keeps it, while moving the pattern to a new file or
        writing a new instance of it changes it.
        """
        payload = f"{self.rule}|{self.logical}|{self.source_line.strip()}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


# ----------------------------------------------------------------------
# Per-file context handed to every rule
# ----------------------------------------------------------------------
class FileContext:
    """Everything a rule needs about one parsed file."""

    def __init__(self, path: str, logical: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.logical = logical
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.path,
            logical=self.logical,
            line=lineno,
            col=col,
            message=message,
            source_line=self.line_text(lineno),
        )


# ----------------------------------------------------------------------
# Rule base + registry (the Operation-registry pattern)
# ----------------------------------------------------------------------
class Rule:
    """Base class for one contract check.

    Subclasses set ``name``/``description`` and implement
    :meth:`check`, returning (or yielding) :class:`Finding`s.  Rules
    must be stateless across files — one instance is reused for the
    whole run.
    """

    #: Registry key, used in CLI ``--rule`` and suppression comments.
    name: str = ""
    #: One-line summary for ``repro lint --list-rules`` and the README.
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(self.name, node, message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (unique by name)."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty `name`")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_catalogue() -> Dict[str, Type[Rule]]:
    """Name → rule class, with every built-in rule module imported."""
    from repro.analysis import rules  # noqa: F401 - import populates registry

    return dict(_REGISTRY)


def _resolve_rules(rule_names: Optional[Sequence[str]] = None) -> List[Rule]:
    catalogue = rule_catalogue()
    if rule_names:
        unknown = sorted(set(rule_names) - set(catalogue))
        if unknown:
            raise KeyError(
                f"unknown rule(s) {unknown}; available: {sorted(catalogue)}"
            )
        return [catalogue[name]() for name in rule_names]
    return [catalogue[name]() for name in sorted(catalogue)]


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def _parse_rule_list(blob: str) -> frozenset:
    return frozenset(part.strip() for part in blob.split(",") if part.strip())


def _suppressions(source: str) -> Tuple[Dict[int, frozenset], frozenset]:
    """``(line -> suppressed rule names, file-wide rule names)``.

    ``all`` in a rule list suppresses every rule.  A comment-only line
    carrying a pragma also covers the next non-blank line, so the
    justification can live above the code it exempts.
    """
    per_line: Dict[int, frozenset] = {}
    file_wide: frozenset = frozenset()
    lines = source.splitlines()
    for idx, text in enumerate(lines, start=1):
        match = _SUPPRESS_FILE_RE.search(text)
        if match and idx <= _FILE_PRAGMA_WINDOW:
            file_wide = file_wide | _parse_rule_list(match.group(1))
            continue
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = _parse_rule_list(match.group(1))
        per_line[idx] = per_line.get(idx, frozenset()) | rules
        if text.lstrip().startswith("#"):
            # Comment-only pragma: extend to the next non-blank line.
            for follow in range(idx + 1, len(lines) + 1):
                if lines[follow - 1].strip():
                    per_line[follow] = per_line.get(follow, frozenset()) | rules
                    break
    return per_line, file_wide


def _is_suppressed(
    finding: Finding, per_line: Dict[int, frozenset], file_wide: frozenset
) -> bool:
    for rules in (file_wide, per_line.get(finding.line, frozenset())):
        if finding.rule in rules or "all" in rules:
            return True
    return False


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def _logical_path(path: str) -> str:
    """Map a filesystem path to its repo-logical identity.

    ``.../src/repro/federated/trainer.py`` → ``repro/federated/trainer.py``
    and ``.../examples/quickstart.py`` → ``examples/quickstart.py``; a
    path under neither root keeps its basename (fixture files in tests
    pass an explicit logical path instead).
    """
    parts = os.path.abspath(path).replace(os.sep, "/").split("/")
    for anchor in ("repro", "examples"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            if anchor == "repro" and (idx == 0 or parts[idx - 1] == "src"):
                return "/".join(parts[idx:])
            if anchor == "examples":
                return "/".join(parts[idx:])
    return parts[-1]


@dataclass
class Report:
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def lint_source(
    source: str,
    logical: str,
    rules: Optional[Sequence[str]] = None,
    path: Optional[str] = None,
) -> List[Finding]:
    """Lint one in-memory source blob (the fixture-test entry point)."""
    display = path or logical
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                rule="parse-error",
                path=display,
                logical=logical,
                line=error.lineno or 1,
                col=error.offset or 0,
                message=f"could not parse: {error.msg}",
            )
        ]
    ctx = FileContext(display, logical, source, tree)
    per_line, file_wide = _suppressions(source)
    out: List[Finding] = []
    for rule in _resolve_rules(rules):
        for finding in rule.check(ctx):
            if not _is_suppressed(finding, per_line, file_wide):
                out.append(finding)
    out.sort(key=lambda f: (f.line, f.col, f.rule))
    return out


def _count_suppressed(
    source: str, logical: str, path: str, rules: Optional[Sequence[str]]
) -> int:
    """How many findings inline/file pragmas swallowed (for reporting)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return 0
    ctx = FileContext(path, logical, source, tree)
    per_line, file_wide = _suppressions(source)
    if not per_line and not file_wide:
        return 0
    count = 0
    for rule in _resolve_rules(rules):
        for finding in rule.check(ctx):
            if _is_suppressed(finding, per_line, file_wide):
                count += 1
    return count


def lint_file(
    path: str, rules: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Lint one file; returns ``(findings, suppressed_count)``."""
    with tokenize.open(path) as handle:  # honours PEP 263 encodings
        source = handle.read()
    logical = _logical_path(path)
    findings = lint_source(source, logical, rules=rules, path=path)
    return findings, _count_suppressed(source, logical, path, rules)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for target in paths:
        if os.path.isfile(target):
            out.append(target)
            continue
        for root, dirs, names in os.walk(target):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__pycache__")))
            for name in sorted(names):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return out


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
) -> Report:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    report = Report()
    for path in iter_python_files(paths):
        findings, suppressed = lint_file(path, rules=rules)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files += 1
    return report


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(report: Report) -> str:
    lines = [finding.render() for finding in report.findings]
    lines.append(
        f"repro lint: {len(report.findings)} finding(s) in {report.files} "
        f"file(s) ({report.suppressed} suppressed inline)"
    )
    return "\n".join(lines)


def render_json(report: Report) -> str:
    return json.dumps(
        {
            "findings": [f.to_json() for f in report.findings],
            "suppressed": report.suppressed,
            "files": report.files,
            "exit_code": report.exit_code,
        },
        indent=2,
        sort_keys=True,
    )
