"""Contract-aware static analysis for the repro codebase.

``python -m repro lint [paths]`` runs AST-based checks that encode the
ROADMAP's standing contracts (determinism, sparse hot paths, atomic
cache writes, lock discipline, RNG checkpoint completeness, facade-only
examples).  See :mod:`repro.analysis.framework` for the rule registry
and suppression pragmas, and :mod:`repro.analysis.rules` for the
built-in rules.
"""

from repro.analysis.framework import (
    FileContext,
    Finding,
    Report,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    register,
    render_json,
    render_text,
    rule_catalogue,
)

__all__ = [
    "FileContext",
    "Finding",
    "Report",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "rule_catalogue",
]
