"""``repro lint`` — the command-line front end for the contract checks.

Wired into the main ``repro`` CLI as a subcommand; exits non-zero on
any finding so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.framework import (
    lint_paths,
    render_json,
    render_text,
    rule_catalogue,
)

DEFAULT_PATHS = ("src", "examples")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src examples)",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="RULE",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit",
    )


def run_lint(ns: argparse.Namespace) -> int:
    if ns.list_rules:
        for name, cls in sorted(rule_catalogue().items()):
            print(f"{name}: {cls.description}")
        return 0
    paths: List[str] = [p for p in ns.paths if os.path.exists(p)]
    missing = [p for p in ns.paths if not os.path.exists(p)]
    if missing:
        print(f"repro lint: no such path(s): {missing}", file=sys.stderr)
        return 2
    report = lint_paths(paths, rules=ns.rules)
    print(render_json(report) if ns.json else render_text(report))
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based contract checks (determinism, sparse hot "
        "paths, atomic writes, lock discipline, RNG registration, facade).",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
