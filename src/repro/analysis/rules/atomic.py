"""Rule: cache and checkpoint files are written atomically.

``.repro_cache/`` entries and checkpoints are read concurrently by grid
workers, the serving watcher and resumed runs; a torn write is read as
corruption at best (healed as a cache miss) and as silent wrong results
at worst.  The repo's contract is tmp-file-plus-``os.replace``, and it
has exactly one implementation: :func:`repro.io.atomic_write`.

Two things are therefore findings:

* a plain write-mode ``open()`` whose target looks like a cache or
  checkpoint path.  "Looks like" checks the path expression — and, for
  a bare variable, its most recent assignment in the enclosing function
  — for cache/checkpoint markers;
* a ``tempfile.mkstemp`` call anywhere under ``repro/`` except
  ``repro/io.py`` — the opening move of a second, hand-rolled copy of
  the helper.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.framework import FileContext, Finding, Rule, register
from repro.analysis.rules._shared import call_text, dotted_name

_WRITE_MODES = ("w", "a", "x", "+")

#: The one file allowed to build the tmp + ``os.replace`` pattern.
_HELPER_FILE = "repro/io.py"

#: Substrings marking a path expression as cache/checkpoint territory.
_PROTECTED_MARKERS = (
    ".repro_cache", "repro_cache", "ckpt", "checkpoint", ".npz",
    "cache_dir", "cache_path", "npz_path",
)


def _mode_of(node: ast.Call) -> Optional[str]:
    if (
        len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    for kw in node.keywords:
        if (
            kw.arg == "mode"
            and isinstance(kw.value, ast.Constant)
            and isinstance(kw.value.value, str)
        ):
            return kw.value.value
    return None


def _resolved_path_text(node: ast.Call, func: Optional[ast.AST]) -> str:
    """The path argument's text, plus its assignment text if it is a
    bare name assigned in the enclosing function (one level deep)."""
    if not node.args:
        return ""
    arg = node.args[0]
    text = call_text(arg)
    if isinstance(arg, ast.Name) and func is not None:
        target_line = getattr(node, "lineno", 0)
        best: Optional[str] = None
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign):
                continue
            if getattr(stmt, "lineno", 0) >= target_line:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == arg.id:
                    best = call_text(stmt.value)
        if best:
            text = f"{text} = {best}"
    return text


@register
class AtomicWriteRule(Rule):
    name = "atomic-write"
    description = (
        "cache/checkpoint files are written only through "
        "repro.io.atomic_write (no write-mode open(), no second mkstemp helper)"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.logical.startswith("repro/"):
            return []
        out: List[Finding] = []
        owners: dict = {}

        def assign_owner(node: ast.AST, owner: Optional[ast.AST]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node
            for child in ast.iter_child_nodes(node):
                owners[id(child)] = owner
                assign_owner(child, owner)

        assign_owner(ctx.tree, None)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                dotted_name(node.func) in ("tempfile.mkstemp", "mkstemp")
                and ctx.logical != _HELPER_FILE
            ):
                out.append(self.finding(
                    ctx, node,
                    "mkstemp() outside repro/io.py hand-rolls the tmp + "
                    "os.replace pattern; call repro.io.atomic_write",
                ))
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            mode = _mode_of(node)
            if mode is None or not any(m in mode for m in _WRITE_MODES):
                continue
            resolved = _resolved_path_text(node, owners.get(id(node))).lower()
            if not any(marker in resolved for marker in _PROTECTED_MARKERS):
                continue
            out.append(self.finding(
                ctx, node,
                f"open(..., {mode!r}) writes a cache/checkpoint path "
                "non-atomically; write it through repro.io.atomic_write",
            ))
        return out
