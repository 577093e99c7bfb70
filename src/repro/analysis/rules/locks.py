"""Rule: serving-layer shared state is written under one lock discipline.

The serving layer runs its own threads (flush threads, the hot-swap
watcher, concurrent lookups).  Its convention:
any ``self.<attr>`` that is ever written inside a ``with self._lock:``
block is lock-guarded state, and *every* write to it must be guarded.
A write to the same attribute outside any lock is the classic
lost-update/torn-read bug — it usually "works" under CPython's GIL and
then corrupts counters or swaps under load.

What counts as guarded:

* lexically inside ``with self.<lock-like>:`` where the lock-like
  attribute was assigned a ``threading.Lock/RLock/Condition/Semaphore``
  (or its name contains ``lock``).  A ``Condition(self._lock)`` wraps
  the same underlying lock, so ``with self._wakeup:`` guards too.
* inside a method whose name ends with ``_locked`` — the repo's
  caller-holds-the-lock convention (the caller is checked instead).
* inside ``__init__``/``__new__``/``__post_init__`` — construction
  happens-before publication.

The rule only fires on attributes with *both* guarded and unguarded
writes: an attribute that is never locked is a deliberate
single-threaded or immutable-after-init field, not a finding.

It also fires on ``self.<condition>.wait()`` outside every ``while``
loop of its own function: a wait can return with the state unchanged,
and only ``while not <predicate>: wait()`` re-checks it — which also
makes a notify sent while nobody waited harmless (no lost wakeup).

What it cannot see: :func:`repro.parallel.run_groups`, the scheduler
that runs a round's buckets and a query batch's dim-groups on worker
threads, shares function-local state across them (the ``nonlocal``
count of unfinished tasks, the free-slot list and the task deques under
one local ``Condition``), not ``self.<attr>`` writes.  No static check
covers it; only ``tests/test_parallel.py`` does.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.framework import FileContext, Finding, Rule, register
from repro.analysis.rules._shared import dotted_name, self_attribute_path

_EXEMPT_METHODS = {"__init__", "__new__", "__post_init__"}

_LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}


def _sync_attrs(cls: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """``(locks, conditions)``: the attribute names on ``self`` holding
    lock-like objects, and those assigned a ``threading.Condition``."""
    locks: Set[str] = set()
    conditions: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        factory = dotted_name(node.value.func) if isinstance(node.value, ast.Call) else None
        for target in node.targets:
            attr = self_attribute_path(target)
            if attr is None or "." in attr:
                continue
            if factory in _LOCK_FACTORIES or "lock" in attr.lower():
                locks.add(attr)
            if factory in ("threading.Condition", "Condition"):
                conditions.add(attr)
    return locks, conditions


def _bare_waits(node: ast.AST, conditions: Set[str], in_loop: bool = False):
    """``(attr, call)`` for each ``self.<condition>.wait()`` under ``node``
    outside every ``while`` loop of its own function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        in_loop = False
    elif isinstance(node, ast.Call) and not in_loop:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "wait":
            attr = self_attribute_path(func.value)
            if attr in conditions:
                yield attr, node
    if isinstance(node, ast.While):
        for child in (node.test, *node.body):
            yield from _bare_waits(child, conditions, True)
        for child in node.orelse:
            yield from _bare_waits(child, conditions, in_loop)
        return
    for child in ast.iter_child_nodes(node):
        yield from _bare_waits(child, conditions, in_loop)


class _WriteCollector(ast.NodeVisitor):
    """Collect (base attr, node, guarded?) for self-attribute writes in
    one method body, tracking lexical ``with self.<lock>:`` nesting."""

    def __init__(self, lock_attrs: Set[str]) -> None:
        self.lock_attrs = lock_attrs
        self.depth = 0
        self.writes: List[Tuple[str, ast.AST, bool]] = []

    def _record(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record(element, node)
            return
        path = self_attribute_path(target)
        if path is None:
            return
        base = path.split(".")[0]
        if base in self.lock_attrs:
            return
        self.writes.append((base, node, self.depth > 0))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target, node)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        guards = any(
            (self_attribute_path(item.context_expr) or "") in self.lock_attrs
            for item in node.items
        )
        if guards:
            self.depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guards:
            self.depth -= 1

    # Nested defs get their own method-level pass; don't cross into them.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


@register
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "serving/ attributes written both inside and outside `with "
        "self._lock:` blocks — every write to guarded state must hold "
        "the lock; a Condition's wait() outside a `while` predicate loop"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.logical.startswith("repro/serving/"):
            return []
        out: List[Finding] = []
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks, conditions = _sync_attrs(cls)
            for attr, node in _bare_waits(cls, conditions):
                out.append(self.finding(
                    ctx, node,
                    f"self.{attr}.wait() is not inside a `while` loop; a "
                    "condition wait can return with the state unchanged — "
                    f"wait in `while not <predicate>: self.{attr}.wait()`",
                ))
            if not locks:
                continue
            # base attr -> (guarded writes exist?, unguarded write nodes)
            guarded: Set[str] = set()
            unguarded: Dict[str, List[ast.AST]] = {}
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in _EXEMPT_METHODS or method.name.endswith("_locked"):
                    continue
                collector = _WriteCollector(locks)
                for stmt in method.body:
                    collector.visit(stmt)
                for base, node, is_guarded in collector.writes:
                    if is_guarded:
                        guarded.add(base)
                    else:
                        unguarded.setdefault(base, []).append(node)
            for base in sorted(guarded & set(unguarded)):
                for node in unguarded[base]:
                    out.append(self.finding(
                        ctx, node,
                        f"self.{base} is written under a lock elsewhere in "
                        f"{cls.name} but this write holds no lock; wrap it "
                        "in the same `with self._lock:` (or move it into a "
                        "`*_locked` helper)",
                    ))
        return out
