"""Caller census: no defaulted parameter and no config field without a caller.

A keyword that no production call passes is a code path nothing reaches:
its default is the only value the program ever sees, so it is a module
constant in disguise.  This test parses the production tree once —
``src/``, ``benchmarks/`` (minus its ``test_*`` files and ``conftest.py``)
and ``examples/`` — and fails on

* any defaulted parameter of a function or method in ``src/``, and
* any defaulted field of a ``*Config`` / ``*Profile`` dataclass in ``src/``

that no production call passes, by name or by position.

Resolution is by name, so it over-counts calls (every function named
``step`` shares the calls to ``.step``) and never under-counts a direct
call:

* ``f(...)`` and ``mod.f(...)`` call every function named ``f``;
  ``obj.m(...)`` calls every method named ``m``, its first positional
  argument landing after ``self``;
* ``C(...)``, ``cls(...)`` inside ``C`` and ``super().__init__(...)``
  inside a subclass of ``C`` call ``C.__init__`` (or fill ``C``'s fields);
* a function passed to a parameter named ``p`` (``Artefact(grid=g)``,
  ``run_groups(tasks, run=f)``) is called by every call named ``p``;
* ``REGISTRY[key](...)`` calls every callable in the dict literal bound
  to ``REGISTRY``; ``x(...)`` calls ``__call__`` when ``x = C(...)`` in
  the same function;
* ``functools.partial(f, ...)`` is a call to ``f``; a ``_fixed(g, ...)``
  entry of ``run_all.ARTEFACTS`` is a call ``g(profile, ...)``;
* a field is also set by a keyword of ``replace`` / ``copy_with``, by an
  attribute store on anything but ``self``, and by a string key of a
  dict literal (``config_overrides``);
* ``**mapping`` passes the keys of the dict literal or ``dict(...)``
  call bound to ``mapping`` in the same function, or every parameter
  when the mapping cannot be read off the source; ``*args`` passes every
  positional parameter.

Run it as a script to print the census::

    PYTHONPATH=src python tests/test_caller_census.py
"""

from __future__ import annotations

import ast
import functools
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every exemption, keyed ``"<module>:<qualified name>.<parameter>"``,
#: ``"*.<parameter>"`` for a rule that holds for every definition, or
#: ``"<package>.*"`` for a whole package.  Each entry says why the value
#: stays settable though no production call sets it.
_VERB = "a repro.api verb (README's verb table): its signature is the public API"
_REFERENCE = (
    "the per-user ranking reference tests/ranking_oracle.py holds the "
    "blocked evaluator to"
)
ALLOWLIST: Dict[str, str] = {
    "*.seed": "every seed stays a keyword: a run is named by its seed",
    "*.clock": "an injectable clock is how tests drive time deterministically",
    "*.sleep": "an injectable sleep pairs with the injectable clock",
    "repro.autograd.*": (
        "the reference tape that tests/engine_oracle.py and "
        "tests/reference_trainer.py differentiate with; no src/ path builds a node"
    ),
    "repro.api:load_model.group": _VERB,
    "repro.api:recommend.exclude": _VERB,
    "repro.api:serve.history": _VERB,
    "repro.api:serve.exclude_seen": _VERB,
    "repro.api:serve.verbose": _VERB,
    "repro.eval.metrics:rank_items.exclude": _REFERENCE,
    "repro.eval.metrics:rank_items.k": _REFERENCE,
    "repro.eval.metrics:recall_at_k.k": _REFERENCE,
    "repro.eval.metrics:ndcg_at_k.k": _REFERENCE,
    "repro.federated.payload:SparseRowDelta.__array__.dtype": (
        "numpy's array protocol passes it, from np.asarray(delta, dtype)"
    ),
    "repro.federated.payload:SparseRowDelta.__array__.copy": (
        "numpy's array protocol passes it (numpy >= 2 asks for copies)"
    ),
    "repro.serving.chaos:ManualClock.__init__.start": (
        "the injectable clock's own epoch"
    ),
}


@dataclass
class Calls:
    """What production passes to one callee name."""

    keywords: Set[str] = field(default_factory=set)
    positional: int = 0          # the most positional arguments any call passes
    everything: bool = False     # a ``*args`` / unreadable ``**mapping`` call

    def add(self, positional: int, keywords: Iterable[str], everything: bool) -> None:
        self.positional = max(self.positional, positional)
        self.keywords.update(keywords)
        self.everything = self.everything or everything


@dataclass
class Definition:
    """One defaulted parameter or config field that needs a caller."""

    module: str          # dotted path under src/
    qualname: str        # Class.method, function, or Class for a field
    name: str            # the parameter / field
    index: int           # its position among the callable's positional slots
    keyword_only: bool
    line: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}.{self.name}"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def production_files(root: Path = REPO_ROOT) -> List[Path]:
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "examples").rglob("*.py"))
    files += [
        path
        for path in sorted((root / "benchmarks").rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]
    return files


def _name_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _name_of(target) == "dataclass":
            return True
    return False


def _takes_self(fn: ast.FunctionDef) -> bool:
    """A method whose first parameter a call never passes (``self``/``cls``)."""
    return not any(_name_of(deco) == "staticmethod" for deco in fn.decorator_list)


class _Scope:
    """Per-function view of the ``name = {...}`` / ``dict(...)`` bindings
    a ``**name`` splat may read."""

    def __init__(self, body: ast.AST):
        self.mappings: Dict[str, Optional[Set[str]]] = {}
        #: Names bound to ``ClassName(...)``: calling them calls ``__call__``.
        self.instances: Set[str] = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._bind(target.id, node.value)
                        if isinstance(node.value, ast.Call) and (
                            _name_of(node.value.func) or "a"
                        )[0].isupper():
                            self.instances.add(target.id)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id in self.mappings:
                    key = node.slice
                    keys = self.mappings[node.value.id]
                    if keys is not None and isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        keys.add(key.value)
                    else:
                        self.mappings[node.value.id] = None

    def _bind(self, name: str, value: ast.AST) -> None:
        keys = _literal_keys(value)
        if name in self.mappings and self.mappings[name] is not None and keys is not None:
            self.mappings[name] |= keys
        else:
            self.mappings[name] = keys if name not in self.mappings else None

    def splat(self, value: ast.AST) -> Optional[Set[str]]:
        if isinstance(value, ast.Name) and value.id in self.mappings:
            keys = self.mappings[value.id]
            return None if keys is None else set(keys)
        return _literal_keys(value)


def _literal_keys(value: ast.AST) -> Optional[Set[str]]:
    """The keys of a dict literal or ``dict(k=...)`` call; None if unreadable."""
    if isinstance(value, ast.Dict):
        keys = set()
        for key in value.keys:
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            keys.add(key.value)
        return keys
    if isinstance(value, ast.Call) and _name_of(value.func) == "dict" and not value.args:
        if any(kw.arg is None for kw in value.keywords):
            return None
        return {kw.arg for kw in value.keywords}
    return None


@dataclass
class Census:
    definitions: List[Definition] = field(default_factory=list)
    #: callee name → what every call by that name passes.
    calls: Dict[str, Calls] = field(default_factory=lambda: defaultdict(Calls))
    #: parameter name (or ``REGISTRY[]``) → the functions passed into it.
    bound: Dict[str, Set[str]] = field(default_factory=lambda: defaultdict(set))
    #: keywords of replace/copy_with, attribute stores, dict-literal keys.
    field_sets: Set[str] = field(default_factory=set)
    #: class name → (base names, defines __init__, fields in order).
    classes: Dict[str, Tuple[List[str], bool, List[str]]] = field(default_factory=dict)
    #: function name → its positional parameter names (self/cls dropped).
    signatures: Dict[str, List[str]] = field(default_factory=dict)


def _record_call(census: Census, call: ast.Call, scope: _Scope,
                 enclosing_class: Optional[str], bases: List[str]) -> None:
    func = call.func
    positional = 0
    everything = False
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            everything = True
        else:
            positional += 1
    keywords: Set[str] = set()
    for kw in call.keywords:
        if kw.arg is not None:
            keywords.add(kw.arg)
            continue
        keys = scope.splat(kw.value)
        if keys is None:
            everything = True
        else:
            keywords |= keys

    name = _name_of(func)
    if name is None and not isinstance(func, ast.Subscript):
        return
    via_attribute = isinstance(func, ast.Attribute)

    if isinstance(func, ast.Subscript) and _name_of(func.value) is not None:
        # ``REGISTRY[key](...)`` calls every callable the registry maps to.
        census.calls[f"{_name_of(func.value)}[]"].add(positional, keywords, everything)
        return
    if name in ("replace", "copy_with", "_replace", "__class__"):
        census.field_sets |= keywords
    if name == "partial" and call.args:
        target = _name_of(call.args[0])
        if target is not None:
            census.calls[target].add(positional - 1, keywords, everything)
        return
    if name == "_fixed" and call.args:
        # run_all's registry: ``_fixed(g, **fixed)`` is ``g(profile, **fixed)``.
        target = _name_of(call.args[0])
        if target is not None:
            census.calls[target].add(1, keywords, everything)
        return
    if via_attribute and name == "__init__" and isinstance(func.value, ast.Call) \
            and _name_of(func.value.func) == "super":
        for base in bases:
            census.calls[base].add(positional, keywords, everything)
        return
    if enclosing_class is not None and not via_attribute and name == "cls":
        census.calls[enclosing_class].add(positional, keywords, everything)
        return
    if not via_attribute and name in scope.instances:
        census.calls["__call__"].add(positional, keywords, everything)
    census.calls[name].add(positional, keywords, everything)

    # Functions handed over as arguments: remember the parameter they land in.
    params = census.signatures.get(name)
    for position, arg in enumerate(call.args):
        if isinstance(arg, (ast.Name, ast.Attribute)) and params and position < len(params):
            census.bound[params[position]].add(_name_of(arg))
    for kw in call.keywords:
        if kw.arg is not None and isinstance(kw.value, (ast.Name, ast.Attribute)):
            census.bound[kw.arg].add(_name_of(kw.value))


def _visit(census: Census, tree: ast.Module, module: Optional[str]) -> None:
    """Collect calls (every file) and definitions (``module`` is set for src/)."""

    def walk(node: ast.AST, scope: _Scope, cls: Optional[ast.ClassDef], qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, scope, child, f"{qual}{child.name}.")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if module is not None:
                    _define_function(census, module, child, cls, qual)
                walk(child, _Scope(child), None if cls is None else cls, f"{qual}{child.name}.")
                continue
            if isinstance(child, ast.Call):
                bases = [] if cls is None else [b for b in map(_name_of, cls.bases) if b]
                _record_call(census, child, scope, None if cls is None else cls.name, bases)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                if not (isinstance(child.value, ast.Name) and child.value.id == "self"):
                    census.field_sets.add(child.attr)
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(child.value, ast.Dict):
                # ``REGISTRY = {"key": Callable, ...}`` binds each callable to ``REGISTRY[]``.
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        census.bound[f"{target.id}[]"] |= {
                            _name_of(v)
                            for v in child.value.values
                            if isinstance(v, (ast.Name, ast.Attribute))
                        }
            if isinstance(child, ast.Dict):
                census.field_sets |= {
                    key.value for key in child.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                }
            walk(child, scope, cls, qual)

    walk(tree, _Scope(tree), None, "")


def _signature(fn: ast.FunctionDef, in_class: bool) -> List[str]:
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if in_class and _takes_self(fn):
        params = params[1:]
    return params


def _define_function(census: Census, module: str, fn: ast.FunctionDef,
                     cls: Optional[ast.ClassDef], qual: str) -> None:
    positional = fn.args.posonlyargs + fn.args.args
    defaults = fn.args.defaults
    offset = 1 if cls is not None and _takes_self(fn) else 0
    first_default = len(positional) - len(defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            census.definitions.append(Definition(
                module, f"{qual}{fn.name}", arg.arg, index - offset, False, arg.lineno
            ))
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            census.definitions.append(Definition(
                module, f"{qual}{fn.name}", arg.arg, -1, True, arg.lineno
            ))


def _define_classes(census: Census, module: str, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [b for b in map(_name_of, node.bases) if b]
        has_init = any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body
        )
        fields = []
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if "ClassVar" in ast.dump(item.annotation):
                    continue
                fields.append(item.target.id)
                if (
                    module
                    and item.value is not None
                    and _is_dataclass(node)
                    and node.name.endswith(("Config", "Profile"))
                ):
                    census.definitions.append(Definition(
                        module, node.name, item.target.id, len(fields) - 1, False, item.lineno
                    ))
        census.classes[node.name] = (bases, has_init, fields)


def build_census(files: Iterable[Path], src_root: Path) -> Census:
    census = Census()
    trees = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = None
        if src_root in path.parents:
            module = ".".join(path.relative_to(src_root).with_suffix("").parts)
        trees.append((tree, module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        census.signatures.setdefault(item.name, _signature(item, True))
            elif isinstance(node, ast.FunctionDef):
                census.signatures.setdefault(node.name, _signature(node, False))
        if module is not None:
            _define_classes(census, module, tree)
        else:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    census.classes.setdefault(
                        node.name, ([b for b in map(_name_of, node.bases) if b], False, [])
                    )
    # Dataclass and NamedTuple fields are their constructor's parameters.
    for name, (_, has_init, fields) in census.classes.items():
        if not has_init and fields:
            census.signatures.setdefault(name, fields)
    for tree, module in trees:
        _visit(census, tree, module)
    return census


# ----------------------------------------------------------------------
# The census proper
# ----------------------------------------------------------------------
def _subclass_names(census: Census, name: str) -> Set[str]:
    """``name`` and every class that inherits its constructor."""
    out = {name}
    changed = True
    while changed:
        changed = False
        for cls, (bases, has_init, _) in census.classes.items():
            if cls not in out and not has_init and out & set(bases):
                out.add(cls)
                changed = True
    return out


def _calls_for(census: Census, definition: Definition) -> List[Calls]:
    """Every call that reaches ``definition``: the calls by its name, by
    its class's (for a constructor or a field), and by every parameter
    it was passed into."""
    parts = definition.qualname.split(".")
    owner = parts[-2] if len(parts) >= 2 and parts[-2] in census.classes else None
    func = parts[-1]
    if definition.qualname in census.classes:          # a config field
        targets = _subclass_names(census, definition.qualname)
    elif owner is not None and func == "__init__":
        targets = _subclass_names(census, owner)
    else:
        targets = {func}
    names = set(targets) | {param for param, refs in census.bound.items() if refs & targets}
    return [census.calls[name] for name in names if name in census.calls]


def unpassed(census: Census, allowlist: Dict[str, str] = ALLOWLIST) -> List[Definition]:
    missing = []
    for definition in census.definitions:
        if (
            f"*.{definition.name}" in allowlist
            or definition.key in allowlist
            or any(definition.module.startswith(k[:-2]) for k in allowlist if k.endswith(".*"))
        ):
            continue
        is_field = definition.qualname in census.classes
        if is_field and definition.name in census.field_sets:
            continue
        if not any(
            calls.everything
            or definition.name in calls.keywords
            or (not definition.keyword_only and definition.index < calls.positional)
            for calls in _calls_for(census, definition)
        ):
            missing.append(definition)
    return missing


def tree_census(root: Path = REPO_ROOT) -> Tuple[Census, List[Definition]]:
    census = build_census(production_files(root), root / "src")
    return census, unpassed(census)


@functools.lru_cache(maxsize=None)
def _repo_census() -> Tuple[Census, List[Definition]]:
    """The census of this repository, parsed once per session."""
    return tree_census()


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_every_defaulted_parameter_has_a_production_caller():
    _, missing = _repo_census()
    assert not missing, "defaulted parameters / config fields no production call passes:\n" + (
        "\n".join(
            f"  src/{d.module.replace('.', '/')}.py:{d.line} {d.qualname}({d.name}=)"
            for d in missing
        )
    )


def test_every_allowlist_entry_carries_a_reason_and_is_used():
    census, _ = _repo_census()
    defined = {d.key for d in census.definitions} | {f"*.{d.name}" for d in census.definitions}
    defined |= {f"{d.module.rsplit('.', 1)[0]}.*" for d in census.definitions}
    for key, reason in ALLOWLIST.items():
        assert reason.strip(), key
        assert key in defined, f"allowlist entry {key} names no definition"


def _plant(tmp_path: Path, library: str, caller: str) -> List[str]:
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "lib.py").write_text(library)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(caller)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "test_ignored.py").write_text(
        "from pkg.lib import f\nf(1, unused=2)\n"
    )
    _, missing = tree_census(tmp_path)
    return [f"{d.qualname}.{d.name}" for d in missing]


def test_planted_unpassed_keyword_fails(tmp_path):
    library = (
        "def f(x, positional=2, used=1, unused=3):\n"
        "    return x\n"
    )
    caller = "from pkg.lib import f\nf(0, 5, used=4)\n"
    # A benchmarks/test_* call does not count: ``unused`` stays unpassed.
    assert _plant(tmp_path, library, caller) == ["f.unused"]


def test_planted_unset_config_field_fails(tmp_path):
    library = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class ToyConfig:\n"
        "    set_by_ctor: int = 1\n"
        "    set_by_replace: int = 2\n"
        "    set_by_overrides: int = 3\n"
        "    never_set: int = 4\n"
    )
    caller = (
        "from dataclasses import replace\n"
        "from pkg.lib import ToyConfig\n"
        "c = replace(ToyConfig(set_by_ctor=0), set_by_replace=5)\n"
        "overrides = {'set_by_overrides': 6}\n"
    )
    assert _plant(tmp_path, library, caller) == ["ToyConfig.never_set"]


def test_functions_passed_as_arguments_are_called_through_the_parameter(tmp_path):
    library = (
        "def grid(profile, archs=('a',), rows=3):\n"
        "    return profile\n"
        "def render(entry, profile):\n"
        "    return entry(profile, archs=('b',))\n"
    )
    caller = "from pkg.lib import grid, render\nrender(grid, 'bench')\n"
    assert _plant(tmp_path, library, caller) == ["grid.rows"]


if __name__ == "__main__":
    census, missing = tree_census()
    for d in missing:
        print(f"src/{d.module.replace('.', '/')}.py:{d.line}\t{d.qualname}\t{d.name}")
    print(
        f"{len(missing)} of {len(census.definitions)} defaulted parameters / "
        "config fields have no production caller",
        file=sys.stderr,
    )
