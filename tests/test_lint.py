"""Tests for the contract lint framework (``repro.analysis``).

Each rule gets a fixture pair: a violating snippet (the rule must fire)
and a compliant twin (it must stay silent).  On top of the per-rule
fixtures: suppression pragmas, the CLI exit codes,
and the meta-test that the real tree lints clean — plus red-on-injection,
which proves the clean result is the linter passing, not the linter
being inert.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    lint_paths,
    lint_source,
    rule_catalogue,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

SEEDED = "repro/federated/example.py"   # inside determinism scope
SERVING = "repro/serving/example.py"    # inside lock scope


def findings_for(source, logical, rule):
    return lint_source(source, logical=logical, rules=[rule])


def rules_fired(source, logical, rule):
    return [f.rule for f in findings_for(source, logical, rule)]


# ---------------------------------------------------------------------------
# Framework basics
# ---------------------------------------------------------------------------
class TestFramework:
    def test_catalogue_has_the_six_contract_rules(self):
        assert set(rule_catalogue()) >= {
            "determinism", "sparse-contract", "atomic-write",
            "lock-discipline", "rng-registration", "facade-only",
        }
        for name, cls in rule_catalogue().items():
            assert cls.description, name

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError, match="unknown rule"):
            lint_source("x = 1", logical=SEEDED, rules=["no-such-rule"])

    def test_syntax_error_becomes_parse_error_finding(self):
        found = lint_source("def broken(:\n", logical=SEEDED)
        assert [f.rule for f in found] == ["parse-error"]

    def test_findings_sorted_and_carry_location(self):
        src = (
            "import time\n"
            "import random\n"
            "a = time.time()\n"
        )
        found = lint_source(src, logical=SEEDED, rules=["determinism"])
        assert [f.line for f in found] == sorted(f.line for f in found)
        assert all(f.path and f.line >= 1 for f in found)

    def test_fingerprint_stable_across_line_churn(self):
        src = "import time\nx = time.time()\n"
        moved = "import time\n\n\n\nx = time.time()\n"
        fp = findings_for(src, SEEDED, "determinism")[-1].fingerprint()
        fp_moved = findings_for(moved, SEEDED, "determinism")[-1].fingerprint()
        assert fp == fp_moved

    def test_fingerprint_differs_across_source_text(self):
        src = "import random\nx = time.time()\n"
        f1, f2 = findings_for(src, SEEDED, "determinism")
        assert f1.fingerprint() != f2.fingerprint()


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------
class TestDeterminismRule:
    def test_unseeded_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_fired(src, SEEDED, "determinism") == ["determinism"]

    def test_seeded_default_rng_is_silent(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "rng2 = np.random.default_rng(seed=7)\n"
        )
        assert rules_fired(src, SEEDED, "determinism") == []

    def test_legacy_global_numpy_fires(self):
        src = "import numpy as np\nx = np.random.normal(size=3)\n"
        assert rules_fired(src, SEEDED, "determinism") == ["determinism"]

    def test_stdlib_random_import_and_call_fire(self):
        src = "import random\nx = random.random()\n"
        assert rules_fired(src, SEEDED, "determinism") == [
            "determinism", "determinism",
        ]

    def test_wall_clock_fires_but_monotonic_is_legal(self):
        bad = "import time\nt = time.time()\n"
        good = "import time\nt = time.monotonic()\ns = time.perf_counter()\n"
        assert rules_fired(bad, SEEDED, "determinism") == ["determinism"]
        assert rules_fired(good, SEEDED, "determinism") == []

    def test_datetime_now_fires(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert rules_fired(src, SEEDED, "determinism") == ["determinism"]

    def test_outside_seeded_scope_is_silent(self):
        src = "import time\nt = time.time()\n"
        assert rules_fired(src, "repro/serving/http.py", "determinism") == []


# ---------------------------------------------------------------------------
# Rule: sparse-contract
# ---------------------------------------------------------------------------
class TestSparseContractRule:
    def test_dense_call_fires(self):
        src = "def f(delta):\n    return delta.dense()\n"
        assert rules_fired(src, SEEDED, "sparse-contract") == ["sparse-contract"]

    def test_asarray_on_delta_fires(self):
        src = "import numpy as np\ndef f(update):\n    return np.asarray(update)\n"
        assert rules_fired(src, SEEDED, "sparse-contract") == ["sparse-contract"]

    def test_isinstance_dispatch_is_not_exempt(self):
        """Uploads have one format, so a dense fallback arm is a finding."""
        src = (
            "import numpy as np\n"
            "def f(delta):\n"
            "    if isinstance(delta, SparseRowDelta):\n"
            "        return delta.rows\n"
            "    return np.asarray(delta)\n"
        )
        assert rules_fired(src, SEEDED, "sparse-contract") == ["sparse-contract"]

    def test_asarray_on_unrelated_value_is_silent(self):
        src = "import numpy as np\ndef f(matrix):\n    return np.asarray(matrix)\n"
        assert rules_fired(src, SEEDED, "sparse-contract") == []

    def test_allowlisted_file_is_silent(self):
        src = "def f(delta):\n    return delta.dense()\n"
        assert rules_fired(
            src, "repro/federated/payload.py", "sparse-contract"
        ) == []


# ---------------------------------------------------------------------------
# Rule: atomic-write
# ---------------------------------------------------------------------------
class TestAtomicWriteRule:
    def test_direct_write_to_checkpoint_path_fires(self):
        src = 'with open("model_checkpoint.npz", "wb") as fh:\n    fh.write(b"x")\n'
        assert rules_fired(src, SEEDED, "atomic-write") == ["atomic-write"]

    def test_write_via_assigned_name_fires(self):
        src = (
            "import os\n"
            "def save(workdir, blob):\n"
            '    path = os.path.join(workdir, "run.npz")\n'
            '    with open(path, "wb") as fh:\n'
            "        fh.write(blob)\n"
        )
        assert rules_fired(src, SEEDED, "atomic-write") == ["atomic-write"]

    def test_read_mode_is_silent(self):
        src = 'with open("model_checkpoint.npz", "rb") as fh:\n    fh.read()\n'
        assert rules_fired(src, SEEDED, "atomic-write") == []

    def test_unrelated_path_is_silent(self):
        src = 'with open("notes.txt", "w") as fh:\n    fh.write("hi")\n'
        assert rules_fired(src, SEEDED, "atomic-write") == []

    MKSTEMP_HELPER = (
        "import os, tempfile\n"
        "def save(cache_path, blob):\n"
        "    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(cache_path))\n"
        '    with os.fdopen(fd, "wb") as fh:\n'
        "        fh.write(blob)\n"
        "    os.replace(tmp, cache_path)\n"
    )

    def test_mkstemp_fdopen_pattern_is_silent(self):
        # The blessed helper — mkstemp + os.fdopen + os.replace, never
        # builtin open() on the final path — in the one file that owns it.
        assert rules_fired(self.MKSTEMP_HELPER, "repro/io.py", "atomic-write") == []

    def test_second_mkstemp_helper_fires(self):
        # The same code anywhere else is a duplicate of repro.io.atomic_write.
        assert rules_fired(self.MKSTEMP_HELPER, SEEDED, "atomic-write") == [
            "atomic-write"
        ]

    def test_calling_the_helper_is_silent(self):
        src = (
            "from repro.io import atomic_write\n"
            "def save(cache_path, blob):\n"
            '    atomic_write(cache_path, lambda fh: fh.write(blob), "wb")\n'
        )
        assert rules_fired(src, SEEDED, "atomic-write") == []


# ---------------------------------------------------------------------------
# Rule: lock-discipline
# ---------------------------------------------------------------------------
LOCKED_CLASS = (
    "import threading\n"
    "class Service:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._hits = 0\n"
    "    def record(self):\n"
    "        with self._lock:\n"
    "            self._hits += 1\n"
    "{extra}"
)


class TestLockDisciplineRule:
    def test_mixed_guarded_unguarded_write_fires(self):
        src = LOCKED_CLASS.format(extra=(
            "    def reset(self):\n"
            "        self._hits = 0\n"
        ))
        found = findings_for(src, SERVING, "lock-discipline")
        assert [f.rule for f in found] == ["lock-discipline"]
        assert "_hits" in found[0].message

    def test_always_guarded_is_silent(self):
        src = LOCKED_CLASS.format(extra=(
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._hits = 0\n"
        ))
        assert rules_fired(src, SERVING, "lock-discipline") == []

    def test_init_writes_are_exempt(self):
        assert rules_fired(
            LOCKED_CLASS.format(extra=""), SERVING, "lock-discipline"
        ) == []

    def test_locked_suffix_methods_are_exempt(self):
        src = LOCKED_CLASS.format(extra=(
            "    def _reset_locked(self):\n"
            "        self._hits = 0\n"
        ))
        assert rules_fired(src, SERVING, "lock-discipline") == []

    def test_condition_wrapping_lock_counts_as_guarded(self):
        src = (
            "import threading\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._wakeup = threading.Condition(self._lock)\n"
            "        self._n = 0\n"
            "    def a(self):\n"
            "        with self._wakeup:\n"
            "            self._n += 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
        )
        assert rules_fired(src, SERVING, "lock-discipline") == []

    def test_tuple_unpacking_write_is_seen(self):
        src = LOCKED_CLASS.format(extra=(
            "    def take(self):\n"
            "        taken, self._hits = self._hits, 0\n"
            "        return taken\n"
        ))
        assert rules_fired(src, SERVING, "lock-discipline") == ["lock-discipline"]

    def test_outside_serving_is_silent(self):
        src = LOCKED_CLASS.format(extra=(
            "    def reset(self):\n"
            "        self._hits = 0\n"
        ))
        assert rules_fired(src, SEEDED, "lock-discipline") == []


WAITING_CLASS = (
    "import threading\n"
    "class Flusher:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._wakeup = threading.Condition(self._lock)\n"
    "        self._done = threading.Event()\n"
    "        self._pending = []\n"
    "    def take(self):\n"
    "        with self._wakeup:\n"
    "{body}"
    "            return self._pending.pop()\n"
)


class TestConditionWaitInLoop:
    def test_bare_condition_wait_fires(self):
        src = WAITING_CLASS.format(body=(
            "            if not self._pending:\n"
            "                self._wakeup.wait()\n"
        ))
        found = findings_for(src, SERVING, "lock-discipline")
        assert [f.rule for f in found] == ["lock-discipline"]
        assert "self._wakeup.wait()" in found[0].message

    def test_wait_in_a_for_loop_or_while_else_fires(self):
        src = WAITING_CLASS.format(body=(
            "            for _ in range(3):\n"
            "                self._wakeup.wait(0.1)\n"
            "            while not self._pending:\n"
            "                break\n"
            "            else:\n"
            "                self._wakeup.wait()\n"
        ))
        assert rules_fired(src, SERVING, "lock-discipline") == ["lock-discipline"] * 2

    def test_predicate_loop_is_silent(self):
        src = WAITING_CLASS.format(body=(
            "            while not self._pending:\n"
            "                self._wakeup.wait()\n"
        ))
        assert rules_fired(src, SERVING, "lock-discipline") == []

    def test_loop_does_not_cover_a_nested_function(self):
        src = WAITING_CLASS.format(body=(
            "            while not self._pending:\n"
            "                hook = lambda: self._wakeup.wait()\n"
            "                hook()\n"
        ))
        assert rules_fired(src, SERVING, "lock-discipline") == ["lock-discipline"]

    def test_event_wait_is_silent(self):
        src = WAITING_CLASS.format(body="            self._done.wait()\n")
        assert rules_fired(src, SERVING, "lock-discipline") == []


# ---------------------------------------------------------------------------
# Rule: rng-registration
# ---------------------------------------------------------------------------
class TestRngRegistrationRule:
    def test_unregistered_generator_in_subclass_fires(self):
        src = (
            "import numpy as np\n"
            "class Attacker(FederatedTrainer):\n"
            "    def __init__(self, seed):\n"
            "        self._attack_rng = np.random.default_rng(seed)\n"
        )
        found = findings_for(src, SEEDED, "rng-registration")
        assert [f.rule for f in found] == ["rng-registration"]
        assert "_attack_rng" in found[0].message

    def test_registered_generator_is_silent(self):
        src = (
            "import numpy as np\n"
            "class Attacker(FederatedTrainer):\n"
            "    def __init__(self, seed):\n"
            "        self._attack_rng = np.random.default_rng(seed)\n"
            "    def _checkpoint_rngs(self):\n"
            "        rngs = super()._checkpoint_rngs()\n"
            '        rngs["attack"] = self._attack_rng\n'
            "        return rngs\n"
        )
        assert rules_fired(src, SEEDED, "rng-registration") == []

    def test_partial_registration_flags_only_missing(self):
        src = (
            "import numpy as np\n"
            "class T(FederatedTrainer):\n"
            "    def __init__(self):\n"
            "        self._a = np.random.default_rng(0)\n"
            "        self._b = np.random.default_rng(1)\n"
            "    def _checkpoint_rngs(self):\n"
            '        return {"a": self._a}\n'
        )
        found = findings_for(src, SEEDED, "rng-registration")
        assert len(found) == 1 and "_b" in found[0].message

    def test_sees_the_trainers_attack_stream(self):
        """The base trainer's conditional poison stream is in the rule's
        scope: dropping its registration is a finding."""
        path = REPO_ROOT / "src" / "repro" / "federated" / "trainer.py"
        src = path.read_text()
        logical = "repro/federated/trainer.py"
        assert rules_fired(src, logical, "rng-registration") == []
        line = '            rngs["attack"] = self._attack_rng\n'
        assert line in src
        found = findings_for(src.replace(line, "            pass\n"), logical, "rng-registration")
        assert len(found) == 1 and "_attack_rng" in found[0].message

    def test_non_trainer_class_is_silent(self):
        src = (
            "import numpy as np\n"
            "class Sampler:\n"
            "    def __init__(self, seed):\n"
            "        self._rng = np.random.default_rng(seed)\n"
        )
        assert rules_fired(src, SEEDED, "rng-registration") == []


# ---------------------------------------------------------------------------
# Rule: facade-only
# ---------------------------------------------------------------------------
class TestFacadeOnlyRule:
    def test_deep_import_in_example_fires(self):
        src = "from repro.federated.trainer import FederatedTrainer\n"
        assert rules_fired(src, "examples/demo.py", "facade-only") == ["facade-only"]

    def test_import_repro_module_fires(self):
        assert rules_fired(
            "import repro.api\n", "examples/demo.py", "facade-only"
        ) == ["facade-only"]

    def test_facade_import_is_silent(self):
        src = "from repro.api import fit, recommend\nimport numpy as np\n"
        assert rules_fired(src, "examples/demo.py", "facade-only") == []

    def test_src_tree_is_out_of_scope(self):
        src = "from repro.federated.trainer import FederatedTrainer\n"
        assert rules_fired(src, SEEDED, "facade-only") == []


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------
class TestSuppression:
    BAD = "import time\nt = time.time()  # repro-lint: disable=determinism\n"

    def test_inline_pragma_silences_named_rule(self):
        assert rules_fired(self.BAD, SEEDED, "determinism") == []

    def test_pragma_for_other_rule_does_not_silence(self):
        src = "import time\nt = time.time()  # repro-lint: disable=atomic-write\n"
        assert rules_fired(src, SEEDED, "determinism") == ["determinism"]

    def test_comment_line_above_extends_to_next_statement(self):
        src = (
            "import time\n"
            "# justified: display only  # repro-lint: disable=determinism\n"
            "t = time.time()\n"
        )
        assert rules_fired(src, SEEDED, "determinism") == []

    def test_disable_all_wildcard(self):
        src = "import time\nt = time.time()  # repro-lint: disable=all\n"
        assert rules_fired(src, SEEDED, "determinism") == []

    def test_file_pragma_in_header_silences_whole_file(self):
        src = (
            "# repro-lint: disable-file=determinism\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert rules_fired(src, SEEDED, "determinism") == []

    def test_file_pragma_outside_header_window_is_ignored(self):
        src = "\n" * 12 + (
            "# repro-lint: disable-file=determinism\n"
            "import time\n"
            "t = time.time()\n"
            "u = time.time()\n"
        )
        assert rules_fired(src, SEEDED, "determinism") == [
            "determinism", "determinism",
        ]


# ---------------------------------------------------------------------------
# CLI + the merge bar
# ---------------------------------------------------------------------------
def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_repo_tree_lints_clean(self):
        """The merge bar: `repro lint src examples` exits 0 on this tree."""
        proc = run_cli("src", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_report_shape(self):
        proc = run_cli("src", "examples", "--json")
        payload = json.loads(proc.stdout)
        assert payload["exit_code"] == 0
        assert payload["findings"] == []
        assert payload["files"] > 100

    def test_red_on_injection(self, tmp_path):
        """Planting a violation turns the lint (and thus CI) red."""
        bad = tmp_path / "src" / "repro" / "federated" / "planted.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "determinism" in proc.stdout

    def test_rule_filter(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "federated" / "planted.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        proc = run_cli(str(bad), "--rule", "atomic-write")
        assert proc.returncode == 0

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for name in ("determinism", "lock-discipline", "facade-only"):
            assert name in proc.stdout

    def test_missing_path_exits_2(self):
        proc = run_cli("no/such/dir")
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# Library-level sweep (no subprocess): mirrors the CI job
# ---------------------------------------------------------------------------
class TestTreeSweep:
    def test_lint_paths_over_real_tree(self):
        report = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "examples")]
        )
        assert report.exit_code == 0, "\n".join(
            f.render() for f in report.findings
        )
        # exactly one documented inline suppression (chaos torn-writer)
        assert report.suppressed == 1
