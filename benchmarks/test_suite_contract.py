"""The benchmark harness contract, once, over synthetic metrics.

``benchmarks/suite.py`` owns the one gate rule and the one CLI for the
six ``bench_*.py``; the per-bench smoke tests pin each script's
``metrics`` declaration, this file pins the rule and the CLI themselves.
"""

import glob
import json
import os

import pytest

from benchmarks import suite
from benchmarks.suite import Metric

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")

REPORT = [
    Metric("exact_sum", True, "hard"),
    Metric("digest", "abc", "exact", 200),
    Metric("overhead", 1.065, "exact", 16),
    Metric("qps", 1000.0, "floor", (8, 0.01)),
    Metric("rss", 50.0, "ceiling", 5000),
]


def swapped(name, **changes):
    return [m._replace(**changes) if m.name == name else m for m in REPORT]


def test_report_clears_its_own_baseline():
    assert suite.check(REPORT, REPORT, 0.99)


def test_false_hard_fails_with_and_without_baseline():
    broken = swapped("exact_sum", value=False)
    assert not suite.check(broken)
    assert not suite.check(broken, REPORT, 0.4)
    # Only a real ``True`` clears a hard gate.
    assert not suite.check(swapped("exact_sum", value=None))


def test_without_a_baseline_only_hard_metrics_are_gated():
    assert suite.check(swapped("qps", value=0.0))


def test_floor_and_ceiling_breaches_fail():
    assert suite.check(swapped("qps", value=401.0), REPORT, 0.4)
    assert not suite.check(swapped("qps", value=399.0), REPORT, 0.4)
    assert suite.check(swapped("rss", value=124.0), REPORT, 0.4)
    assert not suite.check(swapped("rss", value=126.0), REPORT, 0.4)


def test_exact_drift_fails():
    assert not suite.check(swapped("digest", value="abd"), REPORT, 0.4)
    assert not suite.check(swapped("overhead", value=1.066), REPORT, 0.4)
    # Float round-off below 1e-9 is not drift.
    assert suite.check(swapped("overhead", value=1.065 + 1e-12), REPORT, 0.4)


@pytest.mark.parametrize("name", ["digest", "overhead", "qps", "rss"])
def test_differing_scale_or_missing_entry_is_skipped_never_failed(name, capsys):
    breach = {"digest": "zzz", "overhead": 9.0, "qps": 0.0, "rss": 1e9}[name]
    elsewhere = swapped(name, value=breach, scale="another scale")
    assert suite.check(elsewhere, REPORT, 0.4)
    assert f"{name}: scale another scale vs baseline" in capsys.readouterr().out
    # ``None`` marks a metric that cannot be compared on this machine.
    unscaled = swapped(name, scale=None)
    assert suite.check(swapped(name, value=breach, scale=None), unscaled, 0.4)
    absent = [m for m in REPORT if m.name != name]
    assert suite.check(swapped(name, value=breach), absent, 0.4)
    assert f"{name}: no baseline entry" in capsys.readouterr().out


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown metric kind"):
        suite.check([Metric("x", 1.0, "minimum")])


def test_registry_names_are_the_committed_baselines():
    stems = sorted(
        os.path.basename(path)[len("BENCH_"):-len(".json")]
        for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    )
    assert sorted(suite.BENCHES) == stems
    for name in suite.BENCHES:
        bench = suite.load_bench(name)
        for hook in ("measure", "metrics", "summary"):
            assert callable(getattr(bench, hook))


def test_all_runs_every_registered_bench_in_its_own_process(monkeypatch, tmp_path):
    commands = []
    monkeypatch.setattr(
        suite.subprocess, "call", lambda command: commands.append(command) or 0
    )
    out = str(tmp_path / "fresh")
    assert suite.main(["all", "--quick", "--check", "--out", out]) == 0
    assert [command[3] for command in commands] == list(suite.BENCHES)
    for name, command in zip(suite.BENCHES, commands):
        assert command[1:3] == ["-m", "benchmarks.suite"]
        assert "--quick" in command
        assert command[command.index("--out") + 1] == os.path.join(
            out, f"bench_{name}_fresh.json"
        )
        assert command[command.index("--check") + 1] == f"BENCH_{name}.json"

    # One failing bench fails the whole run, after the rest still ran.
    del commands[:]
    monkeypatch.setattr(
        suite.subprocess, "call",
        lambda command: commands.append(command) or int(command[3] == "sim"),
    )
    assert suite.main(["all", "--quick"]) == 1
    assert len(commands) == len(suite.BENCHES)


def test_quick_run_never_overwrites_the_committed_baseline(monkeypatch, tmp_path):
    """``--quick`` without ``--out`` writes ``bench_<name>_fresh.json``;
    only a full-scale run defaults to ``BENCH_<name>.json``."""
    sentinel = tmp_path / "BENCH_sim.json"
    sentinel.write_bytes(b'{"sentinel": "the 10^5-client baseline"}\n')
    before = sentinel.read_bytes()
    monkeypatch.chdir(tmp_path)

    assert suite.main(["sim", "--quick"]) == 0

    assert sentinel.read_bytes() == before
    fresh = json.loads((tmp_path / "bench_sim_fresh.json").read_text())
    assert fresh["config"]["quick"] is True
    assert fresh["deterministic"] is True
    assert fresh["machine"]["nproc"] == os.cpu_count()


def test_cli_exit_code_follows_the_gate(monkeypatch, tmp_path):
    """One flipped ``hard`` or one drifted ``exact`` exits 1."""
    report = {"ok": True, "digest": "abc"}

    class FakeBench:
        measure = staticmethod(lambda quick: dict(report))
        summary = staticmethod(lambda report: None)

        @staticmethod
        def metrics(report):
            return [
                Metric("ok", report["ok"], "hard"),
                Metric("digest", report["digest"], "exact", 1),
            ]

    monkeypatch.setattr(suite, "load_bench", lambda name: FakeBench)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(report))
    argv = ["sim", "--check", str(baseline), "--out", str(tmp_path / "out.json")]
    assert suite.main(argv) == 0
    report["digest"] = "abd"
    assert suite.main(argv) == 1
    report.update(digest="abc", ok=False)
    assert suite.main(argv) == 1
