"""Tests for the regenerate-everything CLI.

Training-based artefacts are exercised by the benchmark suite; here we
verify the orchestration: artefact registry completeness, that the
warm-up list is derived from (and covers) what the registered grids
request, error propagation, file output, the fast (no-training)
artefacts end to end at smoke scale, and that the registry and the
committed ``results/`` have not drifted apart.  Only
:class:`TestWarmRender` trains: the whole suite once, at ``smoke``.
"""

import os
from pathlib import Path

import pytest

import repro.experiments.run_all as run_all_module
import repro.experiments.runner as runner_module
from repro.experiments.run_all import (
    ARTEFACTS,
    Artefact,
    collect_suite_specs,
    render,
    run_all,
)
from repro.experiments.runner import RunResult, run_tree
from repro.federated.trainer import FederatedTrainer


FAST_ARTEFACTS = {"table1_datasets", "fig1_distribution", "table3_communication"}
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def canned_result(spec) -> RunResult:
    return RunResult(
        dataset=spec.dataset, method=spec.method, arch=spec.arch, profile="smoke",
        recall=0.2, ndcg=0.1,
        group_recall={"s": 0.2, "m": 0.2, "l": 0.2},
        group_ndcg={"s": 0.1, "m": 0.1, "l": 0.1},
        ndcg_curve=[(1, 0.05), (2, 0.1)],
        communication_total=1000, communication_per_round=10.0,
        collapse={"s": 0.1, "m": 0.2, "l": 0.3},
    )


class TestRegistry:
    def test_every_paper_artefact_registered(self):
        expected = {
            "table1_datasets",
            "fig1_distribution",
            "table2_main",
            "fig6_groups",
            "fig7_convergence",
            "fig7_lightgcn",
            "table3_communication",
            "table4_ablation",
            "table5_collapse",
            "table6_division",
            "table7_modelsize",
            "fig8_alpha",
        }
        ablations = {
            "ablation_theta_mode",
            "ablation_server_optimizer",
            "ablation_compression",
            "ablation_kd_subset",
            "ablation_arch",
            "ablation_robustness",
            "ablation_systems",
            "ablation_privacy",
        }
        assert set(ARTEFACTS) == expected | ablations

    def test_runners_and_formatters_callable(self):
        for name, entry in ARTEFACTS.items():
            assert callable(entry.fmt), name
            # An entry names its grid or, if it trains nothing, its runner.
            assert (entry.grid is None) != (entry.run is None), name
            assert callable(entry.grid or entry.run), name
        # Exactly the analytic artefacts declare no cached training grid:
        # everything that trains goes through the run cache.
        assert {name for name, entry in ARTEFACTS.items() if entry.grid is None} == (
            FAST_ARTEFACTS | {"ablation_systems"}
        )

    @pytest.mark.parametrize("archs", [("ncf",), ("ncf", "lightgcn")])
    def test_warmup_covers_every_spec_the_runners_request(self, monkeypatch, archs):
        """The invariant the old hand-kept list only documented: after
        warming ``collect_suite_specs``, every registered runner is a
        pure cache hit."""
        requested = []

        def fake_run_grid(specs, jobs=None):
            requested.extend(specs)
            return {spec: canned_result(spec) for spec in specs}

        monkeypatch.setattr(runner_module, "run_grid", fake_run_grid)
        warmed = set(collect_suite_specs("smoke", archs))
        for name, entry in ARTEFACTS.items():
            if entry.grid is None:
                continue  # trains nothing through the cache
            del requested[:]
            text = entry.fmt(run_tree(entry.grid("smoke", archs=archs)))
            assert requested and set(requested) <= warmed, name
            assert text, name

    def test_runner_error_propagates(self, tmp_path, monkeypatch):
        """Regression: a ``TypeError`` raised *inside* a runner was
        swallowed, the runner silently re-run with its default archs,
        and the file written as if nothing had happened."""
        calls = []

        def broken(profile, archs):
            calls.append((profile, archs))
            raise TypeError("bug inside the runner")

        monkeypatch.setattr(
            run_all_module, "ARTEFACTS", {"broken": Artefact(broken, str)}
        )
        with pytest.raises(TypeError, match="bug inside the runner"):
            run_all(profile="smoke", out_dir=str(tmp_path), archs=("lightgcn",))
        assert calls == [("smoke", ("lightgcn",))]
        assert not os.path.exists(tmp_path / "broken.txt")


class TestFastArtefacts:
    def test_run_subset_writes_files(self, tmp_path, monkeypatch):
        subset = {k: v for k, v in ARTEFACTS.items() if k in FAST_ARTEFACTS}
        monkeypatch.setattr(run_all_module, "ARTEFACTS", subset)
        requested = []
        monkeypatch.setattr(
            run_all_module, "run_grid",
            lambda specs, jobs=None: requested.extend(specs) or {},
        )
        written = run_all(profile="smoke", out_dir=str(tmp_path))
        # Regression: the warm-up ignored the registry and trained the
        # whole 68-run suite to render three analytic artefacts.
        assert requested == []
        assert len(written) == len(FAST_ARTEFACTS)
        for path in written:
            assert os.path.exists(path)
            with open(path, "r", encoding="utf-8") as handle:
                assert len(handle.read()) > 50

    def test_progress_clock_is_injectable(self, tmp_path, monkeypatch, capsys):
        """The progress display drives off an injected clock (PR 10): no
        wall-clock read sits on the artefact path, and a manual clock
        shows up verbatim in the [  Ns] progress prefixes."""
        subset = {k: v for k, v in ARTEFACTS.items() if k in FAST_ARTEFACTS}
        monkeypatch.setattr(run_all_module, "ARTEFACTS", subset)
        ticks = iter(range(0, 1000, 7))
        written = run_all(
            profile="smoke", out_dir=str(tmp_path),
            clock=lambda: float(next(ticks)),
        )
        assert len(written) == len(FAST_ARTEFACTS)
        out = capsys.readouterr().out
        assert "[    7.0s]" in out  # every interval is exactly one 7-tick step


class TestCommittedResults:
    """``results/`` is what the registry renders: one driver, no drift."""

    def test_every_committed_file_is_registered_and_vice_versa(self):
        assert set(ARTEFACTS) == {path.stem for path in RESULTS_DIR.glob("*.txt")}

    @pytest.mark.parametrize("name", sorted(FAST_ARTEFACTS))
    def test_untrained_artefact_renders_its_committed_bytes(self, name, tmp_path):
        render(name, "bench", out_dir=str(tmp_path))
        rendered = (tmp_path / f"{name}.txt").read_bytes()
        assert rendered == (RESULTS_DIR / f"{name}.txt").read_bytes()


class TestWarmRender:
    def test_nothing_trains_after_the_warm_pass(self, tmp_path, monkeypatch):
        """Every artefact that trains declares its grid, so ``run_all``'s
        warm pass covers it and a later ``render`` only reads the cache:
        with training patched to raise, every artefact renders the bytes
        the warm run wrote."""
        monkeypatch.setattr(runner_module, "CACHE_DIR", str(tmp_path / "cache"))
        run_all(profile="smoke", out_dir=str(tmp_path / "warm"))

        def refuse(*args, **kwargs):
            raise AssertionError("an artefact trained after the warm pass")

        monkeypatch.setattr(runner_module, "_train_spec", refuse)
        monkeypatch.setattr(runner_module, "build_method", refuse)
        monkeypatch.setattr(FederatedTrainer, "__init__", refuse)
        for name in ARTEFACTS:
            render(name, "smoke", out_dir=str(tmp_path / "again"))
            again = (tmp_path / "again" / f"{name}.txt").read_bytes()
            assert again == (tmp_path / "warm" / f"{name}.txt").read_bytes(), name
