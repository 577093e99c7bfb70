"""Tests for the experiment harness: profiles, runner, cache, formatters."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import PROFILES, format_table, run_spec
from repro.experiments import fig1
from repro.experiments.fig1 import format_fig1, run_fig1
from repro.experiments.fig7 import convergence_epochs
from repro.experiments.fig8 import has_interior_peak
from repro.experiments.profiles import get_profile
from repro.experiments.reporting import ascii_bar, format_series
from repro.experiments.runner import RunResult, RunSpec, clear_cache
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table3 import (
    format_table3,
    hetefedrec_extra_head_cost,
    run_table3,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    import repro.experiments.runner as runner

    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "cache"))
    yield


class TestProfiles:
    def test_three_profiles(self):
        assert set(PROFILES) == {"smoke", "bench", "full"}

    def test_ordering(self):
        assert PROFILES["smoke"].scale < PROFILES["bench"].scale <= PROFILES["full"].scale

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("huge")


class TestRunner:
    def test_run_and_cache(self):
        first = run_spec(RunSpec("ml", "all_small", profile="smoke"))
        second = run_spec(RunSpec("ml", "all_small", profile="smoke"))
        assert first.ndcg == second.ndcg
        assert isinstance(first, RunResult)
        assert first.communication_total > 0
        assert set(first.group_ndcg) >= {"s", "m", "l"}

    def test_overrides_change_cache_key(self):
        a = run_spec(RunSpec("ml", "hetefedrec", profile="smoke"))
        b = run_spec(RunSpec(
            "ml", "hetefedrec", profile="smoke", config_overrides={"alpha": 9.9},
        ))
        # Different configs may coincidentally tie on metrics, but they
        # must at least be separate cache entries (both persisted).
        import repro.experiments.runner as runner

        files = os.listdir(runner.CACHE_DIR)
        assert len(files) >= 2

    @pytest.mark.parametrize("field,value", [("clients_per_round", 8), ("seed", 123)])
    def test_every_profile_field_changes_cache_key(self, field, value):
        """Regression: the key hand-picked six profile fields and forgot
        the cohort size and the dataset seed, so a profile differing in
        either was served the stock profile's cached result."""
        stock = RunSpec("ml", "hetefedrec", profile="smoke")
        varied = RunSpec(
            "ml", "hetefedrec", profile=replace(get_profile("smoke"), **{field: value})
        )
        assert varied.key() != stock.key()
        assert varied != stock

    def test_json_roundtrip(self):
        result = run_spec(RunSpec("ml", "all_small", profile="smoke"))
        clone = RunResult.from_json(result.to_json())
        assert clone.ndcg == result.ndcg
        assert clone.ndcg_curve == result.ndcg_curve

    def test_clear_cache(self):
        run_spec(RunSpec("ml", "all_small", profile="smoke"))
        assert clear_cache() >= 1


class TestTable1AndFig1:
    def test_table1_rows(self):
        stats = run_table1("smoke")
        assert set(stats) == {"ml", "anime", "douban"}
        text = format_table1(stats)
        assert "Table I" in text and "ml" in text and "paper" in text

    def test_fig1(self, monkeypatch):
        monkeypatch.setattr(fig1, "BINS", 6)
        results = run_fig1("smoke")
        text = format_fig1(results)
        assert "std" in text
        for name, result in results.items():
            assert result["hist"].sum() > 0


class TestTable3:
    def test_costs_monotone_in_group(self):
        costs = run_table3("smoke")
        assert costs["s"]["hetefedrec"] < costs["m"]["hetefedrec"] < costs["l"]["hetefedrec"]
        text = format_table3(costs)
        assert "Table III" in text

    def test_extra_cost_structure(self):
        extra = hetefedrec_extra_head_cost()
        assert extra["l"] > extra["m"] > 0


class TestAnalysisHelpers:
    def test_convergence_epochs(self):
        fake = RunResult(
            dataset="ml", method="x", arch="ncf", profile="smoke",
            recall=0.2, ndcg=0.1,
            group_recall={}, group_ndcg={},
            ndcg_curve=[(1, 0.02), (2, 0.08), (3, 0.095), (4, 0.1)],
            communication_total=0, communication_per_round=0.0, collapse={},
        )
        epochs = convergence_epochs({"ncf": {"x": fake}}, fraction=0.9)
        assert epochs["ncf"]["x"] == 3

    def test_interior_peak_detection(self):
        def fake(ndcg):
            return RunResult(
                dataset="ml", method="hetefedrec", arch="ncf", profile="smoke",
                recall=0.0, ndcg=ndcg, group_recall={}, group_ndcg={},
                ndcg_curve=[], communication_total=0,
                communication_per_round=0.0, collapse={},
            )

        peaked = {0.1: fake(0.1), 0.5: fake(0.3), 1.0: fake(0.2)}
        monotone = {0.1: fake(0.1), 0.5: fake(0.2), 1.0: fake(0.3)}
        assert has_interior_peak(peaked)
        assert not has_interior_peak(monotone)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1.5, "x"], [2.25, "yyyy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(line) for line in lines[1:])) <= 2  # aligned

    def test_ascii_bar(self):
        assert ascii_bar(5, 10, width=10) == "#####"
        assert ascii_bar(0, 10) == ""
        assert ascii_bar(1, 0) == ""

    def test_format_series(self):
        text = format_series([(1, 0.5), (2, 0.75)], label="curve")
        assert "curve" in text
        assert "0.7500" in text
