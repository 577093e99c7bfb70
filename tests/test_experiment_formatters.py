"""Formatter tests for every table/figure module, on fabricated results.

These run without any training, so they pin down the report layout and
the row/column order the benchmarks rely on.
"""

import pytest

from repro.experiments.fig6 import format_fig6
from repro.experiments.fig7 import format_fig7
from repro.experiments.fig8 import format_fig8
from repro.experiments.runner import RunResult
from repro.experiments.table2 import format_table2, winner_per_dataset
from repro.experiments.table4 import ABLATION_LADDER, format_table4
from repro.experiments.table5 import format_table5
from repro.experiments.table6 import format_table6
from repro.experiments.table7 import SIZE_SETTINGS, format_table7


def fake_run(method="hetefedrec", ndcg=0.1, recall=0.2, dataset="ml", arch="ncf"):
    return RunResult(
        dataset=dataset,
        method=method,
        arch=arch,
        profile="smoke",
        recall=recall,
        ndcg=ndcg,
        group_recall={"s": recall, "m": recall, "l": recall},
        group_ndcg={"s": ndcg * 0.8, "m": ndcg, "l": ndcg * 1.2},
        ndcg_curve=[(1, ndcg / 2), (2, ndcg)],
        communication_total=1000,
        communication_per_round=10.0,
        collapse={"s": 0.1, "m": 0.2, "l": 0.3},
    )


class TestTable2Formatter:
    def grid(self):
        return {
            "ncf": {
                "ml": {
                    "all_small": fake_run("all_small", 0.10),
                    "hetefedrec": fake_run("hetefedrec", 0.15),
                },
                "anime": {
                    "all_small": fake_run("all_small", 0.12, dataset="anime"),
                    "hetefedrec": fake_run("hetefedrec", 0.11, dataset="anime"),
                },
            }
        }

    def test_layout(self):
        text = format_table2(self.grid())
        assert "Table II (ncf)" in text
        assert "HeteFedRec(Ours)" in text
        assert "ml:Recall" in text and "anime:NDCG" in text

    def test_winners(self):
        winners = winner_per_dataset(self.grid())
        assert winners["ncf"]["ml"] == "hetefedrec"
        assert winners["ncf"]["anime"] == "all_small"


class TestFig6Formatter:
    def test_group_columns(self):
        results = {"ncf": {"ml": {"hetefedrec": fake_run()}}}
        text = format_fig6(results)
        assert "U_s NDCG" in text and "U_l NDCG" in text


class TestFig7Formatter:
    def test_series_layout(self):
        results = {"ncf": {"all_small": fake_run("all_small")}}
        text = format_fig7(results)
        assert "Fig. 7 (ncf on ml)" in text
        assert "All Small" in text

    def test_title_names_the_dataset_that_ran(self):
        """Regression: the title hard-coded "on ml" whatever was run."""
        results = {"ncf": {"all_small": fake_run("all_small", dataset="anime")}}
        assert "Fig. 7 (ncf on anime)" in format_fig7(results)


class TestFig8Formatter:
    def test_alpha_series(self):
        per_alpha = {0.25: fake_run(ndcg=0.2), 1.0: fake_run(ndcg=0.1)}
        text = format_fig8({"ncf": per_alpha})
        assert "Fig. 8 (ncf on ml): α → NDCG@20" in text
        assert "0.2000" in text

    def test_title_names_the_dataset_that_ran(self):
        per_alpha = {0.25: fake_run(dataset="douban"), 1.0: fake_run(dataset="douban")}
        assert "Fig. 8 (ncf on douban)" in format_fig8({"ncf": per_alpha})


class TestTable4Formatter:
    def test_ladder_rows_in_paper_order(self):
        per_dataset = {
            "ml": {label: fake_run(ndcg=0.1 - i * 0.01)
                   for i, (label, _) in enumerate(ABLATION_LADDER)}
        }
        text = format_table4({"ncf": per_dataset})
        lines = text.splitlines()
        positions = [
            next(i for i, line in enumerate(lines) if line.startswith(label))
            for label, _ in ABLATION_LADDER
        ]
        assert positions == sorted(positions)


class TestTable5Formatter:
    def test_variants(self):
        def collapsed(variance):
            run = fake_run()
            run.collapse = {"l": variance}
            return run

        results = {"ncf": {"ml": {"+ DDR": collapsed(0.1), "- DDR": collapsed(0.9)}}}
        text = format_table5(results)
        assert "0.1000" in text and "0.9000" in text
        assert "- DDR" in text and "+ DDR" in text
        assert "higher = more collapsed" in text


class TestTable6Formatter:
    def test_five_columns(self):
        row = {
            label: fake_run(ndcg=0.1)
            for label in ("All Small", "5:3:2", "1:1:1", "2:3:5", "All Large")
        }
        text = format_table6({"ncf": {"ml": row}})
        for column in ("All Small", "5:3:2", "2:3:5", "All Large"):
            assert column in text


class TestTable7Formatter:
    def test_size_columns(self):
        per_setting = {
            label: {
                m: fake_run(m) for m in ("all_small", "all_large", "hetefedrec")
            }
            for label, _ in SIZE_SETTINGS
        }
        text = format_table7({"ncf": per_setting})
        assert "{8,16,32}" in text and "{32,64,128}" in text
        assert "Table VII (ncf on ml)" in text

    def test_title_names_the_dataset_that_ran(self):
        per_setting = {
            label: {
                m: fake_run(m, dataset="anime")
                for m in ("all_small", "all_large", "hetefedrec")
            }
            for label, _ in SIZE_SETTINGS
        }
        assert "Table VII (ncf on anime)" in format_table7({"ncf": per_setting})
