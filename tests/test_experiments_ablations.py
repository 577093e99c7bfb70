"""Fast tests for the ablation experiment formatters (no training)."""

import pytest

from repro.experiments.ablations import (
    format_arch_comparison,
    format_compression,
    format_kd_subset,
    format_robustness,
    format_server_optimizer,
    format_theta_mode,
)
from repro.experiments.runner import RunResult


def stub(method="hetefedrec", ndcg=0.1, recall=0.2, comm=1000):
    return RunResult(
        dataset="ml",
        method=method,
        arch="ncf",
        profile="smoke",
        recall=recall,
        ndcg=ndcg,
        group_recall={"s": recall},
        group_ndcg={"s": ndcg},
        ndcg_curve=[(1, ndcg)],
        communication_total=comm,
        communication_per_round=float(comm),
        collapse={"l": 0.1},
    )


class TestFormatters:
    def test_theta_mode(self):
        text = format_theta_mode(
            {"theta mean (default)": stub(ndcg=0.2), "theta sum (paper)": stub(ndcg=0.1)}
        )
        assert "theta mean (default)" in text
        assert "0.20000" in text

    def test_server_optimizer(self):
        text = format_server_optimizer({"direct (paper)": stub(), "fedadam": stub()})
        assert "fedadam" in text and "NDCG@20" in text

    def test_compression_ratios_relative_to_dense(self):
        text = format_compression(
            {"dense": stub(comm=1000), "topk": stub(comm=250)}
        )
        assert "1.00x" in text and "0.25x" in text

    def test_kd_subset(self):
        text = format_kd_subset({"|V_kd| = 8": stub(), "|V_kd| = 32": stub()})
        assert "|V_kd| = 8" in text

    def test_arch_comparison(self):
        text = format_arch_comparison(
            {"ncf": {"all_small": stub(method="all_small"), "hetefedrec": stub()}}
        )
        assert "ncf" in text and "all_small" in text

    def test_robustness(self):
        text = format_robustness(
            {
                "clean / undefended": stub(recall=0.2, ndcg=0.15),
                "attacked / undefended": stub(recall=0.05, ndcg=0.02),
            }
        )
        assert "clean / undefended" in text
        assert "0.02000" in text


class TestRegistryIntegration:
    def test_ablations_registered_in_run_all(self):
        from repro.experiments.run_all import ARTEFACTS

        for name in (
            "ablation_theta_mode",
            "ablation_server_optimizer",
            "ablation_compression",
            "ablation_kd_subset",
            "ablation_arch",
            "ablation_robustness",
        ):
            entry = ARTEFACTS[name]
            assert callable(entry.fmt) and entry.run is None
            # Every ablation that trains declares its cached grid.
            assert callable(entry.grid)

    def test_robustness_clean_arm_is_the_table2_run(self):
        """The clean, undefended quadrant is Table II's ml HeteFedRec
        cell: one cache entry, under the key Table II has always used
        (a ``RunSpec`` version bump would change it)."""
        from repro.experiments.ablations import robustness_grid
        from repro.experiments.table2 import table2_grid

        grid = robustness_grid("bench")
        clean = grid["clean / undefended"]
        assert clean == table2_grid("bench")["ncf"]["ml"]["hetefedrec"]
        assert clean.key() == "272ef1720a9111b7b100874e"
        assert len({spec.key() for spec in grid.values()}) == 4
