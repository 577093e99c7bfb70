"""Table II — overall comparison of HeteFedRec against all six baselines.

Seven methods × {Fed-NCF, Fed-LightGCN} × three datasets, reporting
Recall@20 / NDCG@20.  Fig. 6 and Fig. 7 analyse slices of the same grid,
so their runs are the same cache entries.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.baselines.registry import DISPLAY_NAMES, TABLE2_ORDER
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_recall_ndcg_blocks
from repro.experiments.runner import RunResult, RunSpec

DATASETS = ("ml", "anime", "douban")
ARCHS = ("ncf", "lightgcn")


def table2_grid(
    profile: str | ExperimentProfile = "bench",
    datasets: Sequence[str] = DATASETS,
    archs: Sequence[str] = ARCHS,
    methods: Sequence[str] = TABLE2_ORDER,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, RunSpec]]]:
    """The Table II grid, ``grid[arch][dataset][method]`` (Fig. 6 and
    Fig. 7 take slices of it through ``datasets`` / ``methods``)."""
    return {
        arch: {
            dataset: {
                method: RunSpec(dataset, method, arch=arch, profile=profile, seed=seed)
                for method in methods
            }
            for dataset in datasets
        }
        for arch in archs
    }


def format_table2(results: Dict[str, Dict[str, Dict[str, RunResult]]]) -> str:
    """Paper-layout rendering: one block per architecture."""
    return format_recall_ndcg_blocks(
        results,
        "Method",
        "Table II ({arch}): overall comparison",
        row_label=lambda method: DISPLAY_NAMES.get(method, method),
    )


def winner_per_dataset(
    results: Dict[str, Dict[str, Dict[str, RunResult]]]
) -> Dict[str, Dict[str, str]]:
    """Which method wins each (arch, dataset) cell on NDCG@20 — the
    headline claim."""
    winners: Dict[str, Dict[str, str]] = {}
    for arch, per_dataset in results.items():
        winners[arch] = {}
        for dataset, per_method in per_dataset.items():
            winners[arch][dataset] = max(
                per_method, key=lambda m: per_method[m].ndcg
            )
    return winners
