"""Fig. 6 — per-group NDCG breakdown (U_s / U_m / U_l).

A slice of the Table II grid (the focus methods' runs are the same cache
entries); prints the group-level NDCG@20 for the methods the paper
highlights.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.baselines.registry import DISPLAY_NAMES
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunResult, RunSpec
from repro.experiments.table2 import DATASETS, table2_grid

FOCUS_METHODS = ("all_small", "all_large", "hetefedrec")


def fig6_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, RunSpec]]]:
    """Table II's grid restricted to the focus methods,
    ``grid[arch][dataset][method]``."""
    return table2_grid(profile, DATASETS, archs, FOCUS_METHODS, seed)


def format_fig6(results: Dict[str, Dict[str, Dict[str, RunResult]]]) -> str:
    blocks: List[str] = []
    for arch, per_dataset in results.items():
        for dataset, per_method in per_dataset.items():
            headers = ["Method", "U_s NDCG", "U_m NDCG", "U_l NDCG"]
            rows = []
            for method, run in per_method.items():
                rows.append(
                    [
                        DISPLAY_NAMES.get(method, method),
                        run.group_ndcg.get("s", run.group_ndcg.get("all", 0.0)),
                        run.group_ndcg.get("m", run.group_ndcg.get("all", 0.0)),
                        run.group_ndcg.get("l", run.group_ndcg.get("all", 0.0)),
                    ]
                )
            blocks.append(
                format_table(
                    headers, rows, title=f"Fig. 6 ({arch} on {dataset}): NDCG by group"
                )
            )
    return "\n\n".join(blocks)
