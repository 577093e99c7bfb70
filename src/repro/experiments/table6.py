"""Table VI — impact of the client-division ratio (RQ4).

Sweeps the U_s:U_m:U_l split over 5:3:2 (conservative), 1:1:1 (neutral)
and 2:3:5 (optimistic), bracketing with All Small (≈10:0:0) and All Large
(≈0:0:10), on every dataset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunResult, RunSpec

#: The paper's five columns, in order: (label, method, config overrides).
#: The two brackets carry no override, so they are Table II's cache entries.
COLUMNS: Tuple[Tuple[str, str, Optional[dict]], ...] = (
    ("All Small", "all_small", None),
    ("5:3:2", "hetefedrec", {"ratios": (5, 3, 2)}),
    ("1:1:1", "hetefedrec", {"ratios": (1, 1, 1)}),
    ("2:3:5", "hetefedrec", {"ratios": (2, 3, 5)}),
    ("All Large", "all_large", None),
)


DATASETS = ("ml", "anime", "douban")


def table6_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, RunSpec]]]:
    """The division-ratio sweep, ``grid[arch][dataset][column]``."""
    return {
        arch: {
            dataset: {
                label: RunSpec(
                    dataset,
                    method,
                    arch=arch,
                    profile=profile,
                    seed=seed,
                    config_overrides=overrides,
                )
                for label, method, overrides in COLUMNS
            }
            for dataset in DATASETS
        }
        for arch in archs
    }


def format_table6(results: Dict[str, Dict[str, Dict[str, RunResult]]]) -> str:
    blocks: List[str] = []
    columns = [label for label, _, _ in COLUMNS]
    for arch, per_dataset in results.items():
        headers = ["Dataset", "Metric"] + columns
        rows = []
        for dataset, per_column in per_dataset.items():
            rows.append(
                [dataset, "Recall"] + [per_column[c].recall for c in columns]
            )
            rows.append(
                [dataset, "NDCG"] + [per_column[c].ndcg for c in columns]
            )
        blocks.append(
            format_table(headers, rows, title=f"Table VI ({arch}): client division")
        )
    return "\n\n".join(blocks)
