"""Table IV — ablation study of HeteFedRec's three components.

The ladder removes components cumulatively, exactly as the paper does:
full → −RESKD → −RESKD,DDR → −RESKD,DDR,UDL.  The last rung is, by
construction, the Directly Aggregate baseline.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_recall_ndcg_blocks
from repro.experiments.runner import RunResult, RunSpec

#: (label, config overrides) in the paper's row order.
ABLATION_LADDER: Tuple[Tuple[str, dict], ...] = (
    ("HeteFedRec", {}),
    ("- RESKD", {"enable_reskd": False}),
    ("- RESKD,DDR", {"enable_reskd": False, "enable_ddr": False}),
    (
        "- RESKD,DDR,UDL",
        {"enable_reskd": False, "enable_ddr": False, "enable_udl": False},
    ),
)


DATASETS = ("ml", "anime", "douban")


def table4_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    seed: int = 0,
    ladder: Sequence[Tuple[str, dict]] = ABLATION_LADDER,
) -> Dict[str, Dict[str, Dict[str, RunSpec]]]:
    """``grid[arch][dataset][rung_label]`` (Table V runs two of the rungs)."""
    return {
        arch: {
            dataset: {
                label: RunSpec(
                    dataset,
                    "hetefedrec",
                    arch=arch,
                    profile=profile,
                    seed=seed,
                    config_overrides=overrides,
                )
                for label, overrides in ladder
            }
            for dataset in DATASETS
        }
        for arch in archs
    }


def format_table4(results: Dict[str, Dict[str, Dict[str, RunResult]]]) -> str:
    return format_recall_ndcg_blocks(results, "Variant", "Table IV ({arch}): ablation")
