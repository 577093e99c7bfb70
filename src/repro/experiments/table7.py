"""Table VII — impact of the model-size setting (RQ5).

Sweeps {N_s, N_m, N_l} over {2,4,8}, {8,16,32} and {32,64,128} on one
dataset, comparing All Small, All Large and HeteFedRec under each — the
paper's evidence that HeteFedRec wins when the size range brackets the
data's sweet spot.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunResult, RunSpec

SIZE_SETTINGS: Tuple[Tuple[str, dict], ...] = (
    ("{2,4,8}", {"s": 2, "m": 4, "l": 8}),
    ("{8,16,32}", {"s": 8, "m": 16, "l": 32}),
    ("{32,64,128}", {"s": 32, "m": 64, "l": 128}),
)

#: method → row label, in the paper's row order.
METHODS = {"all_small": "All Small", "all_large": "All Large", "hetefedrec": "HeteFedRec"}
DATASET = "ml"


def table7_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, RunSpec]]]:
    """The model-size sweep, ``grid[arch][setting_label][method]``."""
    return {
        arch: {
            label: {
                method: RunSpec(
                    DATASET,
                    method,
                    arch=arch,
                    profile=profile,
                    seed=seed,
                    config_overrides={"dims": dims},
                )
                for method in METHODS
            }
            for label, dims in SIZE_SETTINGS
        }
        for arch in archs
    }


def format_table7(results: Dict[str, Dict[str, Dict[str, RunResult]]]) -> str:
    blocks: List[str] = []
    labels = [label for label, _ in SIZE_SETTINGS]
    for arch, per_setting in results.items():
        headers = ["Method"] + labels
        rows = []
        for method, display in METHODS.items():
            rows.append([display] + [per_setting[label][method].ndcg for label in labels])
        dataset = next(iter(per_setting[labels[0]].values())).dataset
        blocks.append(
            format_table(
                headers,
                rows,
                title=f"Table VII ({arch} on {dataset}): NDCG@20 by model-size setting",
            )
        )
    return "\n\n".join(blocks)
