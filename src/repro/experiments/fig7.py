"""Fig. 7 — convergence: NDCG@20 over training epochs.

Compares All Small, All Large and HeteFedRec on one dataset (the paper
shows MovieLens; other datasets behave alike).  The curves come straight
from the trainers' evaluation history of Table II's runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.baselines.registry import DISPLAY_NAMES
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_series
from repro.experiments.runner import RunResult, RunSpec
from repro.experiments.table2 import table2_grid

CURVE_METHODS = ("all_small", "all_large", "hetefedrec")
DATASET = "ml"


def fig7_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    methods: Sequence[str] = CURVE_METHODS,
    seed: int = 0,
) -> Dict[str, Dict[str, RunSpec]]:
    """One dataset column of the Table II grid, ``grid[arch][method]``."""
    columns = table2_grid(profile, (DATASET,), archs, methods, seed)
    return {arch: per_dataset[DATASET] for arch, per_dataset in columns.items()}


def format_fig7(results: Dict[str, Dict[str, RunResult]]) -> str:
    blocks: List[str] = []
    for arch, per_method in results.items():
        dataset = next(iter(per_method.values())).dataset
        blocks.append(f"Fig. 7 ({arch} on {dataset}): NDCG@20 during training")
        for method, run in per_method.items():
            label = f"  {DISPLAY_NAMES.get(method, method)} (epoch → NDCG@20)"
            blocks.append(format_series(run.ndcg_curve, label=label))
    return "\n".join(blocks)


def convergence_epochs(
    results: Dict[str, Dict[str, RunResult]], fraction: float
) -> Dict[str, Dict[str, int]]:
    """Epoch where each run first reaches ``fraction`` of its final NDCG.

    The paper's RQ2 discussion is about how quickly methods converge;
    this is its quantitative form.
    """
    out: Dict[str, Dict[str, int]] = {}
    for arch, per_method in results.items():
        out[arch] = {}
        for method, run in per_method.items():
            if not run.ndcg_curve:
                continue
            final = run.ndcg_curve[-1][1]
            target = fraction * final
            epoch = next(
                (e for e, value in run.ndcg_curve if value >= target),
                run.ndcg_curve[-1][0],
            )
            out[arch][method] = int(epoch)
    return out
