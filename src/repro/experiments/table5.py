"""Table V — dimensional collapse: singular-value variance of cov(V_l).

Compares the largest item table's covariance-spectrum spread with and
without the decorrelation regulariser.  A higher value means the
spectrum is dominated by few directions — the collapse DDR exists to
prevent.  The two arms are Table IV's middle rungs (same cache entries).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunResult, RunSpec
from repro.experiments.table4 import table4_grid

#: Both arms disable RESKD so the comparison isolates DDR; these are the
#: same cache entries as Table IV's middle rungs.
ARMS = (
    ("+ DDR", {"enable_reskd": False}),
    ("- DDR", {"enable_reskd": False, "enable_ddr": False}),
)


def table5_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, RunSpec]]]:
    """``grid[arch][dataset][{'+ DDR', '- DDR'}]`` — a two-rung Table IV.

    RESKD is disabled in both arms so the comparison isolates DDR, which
    is also how the paper's Table V pairs with its ablation.
    """
    return table4_grid(profile, archs, seed, ladder=ARMS)


def collapse_variance(run: RunResult) -> float:
    """The singular-value variance of cov(V_l) one run measured."""
    return run.collapse.get("l", 0.0)


def format_table5(results: Dict[str, Dict[str, Dict[str, RunResult]]]) -> str:
    blocks: List[str] = []
    for arch, per_dataset in results.items():
        headers = ["Variant"] + list(per_dataset)
        rows = []
        for variant in ("- DDR", "+ DDR"):
            row: List = [variant]
            for dataset in per_dataset:
                row.append(collapse_variance(per_dataset[dataset][variant]))
            rows.append(row)
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Table V ({arch}): singular-value variance of cov(V_l) "
                    "(higher = more collapsed)"
                ),
                float_format="{:.4f}",
            )
        )
    return "\n\n".join(blocks)
