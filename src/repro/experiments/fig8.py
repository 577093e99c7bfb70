"""Fig. 8 — sensitivity to the decorrelation weight α (RQ6).

Sweeps α and reports NDCG@20; the paper observes an interior optimum
(performance rises to a peak, then declines as the regulariser starts to
dominate the recommendation loss).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_series
from repro.experiments.runner import RunResult, RunSpec

#: A geometric sweep (×4 a step) from the small-scale operating region to
#: past the paper's grid (0.5–2.0); the interior-peak *shape* is the
#: reproduction target.
ALPHAS = (0.05, 0.25, 1.0, 4.0)
DATASET = "ml"


def fig8_grid(
    profile: str | ExperimentProfile = "bench",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    seed: int = 0,
) -> Dict[str, Dict[float, RunSpec]]:
    """The α sweep, ``grid[arch][alpha]`` in ascending α."""
    return {
        arch: {
            float(alpha): RunSpec(
                DATASET,
                "hetefedrec",
                arch=arch,
                profile=profile,
                seed=seed,
                config_overrides={"alpha": float(alpha)},
            )
            for alpha in sorted(ALPHAS)
        }
        for arch in archs
    }


def format_fig8(results: Dict[str, Dict[float, RunResult]]) -> str:
    blocks: List[str] = []
    for arch, per_alpha in results.items():
        dataset = next(iter(per_alpha.values())).dataset
        blocks.append(
            format_series(
                [(alpha, run.ndcg) for alpha, run in per_alpha.items()],
                label=f"Fig. 8 ({arch} on {dataset}): α → NDCG@20",
            )
        )
    return "\n\n".join(blocks)


def has_interior_peak(per_alpha: Dict[float, RunResult]) -> bool:
    """True if the best α is strictly inside the sweep range (``per_alpha``
    in ascending α, as :func:`fig8_grid` declares it)."""
    if len(per_alpha) < 3:
        return False
    values = [run.ndcg for run in per_alpha.values()]
    best = max(range(len(values)), key=values.__getitem__)
    return 0 < best < len(values) - 1
