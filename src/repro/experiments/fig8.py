"""Fig. 8 — sensitivity to the decorrelation weight α (RQ6).

Sweeps α and reports NDCG@20; the paper observes an interior optimum
(performance rises to a peak, then declines as the regulariser starts to
dominate the recommendation loss).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.profiles import ExperimentProfile
from repro.experiments.reporting import format_series
from repro.experiments.runner import RunResult, RunSpec, run_tree

#: A geometric sweep (×4 a step) from the small-scale operating region to
#: past the paper's grid (0.5–2.0); the interior-peak *shape* is the
#: reproduction target.
DEFAULT_ALPHAS = (0.05, 0.25, 1.0, 4.0)


def fig8_grid(
    profile: str | ExperimentProfile = "bench",
    dataset: str = "ml",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    seed: int = 0,
) -> Dict[str, Dict[float, RunSpec]]:
    """The α sweep, ``grid[arch][alpha]`` in ascending α."""
    return {
        arch: {
            float(alpha): RunSpec(
                dataset,
                "hetefedrec",
                arch=arch,
                profile=profile,
                seed=seed,
                config_overrides={"alpha": float(alpha)},
            )
            for alpha in sorted(alphas)
        }
        for arch in archs
    }


def run_fig8(
    profile: str | ExperimentProfile = "bench",
    dataset: str = "ml",
    archs: Sequence[str] = ("ncf", "lightgcn"),
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    seed: int = 0,
) -> Dict[str, List[Tuple[float, RunResult]]]:
    """``results[arch] = [(alpha, run), ...]`` sorted by alpha."""
    runs = run_tree(fig8_grid(profile, dataset, archs, alphas, seed))
    return {arch: list(per_alpha.items()) for arch, per_alpha in runs.items()}


def format_fig8(results: Dict[str, List[Tuple[float, RunResult]]]) -> str:
    blocks: List[str] = []
    for arch, series in results.items():
        blocks.append(
            format_series(
                [(alpha, run.ndcg) for alpha, run in series],
                label=f"Fig. 8 ({arch} on {series[0][1].dataset}): α → NDCG@20",
            )
        )
    return "\n\n".join(blocks)


def has_interior_peak(series: List[Tuple[float, RunResult]]) -> bool:
    """True if the best α is strictly inside the sweep range."""
    if len(series) < 3:
        return False
    values = [run.ndcg for _, run in series]
    best = max(range(len(values)), key=values.__getitem__)
    return 0 < best < len(values) - 1
