"""Fig. 1 — distribution of users' interaction counts.

Renders the per-dataset histogram as ASCII bars and reports the
dispersion statistics the paper's introduction quotes (std vs average) —
the quantitative motivation for model heterogeneity.
"""

from __future__ import annotations

from typing import Dict, List

from repro.data.stats import interaction_histogram, tail_heaviness
from repro.data.synthetic import DATASET_SPECS, load_benchmark_dataset
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.reporting import ascii_bar

#: Histogram bins per dataset.
BINS = 12


def run_fig1(profile: str | ExperimentProfile = "bench") -> Dict[str, dict]:
    """Histogram + dispersion stats per dataset."""
    prof = profile if isinstance(profile, ExperimentProfile) else get_profile(profile)
    out: Dict[str, dict] = {}
    for name in DATASET_SPECS:
        dataset = load_benchmark_dataset(name, prof.synthetic_config())
        edges, hist = interaction_histogram(dataset, bins=BINS)
        counts = dataset.interaction_counts().astype(float)
        out[name] = {
            "edges": edges,
            "hist": hist,
            "std": float(counts.std()),
            "avg": float(counts.mean()),
            "tail_heaviness": tail_heaviness(dataset),
        }
    return out


def format_fig1(results: Dict[str, dict]) -> str:
    lines: List[str] = ["Fig. 1: distribution of users' interaction numbers"]
    for name, result in results.items():
        lines.append(
            f"\n{name}: std={result['std']:.1f} avg={result['avg']:.1f} "
            f"(std/avg={result['std'] / result['avg']:.2f}, "
            f"{100 * result['tail_heaviness']:.0f}% of users below the mean)"
        )
        peak = max(int(h) for h in result["hist"]) or 1
        for left, right, height in zip(
            result["edges"][:-1], result["edges"][1:], result["hist"]
        ):
            bar = ascii_bar(float(height), float(peak), width=40)
            lines.append(f"  [{left:6.0f},{right:6.0f})  {int(height):4d}  {bar}")
    return "\n".join(lines)
