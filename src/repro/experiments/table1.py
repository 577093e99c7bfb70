"""Table I — dataset statistics.

Prints the same columns as the paper (Users, Items, Interactions, Avg.,
<50%, <80%) for the three generated datasets, together with the paper's
values for side-by-side comparison.
"""

from __future__ import annotations

from typing import Dict, List

from repro.data.stats import DatasetStatistics, dataset_statistics
from repro.data.synthetic import DATASET_SPECS, load_benchmark_dataset
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.reporting import format_table


def run_table1(profile: str | ExperimentProfile = "bench") -> Dict[str, DatasetStatistics]:
    """Compute the Table I row for each benchmark dataset."""
    prof = profile if isinstance(profile, ExperimentProfile) else get_profile(profile)
    stats = {}
    for name in DATASET_SPECS:
        dataset = load_benchmark_dataset(name, prof.synthetic_config())
        stats[name] = dataset_statistics(dataset)
    return stats


def format_table1(stats: Dict[str, DatasetStatistics]) -> str:
    """Render measured rows with the paper's originals for reference."""
    headers = ["Dataset", "Users", "Items", "Interactions", "Avg.", "<50%", "<80%", "cv"]
    rows: List[list] = []
    for name, stat in stats.items():
        spec = DATASET_SPECS[name]
        rows.append(
            [
                name,
                stat.users,
                stat.items,
                stat.interactions,
                round(stat.avg, 1),
                round(stat.q50, 1),
                round(stat.q80, 1),
                round(stat.cv, 2),
            ]
        )
        rows.append(
            [
                "  (paper)",
                spec.paper_users,
                spec.paper_items,
                spec.paper_interactions,
                spec.paper_avg,
                spec.paper_q50,
                spec.paper_q80,
                round(spec.cv, 2),
            ]
        )
    return format_table(headers, rows, title="Table I: dataset statistics")
