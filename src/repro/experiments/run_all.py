"""Regenerate every paper artefact in one command.

Usage:
    python -m repro.experiments.run_all --profile bench --out results/ --jobs 4

``ARTEFACTS`` registers each artefact once as *(grid, run, format)*.
The grid is the artefact's one declaration of what it trains — a nested
``label → … → RunSpec`` mapping (``None`` for the artefacts that train
nothing through the run cache) — so the suite's warm-up is *derived*:
:func:`collect_suite_specs` is the leaves of every registered grid,
deduped *across artefacts* by :func:`repro.experiments.runner.run_grid`
(Fig. 6 and Fig. 7 are slices of Table II's grid, Table V two rungs of
Table IV's; ``--jobs N`` fans the misses out over N worker processes).
Each artefact is then rendered from the warmed cache and written to
``<out>/<name>.txt``.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import ablations, fig1, fig6, fig7, fig8
from repro.experiments import table1, table2, table3, table4, table5, table6, table7
from repro.experiments.reporting import write_artefact
from repro.experiments.runner import RunSpec, run_grid, tree_specs

#: (grid or None, run, format); grid and run are called ``(profile, archs=archs)``.
Artefact = Tuple[Optional[Callable], Callable, Callable]


def _fixed(grid: Optional[Callable], run: Callable, fmt: Callable) -> Artefact:
    """An artefact that does not sweep ``archs``: the analytic ones, and the
    ablations, each of which probes one design choice on its default arch."""
    return (
        None if grid is None else lambda profile, archs: grid(profile),
        lambda profile, archs: run(profile),
        fmt,
    )


ARTEFACTS: Dict[str, Artefact] = {
    "table1_datasets": _fixed(None, table1.run_table1, table1.format_table1),
    "fig1_distribution": _fixed(None, fig1.run_fig1, fig1.format_fig1),
    "table2_main": (table2.table2_grid, table2.run_table2, table2.format_table2),
    "fig6_groups": (fig6.fig6_grid, fig6.run_fig6, fig6.format_fig6),
    "fig7_convergence": (fig7.fig7_grid, fig7.run_fig7, fig7.format_fig7),
    "table3_communication": _fixed(None, table3.run_table3, table3.format_table3),
    "table4_ablation": (table4.table4_grid, table4.run_table4, table4.format_table4),
    "table5_collapse": (table5.table5_grid, table5.run_table5, table5.format_table5),
    "table6_division": (table6.table6_grid, table6.run_table6, table6.format_table6),
    "table7_modelsize": (table7.table7_grid, table7.run_table7, table7.format_table7),
    "fig8_alpha": (fig8.fig8_grid, fig8.run_fig8, fig8.format_fig8),
    # Design-choice ablations (no paper counterpart; each module's docstring
    # names the design choice it measures).
    "ablation_theta_mode": _fixed(
        ablations.theta_mode_grid, ablations.run_theta_mode, ablations.format_theta_mode
    ),
    "ablation_server_optimizer": _fixed(
        ablations.server_optimizer_grid,
        ablations.run_server_optimizer,
        ablations.format_server_optimizer,
    ),
    "ablation_compression": _fixed(
        ablations.compression_grid, ablations.run_compression, ablations.format_compression
    ),
    "ablation_kd_subset": _fixed(
        ablations.kd_subset_grid, ablations.run_kd_subset, ablations.format_kd_subset
    ),
    "ablation_arch": (
        ablations.arch_comparison_grid,
        ablations.run_arch_comparison,
        ablations.format_arch_comparison,
    ),
    # Trains the adversarial harness directly (not a registry method).
    "ablation_robustness": _fixed(
        None, ablations.run_robustness, ablations.format_robustness
    ),
    "ablation_systems": _fixed(None, ablations.run_systems, ablations.format_systems),
    "ablation_privacy": _fixed(
        ablations.privacy_grid, ablations.run_privacy, ablations.format_privacy
    ),
}


def collect_suite_specs(
    profile: str = "bench", archs: Tuple[str, ...] = ("ncf",)
) -> List[RunSpec]:
    """Every cached training run the registry will request, with duplicates:
    the leaves of every registered grid."""
    return [
        spec
        for grid, _, _ in ARTEFACTS.values()
        if grid is not None
        for spec in tree_specs(grid(profile, archs=archs))
    ]


def run_all(profile: str = "bench", out_dir: str = "results",
            archs: Tuple[str, ...] = ("ncf",),
            jobs: Optional[int] = None,
            clock: Callable[[], float] = time.perf_counter) -> List[str]:
    """Run every artefact; returns the list of files written.

    ``clock`` feeds only the progress display and is injectable so tests
    can drive it deterministically; nothing cached or fingerprinted
    reads it.
    """
    # One deduped pass over the whole suite's training jobs: overlapping
    # grids dispatch once, and cache misses run ``jobs``-wide.
    specs = collect_suite_specs(profile, archs)
    start = clock()
    grid = run_grid(specs, jobs=jobs)
    print(
        f"[{clock() - start:7.1f}s] training grid: {len(specs)} requested, "
        f"{len(grid)} unique runs ready (jobs={jobs or 1})"
    )

    written = []
    for name, (_, run, fmt) in ARTEFACTS.items():
        start = clock()
        path = write_artefact(out_dir, name, fmt(run(profile, archs=archs)))
        written.append(path)
        print(f"[{clock() - start:7.1f}s] {name} -> {path}")
    return written


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="bench",
                        choices=["smoke", "bench", "full"])
    parser.add_argument("--out", default="results")
    parser.add_argument("--archs", nargs="+", default=["ncf"],
                        choices=["ncf", "lightgcn"])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the training grid "
                        "(default: serial)")
    args = parser.parse_args()
    run_all(profile=args.profile, out_dir=args.out, archs=tuple(args.archs),
            jobs=args.jobs)


if __name__ == "__main__":
    main()
