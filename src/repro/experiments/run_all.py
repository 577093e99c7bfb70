"""Regenerate every paper artefact in one command: the one driver of ``results/``.

Usage:
    python -m repro experiments --profile bench --out results --jobs 2

``ARTEFACTS`` declares each artefact once as *(grid, run, format)*, with
everything that fixes the bytes of its file: which runner, which
arguments, which formatter.  The grid is the artefact's one declaration
of what it trains — a nested ``label → … → RunSpec`` mapping (``None``
for the artefacts that train nothing through the run cache).  Only the
profile and, for the artefacts that sweep base models, ``archs`` (default
``ncf``) come from the caller.

:func:`render` is the one code path that writes an artefact: it runs the
entry, writes ``<out>/<name>.txt`` through
:func:`~repro.experiments.reporting.write_artefact` and returns the
results tree.  :func:`run_all` first warms the run cache with
:func:`collect_suite_specs` — the leaves of every registered grid,
deduped *across artefacts* by :func:`repro.experiments.runner.run_grid`
(Fig. 6 and Fig. 7 are slices of Table II's grid, Table V two rungs of
Table IV's; ``--jobs N`` fans the misses out over N worker processes) —
then renders every artefact.  The ``benchmarks/test_*`` artefact tests
call :func:`render` at ``bench`` and only assert, so
``python -m repro experiments --profile bench --out results`` writes the
committed ``results/`` byte for byte.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import ablations, fig1, fig6, fig7, fig8
from repro.experiments import table1, table2, table3, table4, table5, table6, table7
from repro.experiments.reporting import write_artefact
from repro.experiments.runner import RunSpec, run_grid, tree_specs

#: (grid or None, run, format); grid and run are called ``(profile, archs=archs)``.
Artefact = Tuple[Optional[Callable], Callable, Callable]

#: The base models the arch-sweeping artefacts cover unless told otherwise.
DEFAULT_ARCHS = ("ncf",)


def _fixed(grid: Optional[Callable], run: Callable, fmt: Callable, **fixed: Any) -> Artefact:
    """An artefact that does not sweep ``archs``: the analytic ones, the
    ablations, each of which probes one design choice on its own archs,
    and the LightGCN convergence check.  ``fixed`` goes to grid and run."""
    return (
        None if grid is None else lambda profile, archs: grid(profile, **fixed),
        lambda profile, archs: run(profile, **fixed),
        fmt,
    )


ARTEFACTS: Dict[str, Artefact] = {
    "table1_datasets": _fixed(None, table1.run_table1, table1.format_table1),
    "fig1_distribution": _fixed(None, fig1.run_fig1, fig1.format_fig1),
    "table2_main": (table2.table2_grid, table2.run_table2, table2.format_table2),
    "fig6_groups": (fig6.fig6_grid, fig6.run_fig6, fig6.format_fig6),
    "fig7_convergence": (fig7.fig7_grid, fig7.run_fig7, fig7.format_fig7),
    # The paper's trends on the second base model.
    "fig7_lightgcn": _fixed(
        fig7.fig7_grid, fig7.run_fig7, fig7.format_fig7,
        archs=("lightgcn",), methods=("all_small", "hetefedrec"),
    ),
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
    "ablation_arch": _fixed(
        ablations.arch_comparison_grid,
        ablations.run_arch_comparison,
        ablations.format_arch_comparison,
        archs=("ncf", "lightgcn", "mf"),
    ),
    "ablation_robustness": _fixed(
        ablations.robustness_grid, ablations.run_robustness, ablations.format_robustness
    ),
    "ablation_systems": _fixed(None, ablations.run_systems, ablations.format_systems),
    "ablation_privacy": _fixed(
        ablations.privacy_grid, ablations.run_privacy, ablations.format_privacy
    ),
}


def collect_suite_specs(
    profile: str = "bench", archs: Tuple[str, ...] = DEFAULT_ARCHS
) -> List[RunSpec]:
    """Every cached training run the registry will request, with duplicates:
    the leaves of every registered grid."""
    return [
        spec
        for grid, _, _ in ARTEFACTS.values()
        if grid is not None
        for spec in tree_specs(grid(profile, archs=archs))
    ]


def render(name: str, profile: str = "bench", out_dir: str = "results",
           archs: Tuple[str, ...] = DEFAULT_ARCHS) -> Any:
    """Run artefact ``name``, write ``<out_dir>/<name>.txt``; returns the
    results tree its formatter rendered.  Nothing is written if the
    runner raises."""
    _, run, fmt = ARTEFACTS[name]
    results = run(profile, archs=archs)
    write_artefact(out_dir, name, fmt(results))
    return results


def run_all(profile: str = "bench", out_dir: str = "results",
            archs: Tuple[str, ...] = DEFAULT_ARCHS,
            jobs: Optional[int] = None,
            clock: Callable[[], float] = time.perf_counter) -> List[str]:
    """Render every artefact; returns the list of files written.

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
    for name in ARTEFACTS:
        start = clock()
        render(name, profile, out_dir, archs)
        written.append(os.path.join(out_dir, f"{name}.txt"))
        print(f"[{clock() - start:7.1f}s] {name} -> {written[-1]}")
    return written
