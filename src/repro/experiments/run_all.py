"""Regenerate every paper artefact in one command: the one driver of ``results/``.

Usage:
    python -m repro experiments --profile bench --out results --jobs 2

``ARTEFACTS`` declares each artefact once, with everything that fixes
the bytes of its file.  An artefact that trains names its grid — its one
declaration of what it trains, a nested ``label → … → RunSpec`` mapping —
and its formatter; the four analytic ones (Table I, Fig. 1, Table III,
the systems ablation) name the runner that computes them instead.  Only
the profile and, for the artefacts that sweep base models, ``archs``
(default ``ncf``) come from the caller.

:func:`render` is the one code path that writes an artefact: it runs the
grid through :func:`~repro.experiments.runner.run_tree` (or calls the
analytic runner), writes ``<out>/<name>.txt`` through
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
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments import ablations, fig1, fig6, fig7, fig8
from repro.experiments import table1, table2, table3, table4, table5, table6, table7
from repro.experiments.reporting import write_artefact
from repro.experiments.runner import RunSpec, run_grid, run_tree, tree_specs

#: The base models the arch-sweeping artefacts cover unless told otherwise.
DEFAULT_ARCHS = ("ncf",)


class Artefact(NamedTuple):
    """One ``results/`` file.  An artefact that trains names its ``grid``
    (called ``grid(profile, archs=archs)``; :func:`render` runs it through
    :func:`run_tree`); an analytic one names the ``run`` that computes it
    (called ``run(profile)``).  ``fmt`` renders the tree either returns."""

    grid: Optional[Callable]
    fmt: Callable
    run: Optional[Callable] = None


def _fixed(grid: Callable, **fixed: Any) -> Callable:
    """A grid that does not sweep the caller's ``archs``: the ablations,
    each of which probes one design choice on its own archs, and the
    LightGCN convergence check.  ``fixed`` goes to the grid."""
    return lambda profile, archs: grid(profile, **fixed)


ARTEFACTS: Dict[str, Artefact] = {
    "table1_datasets": Artefact(None, table1.format_table1, run=table1.run_table1),
    "fig1_distribution": Artefact(None, fig1.format_fig1, run=fig1.run_fig1),
    "table2_main": Artefact(table2.table2_grid, table2.format_table2),
    "fig6_groups": Artefact(fig6.fig6_grid, fig6.format_fig6),
    "fig7_convergence": Artefact(fig7.fig7_grid, fig7.format_fig7),
    # The paper's trends on the second base model.
    "fig7_lightgcn": Artefact(
        _fixed(fig7.fig7_grid, archs=("lightgcn",), methods=("all_small", "hetefedrec")),
        fig7.format_fig7,
    ),
    "table3_communication": Artefact(None, table3.format_table3, run=table3.run_table3),
    "table4_ablation": Artefact(table4.table4_grid, table4.format_table4),
    "table5_collapse": Artefact(table5.table5_grid, table5.format_table5),
    "table6_division": Artefact(table6.table6_grid, table6.format_table6),
    "table7_modelsize": Artefact(table7.table7_grid, table7.format_table7),
    "fig8_alpha": Artefact(fig8.fig8_grid, fig8.format_fig8),
    # Design-choice ablations (no paper counterpart; each module's docstring
    # names the design choice it measures).
    "ablation_theta_mode": Artefact(
        _fixed(ablations.theta_mode_grid), ablations.format_theta_mode
    ),
    "ablation_server_optimizer": Artefact(
        _fixed(ablations.server_optimizer_grid), ablations.format_server_optimizer
    ),
    "ablation_compression": Artefact(
        _fixed(ablations.compression_grid), ablations.format_compression
    ),
    "ablation_kd_subset": Artefact(
        _fixed(ablations.kd_subset_grid), ablations.format_kd_subset
    ),
    "ablation_arch": Artefact(
        _fixed(ablations.arch_comparison_grid, archs=("ncf", "lightgcn", "mf")),
        ablations.format_arch_comparison,
    ),
    "ablation_robustness": Artefact(
        _fixed(ablations.robustness_grid), ablations.format_robustness
    ),
    "ablation_systems": Artefact(None, ablations.format_systems, run=ablations.run_systems),
    "ablation_privacy": Artefact(_fixed(ablations.privacy_grid), ablations.format_privacy),
}


def collect_suite_specs(
    profile: str = "bench", archs: Tuple[str, ...] = DEFAULT_ARCHS
) -> List[RunSpec]:
    """Every cached training run the registry will request, with duplicates:
    the leaves of every registered grid."""
    return [
        spec
        for entry in ARTEFACTS.values()
        if entry.grid is not None
        for spec in tree_specs(entry.grid(profile, archs=archs))
    ]


def render(name: str, profile: str = "bench", out_dir: str = "results",
           archs: Tuple[str, ...] = DEFAULT_ARCHS) -> Any:
    """Run artefact ``name``, write ``<out_dir>/<name>.txt``; returns the
    results tree its formatter rendered (a :class:`RunResult` per leaf of
    a trained grid).  Nothing is written if training raises."""
    entry = ARTEFACTS[name]
    if entry.grid is None:
        results = entry.run(profile)
    else:
        results = run_tree(entry.grid(profile, archs=archs))
    write_artefact(out_dir, name, entry.fmt(results))
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
