"""Experiment harness: one module per paper table/figure.

Every artefact of the paper's evaluation section has a module here that
declares its training grid **once** (``*_grid``: a nested ``label → … →``
:class:`RunSpec` mapping in the shape its formatter consumes) and
formats the same shape, a :class:`RunResult` per leaf, the way the paper
prints it (``format_*``); the four analytic artefacts compute theirs in a
``run_*`` instead.  :mod:`repro.experiments.run_all` registers each as
*(grid, format)* or *(run, format)*, runs every grid through the shared
:func:`repro.experiments.runner.run_tree`, derives the suite's deduped
warm-up from the grids, and writes every ``results/`` file through its
one ``render``; ``benchmarks/`` asserts on what ``render`` returns.

Artefact index (each registered in :data:`repro.experiments.run_all.ARTEFACTS`):
Table I → :mod:`table1`; Fig. 1 → :mod:`fig1`; Table II → :mod:`table2`;
Fig. 6 → :mod:`fig6`; Fig. 7 → :mod:`fig7` (NCF and LightGCN);
Table III → :mod:`table3`; Table IV → :mod:`table4`; Table V → :mod:`table5`;
Table VI → :mod:`table6`; Table VII → :mod:`table7`; Fig. 8 → :mod:`fig8`;
the design-choice ablations → :mod:`ablations`.
"""

from repro.experiments.profiles import PROFILES, ExperimentProfile
from repro.experiments.runner import RunResult, RunSpec, run_grid, run_spec
from repro.experiments.reporting import format_table

__all__ = [
    "PROFILES",
    "ExperimentProfile",
    "RunResult",
    "RunSpec",
    "run_grid",
    "run_spec",
    "format_table",
]
