"""Benchmark: serial vs. parallel execution of an experiment-run grid.

Executes a reduced version of the reproduction suite's overlapping
consumer grids — Table II, Fig. 6, Fig. 7 and Table VI's homogeneous
brackets all request runs from one shared pool — through
:func:`repro.experiments.runner.run_grid` in three configurations:

* ``legacy serial``  — one ``run_spec`` call per requested spec with
  the per-process dataset memo cleared between calls: the pre-executor
  execution model (duplicates resolve through the result cache, every
  run regenerates its dataset);
* ``serial``         — ``run_grid(jobs=1)``: pre-dispatch dedup plus
  dataset memoization, single process;
* ``parallel``       — ``run_grid(jobs=N)``: the same, with cache
  misses fanned out over a ``ProcessPoolExecutor``.

Each arm starts from a cold, private cache directory; the parallel
results are asserted bitwise-identical to the serial ones (training is
deterministic in the spec), and a warm-cache replay is timed to show the
hit path.  Results go to ``BENCH_experiment_grid.json`` through the one
benchmark CLI (``benchmarks/suite.py``: flags, gate rule, output files):

    PYTHONPATH=src python -m benchmarks.suite experiment_grid [--quick] [--check]

The parallel speedup scales with cores (the grid is embarrassingly
parallel across training runs); ``cpu_count`` is recorded alongside so a
baseline from a small container is interpretable.  ``--quick`` shrinks
the grid for CI.  What is gated is declared in :func:`metrics`: result
equality on every run, the speedups as floors under ``--check`` — which
single-core machines skip (parallelism cannot be expressed there).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import asdict
from typing import Dict, List, Tuple

import repro.experiments.runner as runner
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.runner import RunSpec, run_grid, run_spec

from benchmarks.suite import Metric

#: Reduced-suite profiles: small enough for a bench run, big enough that
#: a training run dominates process-pool dispatch overhead.
GRID_PROFILE = ExperimentProfile(
    name="grid-bench", scale=0.03, item_scale=0.10, epochs=6,
    clients_per_round=128, local_epochs=2,
)
QUICK_PROFILE = ExperimentProfile(
    name="grid-quick", scale=0.015, item_scale=0.05, epochs=2,
    clients_per_round=64, local_epochs=1,
)

METHODS = ("all_small", "all_large", "hetefedrec")


def build_grid(profile: ExperimentProfile, datasets: Tuple[str, ...]) -> List[RunSpec]:
    """The overlapping consumer grids of the reduced suite, duplicates kept.

    Mirrors how the real suite requests runs: Table II declares the full
    method × dataset block, Fig. 6 re-requests the same runs for group
    metrics, Fig. 7 re-requests the MovieLens column for curves, and
    Table VI re-requests the homogeneous brackets.  ``run_grid`` must
    collapse all of it to one training job per unique spec.
    """
    table2 = [
        RunSpec(dataset, method, arch="ncf", profile=profile)
        for dataset in datasets
        for method in METHODS
    ]
    fig6 = list(table2)  # same runs, group-metric consumer
    fig7 = [
        RunSpec(datasets[0], method, arch="ncf", profile=profile)
        for method in METHODS
    ]
    table6_brackets = [
        RunSpec(dataset, method, arch="ncf", profile=profile)
        for dataset in datasets
        for method in ("all_small", "all_large")
    ]
    return table2 + fig6 + fig7 + table6_brackets


def _fresh_cache(base: str, name: str) -> str:
    path = os.path.join(base, name)
    os.makedirs(path, exist_ok=True)
    return path


def run_benchmark(jobs: int, quick: bool = False) -> Dict:
    profile = QUICK_PROFILE if quick else GRID_PROFILE
    datasets = ("ml",) if quick else ("ml", "anime")
    specs = build_grid(profile, datasets)
    unique = len({spec.key() for spec in specs})

    original_cache = runner.CACHE_DIR
    scratch = tempfile.mkdtemp(prefix="bench_grid_")
    try:
        # Legacy serial: spec-at-a-time through the cache, dataset memo
        # cleared per call (every run regenerates its dataset).
        runner.CACHE_DIR = _fresh_cache(scratch, "legacy")
        start = time.perf_counter()
        for spec in specs:
            runner._DATASET_MEMO.clear()
            run_spec(spec)
        legacy_seconds = time.perf_counter() - start

        # Executor, serial: dedup + memo, one process.
        runner.CACHE_DIR = _fresh_cache(scratch, "serial")
        runner._DATASET_MEMO.clear()
        start = time.perf_counter()
        serial_results = run_grid(specs, jobs=1)
        serial_seconds = time.perf_counter() - start

        # Executor, parallel: misses fan out over the process pool.
        runner.CACHE_DIR = _fresh_cache(scratch, "parallel")
        runner._DATASET_MEMO.clear()
        start = time.perf_counter()
        parallel_results = run_grid(specs, jobs=jobs)
        parallel_seconds = time.perf_counter() - start

        identical = all(
            asdict(serial_results[spec]) == asdict(parallel_results[spec])
            for spec in specs
        )

        # Warm replay on the parallel arm's cache: pure hit path.
        start = time.perf_counter()
        run_grid(specs, jobs=jobs)
        replay_seconds = time.perf_counter() - start
    finally:
        runner.CACHE_DIR = original_cache
        runner._DATASET_MEMO.clear()
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "benchmark": "experiment_grid",
        "config": {
            "profile": profile.name,
            "scale": profile.scale,
            "item_scale": profile.item_scale,
            "epochs": profile.epochs,
            "datasets": list(datasets),
            "methods": list(METHODS),
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
        },
        "grid": {
            "requested_specs": len(specs),
            "unique_specs": unique,
            "dedup_factor": len(specs) / unique,
        },
        "legacy_serial_seconds": legacy_seconds,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "cache_replay_seconds": replay_seconds,
        # run_grid(jobs=N) against single-process executor and against the
        # pre-executor suite loop.  Both scale with available cores.
        "speedup": serial_seconds / parallel_seconds,
        "suite_speedup": legacy_seconds / parallel_seconds,
        "bitwise_identical": identical,
    }


def measure(quick: bool = False) -> Dict:
    return run_benchmark(jobs=4, quick=quick)


def metrics(report: Dict) -> List[Metric]:
    """Result equality is a hard requirement; the speedups are floors.

    The floors mirror the round-engine gate but compare only when the
    measuring machine has at least two cores — on one, process
    parallelism cannot be expressed, so their scale matches nothing.
    """
    multi_core = "multi-core" if (os.cpu_count() or 1) >= 2 else None
    return [
        Metric("bitwise_identical", report["bitwise_identical"], "hard"),
        Metric("parallel_vs_serial", float(report["speedup"]), "floor", multi_core),
        Metric("parallel_vs_legacy", float(report["suite_speedup"]), "floor", multi_core),
    ]


def summary(report: Dict) -> None:
    grid = report["grid"]
    print(
        f"grid: {grid['requested_specs']} requested → {grid['unique_specs']} "
        f"unique (dedup ÷{grid['dedup_factor']:.2f}) on "
        f"{report['config']['cpu_count']} core(s)"
    )
    print(
        f"legacy serial {report['legacy_serial_seconds']:.2f}s | executor "
        f"serial {report['serial_seconds']:.2f}s | parallel(jobs="
        f"{report['config']['jobs']}) {report['parallel_seconds']:.2f}s | "
        f"warm replay {report['cache_replay_seconds']:.3f}s"
    )
    print(
        f"speedup {report['speedup']:.2f}x vs serial executor, "
        f"{report['suite_speedup']:.2f}x vs legacy loop; bitwise identical: "
        f"{report['bitwise_identical']}"
    )
