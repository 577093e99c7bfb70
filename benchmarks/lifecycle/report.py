"""Result schema, machine metadata, tables and the one ``compare``.

A results file (``python -m benchmarks.lifecycle --out F.json``) holds,
per workload, every run made (untraced and traced) and the quartiles of
each end-to-end metric over the untraced runs; ``compare`` reads two
such files and applies the one regression rule the repo has.
"""

from __future__ import annotations

import datetime
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.lifecycle import spec

SCHEMA = "lifecycle-bench/1"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    """What the numbers were measured on; stored beside every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_commit": _git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _git_commit() -> Optional[str]:
    """``None`` outside a git checkout (the driver's copy is not one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ----------------------------------------------------------------------
# Quartiles and the regression rule
# ----------------------------------------------------------------------
def summarize(values: List[float]) -> dict:
    """Median, quartiles and spread (IQR as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def end_to_end_summary(runs: List[dict]) -> Dict[str, dict]:
    return {
        name: summarize([run["metrics"][name]["value"] for run in runs])
        for name in spec.END_TO_END_NAMES
    }


def verdict(name: str, base: dict, change: dict) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric) pair.

    Worse: the change's median is worse than the base's by more than the
    metric's bound.  Unresolved: either side's run-to-run spread exceeds
    the bound, so a difference of that size cannot be told from noise.
    """
    bound = spec.BOUNDS[name]
    if max(base["spread"], change["spread"]) > bound:
        return "unresolved"
    if spec.BETTER[name] == "lower":
        worse_by = (change["median"] - base["median"]) / base["median"]
    else:
        worse_by = (base["median"] - change["median"]) / base["median"]
    return "worse" if worse_by > bound else "ok"


def compare(base: dict, change: dict, out=sys.stdout) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any is worse."""
    print(
        f"{'workload':<18} {'metric':<15} {'unit':<5} {'A median':>12} {'B median':>12} "
        f"{'B vs A':>8} {'bound':>6} {'n':>5}  verdict",
        file=out,
    )
    worst = 0
    for workload in spec.WORKLOAD_NAMES:
        if workload not in base["workloads"] or workload not in change["workloads"]:
            continue
        a = end_to_end_summary(base["workloads"][workload]["runs"])
        b = end_to_end_summary(change["workloads"][workload]["runs"])
        for name in spec.END_TO_END_NAMES:
            result = verdict(name, a[name], b[name])
            worst = max(worst, result == "worse")
            ratio = b[name]["median"] / a[name]["median"] - 1.0
            print(
                f"{workload:<18} {name:<15} {spec.UNITS[name]:<5} "
                f"{a[name]['median']:>12.4f} {b[name]['median']:>12.4f} {ratio:>+8.1%} "
                f"{spec.BOUNDS[name]:>6.0%} {a[name]['n']:>2}/{b[name]['n']:<2}  {result}",
                file=out,
            )
    return int(worst)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def print_run(result: dict, out=sys.stdout) -> None:
    """Every metric of one run, by name, with its unit."""
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} seed={result['seed']} ({mode}) ==", file=out)
    print(f"   params: {result['params']}", file=out)
    print(f"   samples: {result['samples']}", file=out)
    for name, metric in result["metrics"].items():
        print(f"   {name:<46} {metric['value']:>16.6f} {metric['unit']}", file=out)
    for name, value in result["extra"].items():
        if name not in result["metrics"]:
            print(f"   {name:<46} {value:>16.6f} {spec.UNITS.get(name, '')}", file=out)
    bad = [name for name, value in result["checks"].items() if value is False]
    print(
        f"   attempted={result['attempted']} failed={result['failed']} "
        f"checks={'ok' if not bad else 'FAILED: ' + ', '.join(bad)}",
        file=out,
    )


def print_layer_table(result: dict, out=sys.stdout) -> None:
    """Span names of one traced run ranked by share of the roots' wall."""
    total = result["root_seconds"]
    print(
        f"-- {result['workload']}: layers by self time "
        f"(root spans cover {total:.3f} s) --",
        file=out,
    )
    ranked = sorted(result["layers"].items(), key=lambda item: -item[1]["self_s"])
    for name, layer in ranked:
        print(
            f"   {name:<40} {layer['self_s']:>9.3f} s {layer['self_s'] / total:>7.1%} "
            f"{layer['calls']:>8} spans",
            file=out,
        )


def print_spreads(workload: str, summary: Dict[str, dict], out=sys.stdout) -> None:
    print(f"-- {workload}: end-to-end over {summary['setup_s']['n']} run(s) --", file=out)
    for name, stats in summary.items():
        flag = "" if stats["spread"] <= spec.BOUNDS[name] / 3 else "  (> bound/3)"
        print(
            f"   {name:<15} median {stats['median']:>12.4f} {spec.UNITS[name]:<4} "
            f"spread {stats['spread']:>6.1%} of bound {spec.BOUNDS[name]:.0%}{flag}",
            file=out,
        )
