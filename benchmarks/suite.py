"""One harness for the six benchmarks outside the lifecycle suite.

Each ``benchmarks/bench_<name>.py`` keeps what is its own — the
measurement (``measure(quick) -> report``), which of the report's
numbers are gated (``metrics(report) -> [Metric]``) and its console
lines (``summary(report)``).  This module is the only place that parses
flags, applies the gate or writes a ``BENCH_*.json``:

    PYTHONPATH=src python -m benchmarks.suite \\
        {round_engine|experiment_grid|sim|secure_agg|serving|serving_resilience|all} \\
        [--quick] [--check [BASELINE]] [--tolerance T] [--out PATH]

One rule (:func:`check`) over four kinds of number:

* ``hard``    — a boolean that must hold on every run, baseline or not
  (masked-sum exactness, determinism, bitwise equality, the serving
  gates);
* ``exact``   — must equal the baseline's value (wire accounting, the
  manual-clock chaos digests);
* ``floor``   — at least ``tolerance`` × the baseline's value
  (speedups, QPS, clients/sec);
* ``ceiling`` — at most the baseline's value ÷ ``tolerance`` (peak RSS).

The last three are compared only under ``--check`` and only when the
metric's ``scale`` — the bench's own comparability condition: cohort
size, population, architecture… — equals the baseline's; otherwise they
are printed as skipped and never fail.  So a ``--quick`` run against
the committed full-scale baselines enforces the hard gates and skips
what cannot be compared.

A full-scale run writes ``BENCH_<name>.json`` (the committed baseline);
a ``--quick`` run writes ``bench_<name>_fresh.json`` so it can never
replace one.  ``--out`` and an explicit ``--check`` value name a file —
for ``all`` (one process per bench), a directory holding files under
those names.  Every report carries the lifecycle suite's ``machine``
metadata.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from typing import Any, List, NamedTuple, Optional, Sequence

from benchmarks.lifecycle.report import machine

BENCHES = (
    "round_engine",
    "experiment_grid",
    "sim",
    "secure_agg",
    "serving",
    "serving_resilience",
)
KINDS = ("hard", "exact", "floor", "ceiling")


class Metric(NamedTuple):
    """One gated number of a report.

    ``scale`` is what must match the baseline's for a non-``hard``
    metric to be compared; ``None`` means it cannot be compared at all
    (the grid bench on a single core).
    """

    name: str
    value: Any
    kind: str
    scale: Any = None


def _same(fresh: Any, committed: Any) -> bool:
    if isinstance(fresh, float):
        return abs(fresh - committed) <= 1e-9
    return fresh == committed


def check(
    fresh: Sequence[Metric],
    baseline: Optional[Sequence[Metric]] = None,
    tolerance: float = 0.4,
) -> bool:
    """Apply the gate rule; print one verdict per metric; ``True`` = clear."""
    committed = {metric.name: metric for metric in baseline or ()}
    ok = True
    for metric in fresh:
        if metric.kind not in KINDS:
            raise ValueError(f"{metric.name}: unknown metric kind {metric.kind!r}")
        tag = f"[{metric.kind}] {metric.name}"
        if metric.kind == "hard":
            passed = metric.value is True
            print(f"{tag}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
            continue
        if baseline is None:
            continue
        base = committed.get(metric.name)
        if base is None:
            print(f"{tag}: no baseline entry — skipped")
            continue
        if metric.scale is None or metric.scale != base.scale:
            print(f"{tag}: scale {metric.scale} vs baseline {base.scale} — skipped")
            continue
        if metric.kind == "exact":
            passed = _same(metric.value, base.value)
            drift = f"DRIFTED (measured {metric.value} vs baseline {base.value})"
            print(f"{tag}: {'ok' if passed else drift}")
            ok = ok and passed
            continue
        if metric.kind == "floor":
            bound = tolerance * base.value
            passed = metric.value >= bound
        else:
            bound = base.value / tolerance
            passed = metric.value <= bound
        print(
            f"{tag}: measured {metric.value:,.2f} vs baseline {base.value:,.2f} "
            f"({metric.kind} {bound:,.2f}) — {'ok' if passed else 'REGRESSION'}"
        )
        ok = ok and passed
    return ok


def load_bench(name: str):
    return importlib.import_module(f"benchmarks.bench_{name}")


def _path(given: Optional[str], filename: str, directory: bool) -> str:
    if not given:
        return filename
    return os.path.join(given, filename) if directory else given


def run_bench(
    name: str, quick: bool, baseline_path: Optional[str], tolerance: float, out: str
) -> bool:
    """Measure one bench, write its report, print it, gate it."""
    bench = load_bench(name)
    baseline = None
    if baseline_path is not None:
        # Read before measuring: a full-scale run's default output *is*
        # the default baseline, and a missing file should fail up front.
        with open(baseline_path) as handle:
            baseline = bench.metrics(json.load(handle))
    report = bench.measure(quick)
    report["machine"] = machine()
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
    bench.summary(report)
    print(f"wrote {out}")
    return check(bench.metrics(report), baseline, tolerance)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("bench", choices=BENCHES + ("all",))
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized problem of each bench"
    )
    parser.add_argument(
        "--check", nargs="?", const="", metavar="BASELINE",
        help="also gate exact/floor/ceiling metrics against a baseline file, "
        "directory for `all` (default: BENCH_<name>.json in the working directory)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.4,
        help="floor = T × baseline, ceiling = baseline ÷ T (default: 0.4)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="report file, directory for `all` (default: BENCH_<name>.json, "
        "bench_<name>_fresh.json under --quick)",
    )
    args = parser.parse_args(argv)

    every = args.bench == "all"
    ok = True
    for name in BENCHES if every else (args.bench,):
        committed = f"BENCH_{name}.json"
        baseline = None if args.check is None else _path(args.check, committed, every)
        out = _path(
            args.out, f"bench_{name}_fresh.json" if args.quick else committed, every
        )
        if every:
            # One process per bench: peak RSS (a whole-process high-water
            # mark) and patched module globals must not leak from one
            # measurement into the next.
            print(f"=== {name}", flush=True)
            command = [sys.executable, "-m", "benchmarks.suite", name, "--out", out]
            command += ["--tolerance", str(args.tolerance)] + ["--quick"] * args.quick
            if baseline is not None:
                command += ["--check", baseline]
            passed = subprocess.call(command) == 0
        else:
            passed = run_bench(name, args.quick, baseline, args.tolerance, out)
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
