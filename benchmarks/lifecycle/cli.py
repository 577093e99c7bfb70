"""Command line of the lifecycle benchmark.

Three ways in, one implementation:

* ``--workload W --seed N --seconds S --trace 0|1`` — the driver's
  contract: one run of one workload in this process; the last line of
  standard output is ``{"correct", "attempted", "failed", "metrics"}``.
* no ``--trace`` — the whole suite: every workload (or the ones named),
  each run in its own subprocess, ``--repeats`` seeds each, optionally a
  traced re-run of the first seed with the traced-vs-untraced checks, the
  layer tables, and one results file with machine metadata.
* ``compare A.json B.json`` — the regression rule over two results files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from benchmarks.lifecycle import report, spec

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.lifecycle", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES,
                        help="workload to run (repeatable in suite mode; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="nominal length of the measured phase; work counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single-run mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (about 100 users, 2 epochs, 50 requests)")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: also run each workload traced")
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite mode: untraced runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"),
                        help="suite mode: results file to write")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: compare A.json B.json", file=sys.stderr)
            return 2
        with open(argv[1], encoding="utf-8") as a, open(argv[2], encoding="utf-8") as b:
            return report.compare(json.load(a), json.load(b))
    args = build_parser().parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("--trace needs exactly one --workload", file=sys.stderr)
            return 2
        return single_run(args)
    return suite(args)


def single_run(args: argparse.Namespace) -> int:
    # Imported here: pulling in numpy must wait for run.py's thread pins.
    from benchmarks.lifecycle import workloads

    result = workloads.run(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke, OUT_DIR
    )
    report.print_run(result)
    if args.trace:
        report.print_layer_table(result)
    # The suite reads the full record; the driver reads the last line.
    record = os.path.join(OUT_DIR, f"{args.workload[0]}.trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, args: argparse.Namespace, trace: int) -> dict:
    """One run in its own process (fresh imports, fresh peak RSS)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stdout}\n{done.stderr}")
    with open(os.path.join(OUT_DIR, f"{workload}.trace{trace}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def suite(args: argparse.Namespace) -> int:
    results = {
        "schema": report.SCHEMA,
        "machine": report.machine(),
        "seed": args.seed, "repeats": args.repeats, "seconds": args.seconds,
        "smoke": args.smoke,
        # What BENCHMARK.json has no room for: each metric's meaning per
        # workload kind, its layer, and what it is predicted to move.
        "end_to_end": [metric._asdict() for metric in spec.END_TO_END],
        "per_layer": [metric._asdict() for metric in spec.PER_LAYER],
        "workloads": {},
    }
    why = {w.name: w.why for w in spec.WORKLOADS}
    all_correct = True
    for workload in args.workload or spec.WORKLOAD_NAMES:
        runs = []
        for repeat in range(args.repeats):
            runs.append(_child(workload, args.seed + repeat, args, trace=0))
            report.print_run(runs[-1])
        entry = {
            "why": why[workload],
            "params": runs[0]["params"],
            "runs": runs,
            "end_to_end": report.end_to_end_summary(runs),
        }
        report.print_spreads(workload, entry["end_to_end"])
        all_correct &= all(run["correct"] for run in runs)
        if args.traced:
            traced = _child(workload, args.seed, args, trace=1)
            report.print_run(traced)
            report.print_layer_table(traced)
            all_correct &= traced["correct"] and _same_outputs(runs[0], traced)
            untraced_s = runs[0]["metrics"]["run_s"]["value"]
            overhead = (traced["metrics"]["traced_run_s"]["value"] - untraced_s) / untraced_s
            print(f"   tracing_overhead_share {overhead:+.3f} share")
            entry.update(traced_run=traced, tracing_overhead_share=overhead)
        results["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"wrote {args.out}; every check {'passed' if all_correct else 'DID NOT pass'}")
    return 0 if all_correct else 1


#: Outputs tracing must not change: same seed, same numbers, exactly.
_EXACT = ("ndcg_at_20", "upload_scalars_per_client", "failed_share")


def _same_outputs(untraced: dict, traced: dict) -> bool:
    same = True
    for name in _EXACT:
        if name in untraced["extra"] and untraced["extra"][name] != traced["extra"][name]:
            print(f"   CHECK FAILED: {name} differs between the untraced and the traced run "
                  f"({untraced['extra'][name]!r} vs {traced['extra'][name]!r})")
            same = False
    if untraced["attempted"] != traced["attempted"]:
        print("   CHECK FAILED: attempted differs between the untraced and the traced run")
        same = False
    return same
