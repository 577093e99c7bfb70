"""Tier-1 smoke test of the lifecycle benchmark.

Runs ``BENCHMARK.json``'s own command at ``--smoke`` size, untraced and
traced, for every workload, and pins the contract between the spec file
and what the command prints: every metric named is emitted with its
unit, nothing unnamed is, the spans form a tree whose self times add up
to no more than the traced wall, and nothing fails.
"""

import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)

from benchmarks.lifecycle import report, spec, tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run_command(workload: str, trace: int) -> dict:
    """Run the committed command; return its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable if arg == "python3" else arg for arg in BENCHMARK["command"]]
        + ["--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_generated_from_spec():
    assert BENCHMARK == spec.benchmark_json()
    names = spec.WORKLOAD_NAMES + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert len(names) == len(set(names))
    assert "setup_s" in spec.END_TO_END_NAMES
    assert max(spec.BOUNDS.values()) == spec.BOUNDS["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_smoke_run_emits_exactly_the_named_metrics(workload):
    for trace, listed in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        line = run_command(workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [metric["name"] for metric in listed]
        for metric in listed:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == 0:
            assert all(metric["value"] > 0 for metric in line["metrics"].values())
        else:
            assert line["metrics"]["failed_share"]["value"] == 0

    # The traced run just made left its spans behind: they form a tree ...
    spans = tracing.read_spans(os.path.join(HERE, "out", f"{workload}.spans.jsonl"))
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        hops, cursor = 0, span
        while cursor["parent"] is not None:
            cursor = by_id[cursor["parent"]]  # KeyError: a dangling parent
            hops += 1
            assert hops <= len(spans), "cycle in the span parents"
    # ... and self times add up to the root spans' wall, which — one
    # thread, or one closed loop per connection — the traced wall bounds.
    with open(os.path.join(HERE, "out", f"{workload}.trace1.json"), encoding="utf-8") as handle:
        record = json.load(handle)
    self_total = sum(layer["self_s"] for layer in record["layers"].values())
    assert self_total == pytest.approx(record["root_seconds"], rel=1e-6)
    threads = record["params"].get("connections", 1)
    if workload == "serve_http_swap":
        # Server start-up (snapshot load) precedes the first request.
        own = [s for s in spans if s["parent"] is None and s["id"].startswith("lg-")]
        assert sum(s["end"] - s["start"] for s in own) <= (
            record["metrics"]["traced_run_s"]["value"] * threads
        )
    else:
        assert self_total <= record["metrics"]["traced_run_s"]["value"]


def test_compare_verdicts():
    def results(run_s, spread=0.0):
        values = {name: 1.0 for name in spec.END_TO_END_NAMES}
        runs = []
        for factor in (1.0 - spread, 1.0, 1.0 + spread):
            metrics = {**values, "run_s": run_s * factor}
            runs.append({"metrics": {n: {"value": v} for n, v in metrics.items()}})
        return {"workloads": {"train_plain": {"runs": runs}}}

    def verdict(base, change):
        a = report.end_to_end_summary(base["workloads"]["train_plain"]["runs"])
        b = report.end_to_end_summary(change["workloads"]["train_plain"]["runs"])
        return report.verdict("run_s", a["run_s"], b["run_s"])

    bound = spec.BOUNDS["run_s"]
    slower, much_slower = 10.0 * (1 + bound / 2), 10.0 * (1 + bound + 0.05)
    assert verdict(results(10.0), results(slower)) == "ok"
    assert verdict(results(10.0), results(much_slower)) == "worse"
    assert verdict(results(10.0), results(8.0)) == "ok"
    assert verdict(results(10.0, spread=bound), results(much_slower)) == "unresolved"
    assert report.compare(results(10.0), results(much_slower), out=io.StringIO()) == 1
