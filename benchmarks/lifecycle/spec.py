"""What the lifecycle benchmark measures: workloads, metrics, bounds.

This module is the single source the committed ``BENCHMARK.json`` is
generated from (:func:`benchmark_json`; the smoke test pins the two
equal).  ``BENCHMARK.json`` only has room for names, units, directions
and bounds, so everything else a reader needs — which layer a per-layer
metric belongs to, which end-to-end metric it is predicted to move on
which workload, what a generic end-to-end name means on each workload —
lives here; the suite copies it into every results file.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: The driver's command: one workload, one run, one JSON line.
COMMAND = ["python3", "benchmarks/lifecycle/run.py"]
PATHS = ["benchmarks/lifecycle"]
#: Nominal length of one measured phase; work counts scale with it.
RUN_SECONDS = 15

TRAIN = ("train_plain", "train_secure")
SERVE = ("serve_inproc_cold", "serve_http_swap")


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: List[Workload] = [
    Workload(
        "train_plain",
        "fit() of full HeteFedRec, no secure-agg: round engine, autograd tape "
        "and Adam do the work; secure protocol and serving are bypassed",
    ),
    Workload(
        "train_secure",
        "same method under secure aggregation and availability faults: the "
        "secure protocol does most of the work, the tape little",
    ),
    Workload(
        "serve_inproc_cold",
        "in-process query_batch(32), cache off, full Douban catalogue: scoring "
        "and top-k do the work; cache, coalescer, admission, HTTP are bypassed",
    ),
    Workload(
        "serve_http_swap",
        "repro serve over HTTP, 2 keep-alive connections, Zipf users, hot-swaps "
        "beside reads: front end, coalescer, admission, cache do the work",
    ),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    #: What the name means on the training and on the serving workloads.
    train: str
    serve: str


#: Every workload reports every one of these (the driver's contract), so
#: the names are generic and the per-kind meaning is spelled out here.
END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median over repeated set-ups: generate + split the dataset, build the method",
        "median of 3 set-ups: dataset, 2 training epochs, checkpoints v1/v2, "
        "reference rankings",
    ),
    EndToEnd(
        "run_s", "s", "lower", 0.25,
        "fit_s: wall of fit() incl. per-epoch eval and autosave",
        "serve() call / server spawn to the last answer of the script",
    ),
    EndToEnd(
        "work_per_s", "1/s", "higher", 0.25,
        "train_plain: (positives+negatives) x local_epochs over all "
        "client-rounds / fit_s; train_secure: client updates / fit_s",
        "answers_per_s over the closed-loop phase",
    ),
    EndToEnd(
        "step_ms_p50", "ms", "lower", 0.25,
        "median epoch wall",
        "query_ms_p50: per query_batch(32) call / per HTTP request",
    ),
    EndToEnd(
        "peak_rss_mib", "MiB", "lower", 0.25,
        "ru_maxrss of the workload process",
        "ru_maxrss of the workload process / VmHWM of the server subprocess",
    ),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``repro`` module the number belongs to.
    layer: str
    #: Which end-to-end metric it is predicted to move, on which workload.
    moves: str


_FIT_PLAIN = "run_s, work_per_s on train_plain"
_FIT_SECURE = "run_s on train_secure"
_FIT_BOTH = "run_s on train_*"
_Q_INPROC = "step_ms_*, work_per_s on serve_inproc_cold"
_Q_HTTP = "step_ms_*, work_per_s on serve_http_swap"
_SWAP = "swap_ms_p50, failed_share on serve_http_swap"

PER_LAYER: List[PerLayer] = [
    PerLayer("data.sampling.s", "s", "lower", "data.sampling", _FIT_PLAIN),
    PerLayer("data.sampling.calls", "count", "lower", "data.sampling", _FIT_PLAIN),
    PerLayer("federated.round_engine.s", "s", "lower", "federated.round_engine", _FIT_PLAIN),
    PerLayer("federated.round_engine.rounds", "count", "lower", "federated.round_engine", _FIT_PLAIN),
    PerLayer("federated.round_engine.clients", "count", "lower", "federated.round_engine", _FIT_PLAIN),
    PerLayer("autograd.backward_s", "s", "lower", "autograd", _FIT_PLAIN),
    PerLayer("autograd.backward_calls", "count", "lower", "autograd", _FIT_PLAIN),
    PerLayer("autograd.tape_nodes", "count", "lower", "autograd", _FIT_PLAIN),
    PerLayer("nn.optim.step_s", "s", "lower", "nn.optim", _FIT_PLAIN),
    PerLayer("nn.optim.steps", "count", "lower", "nn.optim", _FIT_PLAIN),
    PerLayer("federated.aggregation.embed_s", "s", "lower", "federated.aggregation", _FIT_BOTH),
    PerLayer("federated.aggregation.heads_s", "s", "lower", "federated.aggregation", _FIT_BOTH),
    PerLayer("federated.trainer.apply_updates_s", "s", "lower", "federated.trainer", _FIT_BOTH),
    PerLayer("federated.secure_protocol.round_s", "s", "lower", "federated.secure_protocol", _FIT_SECURE),
    PerLayer("federated.secure_protocol.rounds", "count", "lower", "federated.secure_protocol", _FIT_SECURE),
    PerLayer("federated.secure_protocol.aborts", "count", "lower", "federated.secure_protocol", _FIT_SECURE),
    PerLayer("federated.secure_protocol.dropouts", "count", "lower", "federated.secure_protocol", _FIT_SECURE),
    PerLayer("federated.secure_protocol.saturated_scalars", "scalars", "lower", "federated.secure_protocol", "ndcg_at_20 on train_secure"),
    PerLayer("federated.secure_protocol.wire_scalars", "scalars", "lower", "federated.secure_protocol", _FIT_SECURE),
    PerLayer("federated.availability.straggler_merges", "count", "higher", "federated.availability", "ndcg_at_20 on train_secure"),
    PerLayer("federated.availability.dropped_updates", "count", "lower", "federated.availability", "ndcg_at_20 on train_secure"),
    PerLayer("core.hetefedrec.reskd_s", "s", "lower", "core.hetefedrec", _FIT_BOTH),
    PerLayer("federated.communication.upload_scalars", "scalars", "lower", "federated.communication", "upload_scalars_per_client on train_*"),
    PerLayer("federated.communication.download_scalars", "scalars", "lower", "federated.communication", "upload_scalars_per_client on train_*"),
    PerLayer("federated.communication.protocol_scalars", "scalars", "lower", "federated.communication", "upload_scalars_per_client on train_secure"),
    PerLayer("eval.evaluate_s", "s", "lower", "eval", _FIT_BOTH),
    PerLayer("eval.top_k_s", "s", "lower", "eval.metrics", _FIT_BOTH + "; " + _Q_INPROC),
    PerLayer("eval.top_k_calls", "count", "lower", "eval.metrics", _FIT_BOTH + "; " + _Q_INPROC),
    PerLayer("federated.checkpoint.save_s", "s", "lower", "federated.checkpoint", _FIT_BOTH),
    PerLayer("federated.checkpoint.bytes", "bytes", "lower", "federated.checkpoint", _FIT_BOTH),
    PerLayer("federated.checkpoint.saves", "count", "lower", "federated.checkpoint", _FIT_BOTH),
    PerLayer("serving.service.load_snapshot_s", "s", "lower", "serving.service", "first_result_s on serve_*; swap_ms_p50"),
    PerLayer("serving.service.query_batch_s", "s", "lower", "serving.service", _Q_INPROC),
    PerLayer("serving.service.batches", "count", "lower", "serving.service", _Q_INPROC),
    PerLayer("serving.service.mean_batch", "count", "higher", "serving.service", _Q_INPROC),
    PerLayer("serving.cache.hit_share", "share", "higher", "serving.cache", _Q_HTTP),
    PerLayer("serving.cache.evictions", "count", "lower", "serving.cache", _Q_HTTP),
    PerLayer("serving.coalescer.wait_ms_p50", "ms", "lower", "serving.coalescer", _Q_HTTP),
    PerLayer("serving.coalescer.mean_batch", "count", "higher", "serving.coalescer", _Q_HTTP),
    PerLayer("serving.coalescer.deadline_flush_share", "share", "lower", "serving.coalescer", _Q_HTTP),
    PerLayer("serving.resilience.admit_s", "s", "lower", "serving.resilience", _Q_HTTP),
    PerLayer("serving.resilience.tier_full_share", "share", "higher", "serving.resilience", _Q_HTTP),
    PerLayer("serving.resilience.tier_cached_share", "share", "higher", "serving.resilience", _Q_HTTP),
    PerLayer("serving.resilience.shed", "count", "lower", "serving.resilience", "failed on serve_http_swap"),
    PerLayer("serving.resilience.deadline_overruns", "count", "lower", "serving.resilience", "failed on serve_http_swap"),
    PerLayer("serving.resilience.max_depth", "count", "lower", "serving.resilience", _Q_HTTP),
    PerLayer("serving.http_api.handler_ms_p50", "ms", "lower", "serving.http_api", _Q_HTTP),
    PerLayer("serving.http_api.outside_ms_p50", "ms", "lower", "serving.http_api", _Q_HTTP),
    PerLayer("serving.service.swap_s", "s", "lower", "serving.service", _SWAP),
    PerLayer("serving.service.swaps", "count", "lower", "serving.service", _SWAP),
    PerLayer("serving.resilience.swap_rejected", "count", "lower", "serving.resilience", _SWAP),
    # End-to-end numbers that cannot be gated under the driver's contract
    # (not defined on every workload, zero by design, or not repeatable
    # within a bound on the box the benchmark was calibrated on); see README.
    PerLayer("first_result_s", "s", "lower", "lifecycle", "fit() to first epoch checkpointed / first_answer_s"),
    PerLayer("step_ms_tail", "ms", "lower", "lifecycle", "slowest epoch / query_ms_p99 (1000 samples)"),
    PerLayer("ndcg_at_20", "share", "higher", "quality", "train_* final-epoch NDCG@20"),
    PerLayer("upload_scalars_per_client", "scalars", "lower", "cost", "train_* meter.total_upload / client_rounds"),
    PerLayer("swap_ms_p50", "ms", "lower", "serving", "serve_http_swap POST /v1/swap round trip"),
    PerLayer("failed_share", "share", "lower", "serving", "failed / attempted, zero on every workload"),
    PerLayer("traced_run_s", "s", "lower", "benchmark", "run_s under tracing; minus run_s = tracing overhead"),
]

END_TO_END_NAMES = [metric.name for metric in END_TO_END]
PER_LAYER_NAMES = [metric.name for metric in PER_LAYER]
WORKLOAD_NAMES = [workload.name for workload in WORKLOADS]
UNITS: Dict[str, str] = {
    **{metric.name: metric.unit for metric in END_TO_END},
    **{metric.name: metric.unit for metric in PER_LAYER},
}
BOUNDS: Dict[str, float] = {metric.name: metric.bound for metric in END_TO_END}
BETTER: Dict[str, str] = {metric.name: metric.better for metric in END_TO_END}


def benchmark_json() -> dict:
    """The exact content of the committed ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
