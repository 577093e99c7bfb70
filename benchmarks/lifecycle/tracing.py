"""Spans recorded from outside ``repro``, by wrapping its public functions.

Nothing under ``src/`` knows about tracing: :func:`install_training` and
:func:`install_serving` monkey-patch a wrapper around each layer's entry
point (looked up where the caller looks it up), the wrapper records a
span, and :meth:`Tracer.uninstall` puts the originals back.  A span is
``{id, name, start, end, parent, trace}``; ``start``/``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so the load
generator's and the server subprocess's spans share one time base).
Spans stay in memory and are written out once, at the end of the run.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so self times over a span tree add up to the roots' wall.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

# Field positions of one in-memory span record.
ID, NAME, START, END, PARENT, TRACE = range(6)


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self, proc: str) -> None:
        #: Prefix making span ids unique across the processes of one run.
        self.proc = proc
        self.spans: List[list] = []
        #: Counts taken at the same boundaries as the spans.
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def set_trace(self, trace: Optional[str]) -> None:
        """Spans this thread opens from now on carry ``trace``."""
        self._local.trace = trace

    def begin(self, name: str, parent: Optional[str] = None) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span_id = f"{self.proc}-{next(self._ids)}"
        trace = getattr(local, "trace", None)
        if stack:
            parent = stack[-1][ID]
            trace = trace or stack[-1][TRACE]
        span = [span_id, name, time.perf_counter(), None, parent, trace or span_id]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the span (to set the trace id, or
        return a cross-process parent id); ``after(result, args)`` runs
        once the call returned (to take counts off its result).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = before(args) if before is not None else None
            span = tracer.begin(name, parent)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, traced)

    def count(
        self, owner: object, attr: str, name: str, amount: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts: calls,
        or ``amount(result)`` per call when given."""
        original = getattr(owner, attr)
        counts = self.counts

        if amount is None:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

        else:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] += amount(result)
                return result

        self._patch(owner, attr, counted)

    def _patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        return [
            {
                "id": span[ID],
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": span[PARENT],
                "trace": span[TRACE],
            }
            for span in self.spans
            if span[END] is not None
        ]


def write_spans(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def read_spans(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Span-tree arithmetic
# ----------------------------------------------------------------------
class LayerTime(NamedTuple):
    """Summed self time, summed duration and span count of one span name."""

    self_s: float
    total_s: float
    calls: int


def _child_seconds(records: List[dict]) -> Dict[str, float]:
    """Per span id: the summed duration of its direct children."""
    child_time: Dict[str, float] = collections.defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    return child_time


def self_times(records: List[dict]) -> Dict[str, LayerTime]:
    """Per span name: summed self time, summed duration, count."""
    child_time = _child_seconds(records)
    totals: Dict[str, List[float]] = collections.defaultdict(lambda: [0.0, 0.0, 0])
    for record in records:
        duration = record["end"] - record["start"]
        entry = totals[record["name"]]
        entry[0] += duration - child_time.get(record["id"], 0.0)
        entry[1] += duration
        entry[2] += 1
    return {name: LayerTime(*entry) for name, entry in totals.items()}


def root_seconds(records: List[dict]) -> float:
    """Summed duration of the parentless spans — what self times add up to."""
    return sum(r["end"] - r["start"] for r in records if r["parent"] is None)


def adopt_orphans(records: List[dict], orphan: str, foster: str) -> None:
    """Give each parentless ``orphan`` span the ``foster`` span around it.

    The coalescer scores a batch on its flusher thread while the
    submitting handler threads wait: the batch span has no parent on its
    own thread.  Hanging it under the earliest-started ``foster`` span
    that contains it in time makes the waiters' self time the wait
    proper, and keeps the spans a tree.
    """
    fosters = sorted(
        (r for r in records if r["name"] == foster), key=lambda r: r["start"]
    )
    for record in records:
        if record["name"] != orphan or record["parent"] is not None:
            continue
        for candidate in fosters:
            if candidate["start"] > record["start"]:
                break
            if candidate["end"] >= record["end"]:
                record["parent"] = candidate["id"]
                break


# ----------------------------------------------------------------------
# Where the wrappers go
# ----------------------------------------------------------------------
def install_training(tracer: Tracer) -> None:
    """Wrap the entry point of every layer ``fit`` runs through."""
    import repro.eval.evaluator as evaluator_module
    import repro.federated.checkpoint as checkpoint_module
    import repro.federated.trainer as trainer_module
    from repro.autograd.tensor import Tensor
    from repro.core.hetefedrec import HeteFedRec
    from repro.federated.availability import StragglerBuffer
    from repro.federated.client import ClientRuntime
    from repro.federated.round_engine import VectorizedRoundEngine
    from repro.nn.optim import Adam

    counts = tracer.counts
    trainer_class = trainer_module.FederatedTrainer

    tracer.wrap(
        trainer_class, "run_epoch", "federated.trainer.run_epoch",
        before=lambda args: tracer.set_trace(f"epoch-{args[1]}"),
    )
    tracer.wrap(ClientRuntime, "sample_batch", "data.sampling.sample_batch")

    def round_clients(updates, args):
        counts["federated.round_engine.clients"] += len(updates)

    tracer.wrap(
        VectorizedRoundEngine, "train_round", "federated.round_engine.train_round",
        after=round_clients,
    )
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.count(Tensor, "__init__", "autograd.tape_nodes")
    tracer.wrap(Adam, "step", "nn.optim.step")
    # The aggregation functions are patched under the names trainer.py
    # bound at import, which is where its calls look them up.
    tracer.wrap(
        trainer_module, "padded_embedding_aggregate", "federated.aggregation.embed"
    )
    tracer.wrap(trainer_module, "aggregate_head_updates", "federated.aggregation.heads")
    tracer.wrap(trainer_class, "apply_updates", "federated.trainer.apply_updates")

    def secure_report(result, args):
        report = result[2]
        counts["federated.secure_protocol.aborts"] += int(report.aborted)
        counts["federated.secure_protocol.dropouts"] += sum(
            len(ids) for ids in report.dropouts_by_phase.values()
        )
        counts["federated.secure_protocol.saturated_scalars"] += int(
            report.saturated_scalars
        )
        counts["federated.secure_protocol.wire_scalars"] += float(
            report.protocol_overhead
        ) + report.masked_vector_scalars * len(report.survivors)

    tracer.wrap(
        trainer_module, "run_secure_round", "federated.secure_protocol.round",
        after=secure_report,
    )

    tracer.count(
        StragglerBuffer, "drain", "federated.availability.straggler_merges", amount=len
    )
    tracer.wrap(HeteFedRec, "post_aggregate", "core.hetefedrec.reskd")
    tracer.wrap(trainer_class, "evaluate_with", "eval.evaluate")
    tracer.wrap(evaluator_module, "blocked_top_k", "eval.top_k")

    def checkpoint_bytes(result, args):
        counts["federated.checkpoint.bytes"] += os.path.getsize(args[1])

    tracer.wrap(
        checkpoint_module, "save_checkpoint_impl", "federated.checkpoint.save",
        after=checkpoint_bytes,
    )


def install_serving(tracer: Tracer, front_end: bool) -> None:
    """Wrap the serving layers; ``front_end`` adds the HTTP-side ones."""
    import repro.serving.service as service_module
    from repro.serving.service import RecommendationService

    counts = tracer.counts

    def batch_size(answers, args):
        counts["serving.service.answers"] += len(answers)

    tracer.wrap(service_module, "load_snapshot", "serving.service.load_snapshot")
    tracer.wrap(service_module, "blocked_top_k", "eval.top_k")
    tracer.wrap(
        RecommendationService, "query_batch", "serving.service.query_batch",
        after=batch_size,
    )
    tracer.wrap(RecommendationService, "swap", "serving.service.swap")
    if not front_end:
        return

    from repro.serving.coalescer import RequestCoalescer
    from repro.serving.http_api import ServingHandler
    from repro.serving.resilience import ResilientService

    def request_trace(args):
        # The load generator sends its own span id as ``rid``: the
        # handler span becomes that span's child, in the same trace.
        rid = args[1].get("rid", [None])[0]
        tracer.set_trace(rid)
        return rid

    tracer.wrap(
        ServingHandler, "_recommend", "serving.http_api.recommend",
        before=request_trace,
    )
    tracer.wrap(
        ServingHandler, "do_POST", "serving.http_api.swap",
        before=lambda args: tracer.set_trace(None),
    )
    tracer.wrap(ResilientService, "try_admit", "serving.resilience.admit")
    tracer.wrap(RequestCoalescer, "submit", "serving.coalescer.submit")
    tracer.wrap(ResilientService, "query_batch", "serving.resilience.query_batch")
    tracer.wrap(ResilientService, "swap", "serving.resilience.swap")


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric -> the span name whose summed self time it reports.
SELF_SECONDS = {
    "data.sampling.s": "data.sampling.sample_batch",
    "federated.round_engine.s": "federated.round_engine.train_round",
    "autograd.backward_s": "autograd.backward",
    "nn.optim.step_s": "nn.optim.step",
    "federated.aggregation.embed_s": "federated.aggregation.embed",
    "federated.aggregation.heads_s": "federated.aggregation.heads",
    "federated.trainer.apply_updates_s": "federated.trainer.apply_updates",
    "federated.secure_protocol.round_s": "federated.secure_protocol.round",
    "core.hetefedrec.reskd_s": "core.hetefedrec.reskd",
    "eval.evaluate_s": "eval.evaluate",
    "eval.top_k_s": "eval.top_k",
    "federated.checkpoint.save_s": "federated.checkpoint.save",
    "serving.service.load_snapshot_s": "serving.service.load_snapshot",
    "serving.service.query_batch_s": "serving.service.query_batch",
    "serving.service.swap_s": "serving.service.swap",
    "serving.resilience.admit_s": "serving.resilience.admit",
}
#: Per-layer metric -> the span name whose count it reports.
CALLS = {
    "data.sampling.calls": "data.sampling.sample_batch",
    "federated.round_engine.rounds": "federated.round_engine.train_round",
    "autograd.backward_calls": "autograd.backward",
    "nn.optim.steps": "nn.optim.step",
    "federated.secure_protocol.rounds": "federated.secure_protocol.round",
    "eval.top_k_calls": "eval.top_k",
    "federated.checkpoint.saves": "federated.checkpoint.save",
    "serving.service.batches": "serving.service.query_batch",
    "serving.service.swaps": "serving.service.swap",
}


def layer_metrics(records: List[dict], counts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer number the spans and boundary counts determine.

    A layer the workload never entered has no spans and reports 0 —
    which is the bypass prediction, checked rather than assumed.
    """
    times = self_times(records)
    nothing = LayerTime(0.0, 0.0, 0)
    metrics = {
        metric: times.get(span, nothing).self_s for metric, span in SELF_SECONDS.items()
    }
    metrics.update(
        {metric: times.get(span, nothing).calls for metric, span in CALLS.items()}
    )
    metrics.update(counts)
    batches = metrics["serving.service.batches"]
    answers = metrics.pop("serving.service.answers", 0)
    metrics["serving.service.mean_batch"] = answers / batches if batches else 0.0
    return metrics


def span_self_ms(records: List[dict], name: str) -> List[float]:
    """Self time of each ``name`` span, in milliseconds."""
    child_time = _child_seconds(records)
    return [
        (r["end"] - r["start"] - child_time.get(r["id"], 0.0)) * 1000.0
        for r in records
        if r["name"] == name
    ]
