"""The four lifecycle workloads: set-up, measured phase, correctness checks.

Every workload is driven through ``repro.api`` only (plus the ``repro
serve`` CLI for the HTTP one) and receives nothing but inputs generated
from the seed.  The measured phase does a fixed amount of work — epochs,
calls, requests — sized so that it lasts about ``--seconds`` on the
2-core box the sizes were calibrated on; fixed work keeps every count
exact per seed, which the traced-vs-untraced checks rely on.  Both
serving loops are closed: a client sends its next request when the
previous answer arrived, so there is no arrival schedule and no backlog.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from benchmarks.lifecycle import spec, tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: ``setup_s`` is the median over repeated set-ups: at least 3, and —
#: a cheap set-up is a noisy one — more until 4 s are spent, at most 15.
SETUP_REPEATS = (3, 15)
SETUP_MIN_SECONDS = 4.0
#: Keep-alive connections of the HTTP load generator (one thread each).
CONNECTIONS = 2
#: Users whose served top-k is checked against the live trainer's ranking.
FIXED_USERS = 200
K = 20
HOST = "127.0.0.1"


def _scaled(nominal: int, seconds: float, floor: int) -> int:
    return max(floor, round(nominal * seconds / spec.RUN_SECONDS))


def workload_params(name: str, seconds: float, smoke: bool) -> dict:
    """The full parameter set of one workload (recorded beside its numbers)."""
    if name in spec.TRAIN:
        params = dict(
            dataset="ml", scale=0.15, item_scale=0.5, avg_interactions=32.0,
            clients_per_round=256, local_epochs=4, secure=False,
            epochs=_scaled(6, seconds, 2),
        )
        if name == "train_secure":
            params.update(
                scale=0.05, item_scale=0.15, clients_per_round=64, secure=True,
                epochs=_scaled(5, seconds, 2),
            )
        if smoke:
            params.update(
                scale=0.017, item_scale=0.05, clients_per_round=32,
                local_epochs=2, epochs=2,
            )
        return params
    params = dict(
        dataset="douban", scale=1.0, item_scale=1.0, avg_interactions=16.0,
        clients_per_round=256, local_epochs=1, k=K,
    )
    if smoke:
        params.update(scale=0.055, item_scale=0.03)
    if name == "serve_inproc_cold":
        params.update(calls=_scaled(1000, seconds, 50), batch=32, cache_size=0)
        if smoke:
            params.update(calls=50, batch=8)
    else:
        params.update(
            connections=CONNECTIONS, requests_per_connection=_scaled(500, seconds, 25),
            swap_every=100, zipf_exponent=1.2,
        )
        if smoke:
            params.update(requests_per_connection=25, swap_every=10)
    return params


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _dataset(params: dict, seed: int):
    from repro.api import (
        SyntheticConfig,
        load_benchmark_dataset,
        train_test_split_per_user,
    )

    dataset = load_benchmark_dataset(
        params["dataset"],
        SyntheticConfig(
            scale=params["scale"], item_scale=params["item_scale"],
            avg_interactions=params["avg_interactions"], seed=seed,
        ),
    )
    return dataset, train_test_split_per_user(dataset, seed=seed)


def setup_train(params: dict, seed: int, tmp: str) -> dict:
    from repro.api import (
        AvailabilityConfig,
        Evaluator,
        HeteFedRecConfig,
        SecureAggregationConfig,
        build_method,
    )

    dataset, clients = _dataset(params, seed)
    config = HeteFedRecConfig(
        arch="ncf", dtype="float32", epochs=params["epochs"],
        clients_per_round=params["clients_per_round"],
        local_epochs=params["local_epochs"], seed=seed,
        checkpoint_path=os.path.join(tmp, "fit.npz"), checkpoint_every=1,
    )
    if params["secure"]:
        config.secure_aggregation = SecureAggregationConfig()
        config.availability = AvailabilityConfig(
            offline_rate=0.1, straggler_rate=0.1, seed=1
        )
    return {
        "trainer": build_method("hetefedrec", dataset.num_items, clients, config),
        "evaluator": Evaluator(clients, k=K),
        "clients": clients,
        "shape": {"users": dataset.num_users, "items": dataset.num_items},
    }


def setup_serve(params: dict, seed: int, tmp: str) -> dict:
    """Two checkpoint generations, the request streams, and the reference
    top-k of the fixed users under each generation — taken from the live
    trainer that wrote the checkpoint, not from the serving layer."""
    from repro.api import HeteFedRecConfig, build_method, save_checkpoint

    dataset, clients = _dataset(params, seed)
    config = HeteFedRecConfig(
        arch="ncf", dtype="float32", epochs=2,
        clients_per_round=params["clients_per_round"],
        local_epochs=params["local_epochs"], enable_reskd=False, seed=seed,
    )
    trainer = build_method("hetefedrec", dataset.num_items, clients, config)
    rng = np.random.default_rng(seed)
    # One seeded order, hottest user first: the Zipf stream draws ranks
    # into it and the fixed users are its head, so they are hit often.
    users = rng.permutation([client.user_id for client in clients])
    by_id = {client.user_id: client for client in clients}
    fixed = [int(user) for user in users[:FIXED_USERS]]
    fixed_clients = [by_id[user] for user in fixed]

    checkpoints, expected = [], {}
    for generation in (1, 2):
        trainer.run_epoch(generation)
        path = os.path.join(tmp, f"v{generation}.npz")
        save_checkpoint(trainer, path)
        checkpoints.append(path)
        top = np.argsort(-trainer.score_item_matrix(fixed_clients), axis=1)[:, :K]
        # Swaps alternate v2/v1 from model version 1, so a version's
        # parity names the generation that must have produced an answer.
        expected[generation % 2] = {
            user: frozenset(int(item) for item in row) for user, row in zip(fixed, top)
        }

    if "calls" in params:
        stream = rng.choice(users, size=(params["calls"] + 1, params["batch"]))
    else:
        weights = np.arange(1, len(users) + 1, dtype=np.float64) ** -params[
            "zipf_exponent"
        ]
        ranks = rng.choice(
            len(users),
            size=(params["connections"], params["requests_per_connection"]),
            p=weights / weights.sum(),
        )
        stream = users[ranks]
    return {
        "checkpoints": checkpoints,
        "expected": expected,
        "stream": stream,
        "shape": {"users": dataset.num_users, "items": dataset.num_items},
    }


# ----------------------------------------------------------------------
# Shared pieces of the measured phases
# ----------------------------------------------------------------------
def _timed(tracer: Optional[tracing.Tracer], name: str, call: Callable):
    """``(result, seconds, span id)`` of ``call(span id)``.

    Traced, the call runs inside a root span opening a trace of its own,
    and is handed that span's id (``None`` untraced).
    """
    if tracer is None:
        start = time.perf_counter()
        result = call(None)
        return result, time.perf_counter() - start, None
    tracer.set_trace(None)
    span = tracer.begin(name)
    try:
        result = call(span[tracing.ID])
    finally:
        tracer.end(span)
    return result, span[tracing.END] - span[tracing.START], span[tracing.ID]


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _answer_failures(items, user: int, version: int, ctx: dict, checks: dict) -> int:
    """0 when one served answer is right, 1 otherwise.

    Every answer must hold ``K`` distinct in-range items; an answer for
    a fixed user must also be the set the live trainer ranked on top.
    """
    num_items = ctx["shape"]["items"]
    distinct = set(int(item) for item in items)
    if len(items) != K or len(distinct) != K or not all(
        0 <= item < num_items for item in distinct
    ):
        checks["answers_k_distinct_in_range"] = False
        return 1
    reference = ctx["expected"][version % 2].get(user)
    if reference is not None:
        checks["answers_checked_against_trainer"] += 1
        if distinct != reference:
            checks["served_top_k_equals_trainer"] = False
            return 1
    return 0


def _serve_checks() -> dict:
    return {
        "answers_k_distinct_in_range": True,
        "served_top_k_equals_trainer": True,
        "answers_checked_against_trainer": 0,
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# train_plain / train_secure
# ----------------------------------------------------------------------
def measure_train(ctx: dict, params: dict, tracer, tmp: str) -> dict:
    from repro.api import fit, read_manifest

    trainer, evaluator = ctx["trainer"], ctx["evaluator"]
    if tracer is not None:
        tracing.install_training(tracer)

    # Epoch boundaries, from outside: fit() calls run_epoch once per
    # epoch, and whatever follows it (eval, autosave) belongs to that
    # epoch until the next call.
    epoch_starts: List[float] = []
    run_epoch = trainer.run_epoch

    def timed_run_epoch(epoch):
        epoch_starts.append(time.perf_counter())
        return run_epoch(epoch)

    trainer.run_epoch = timed_run_epoch
    try:
        history, run_s, _ = _timed(tracer, "lifecycle.fit", lambda _: fit(trainer, evaluator))
    finally:
        del trainer.run_epoch
        if tracer is not None:
            tracer.uninstall()
    fit_start = epoch_starts[0]
    edges = epoch_starts[1:] + [fit_start + run_s]
    epoch_ms = [(end - start) * 1000.0 for start, end in zip(epoch_starts, edges)]

    meter = trainer.meter
    mean_positives = statistics.fmean(c.train_items.size for c in ctx["clients"])
    samples = (
        meter.client_rounds * mean_positives
        * (1 + trainer.config.negative_ratio) * params["local_epochs"]
    )
    # The tape's cost follows the samples, the secure protocol's the
    # clients: each workload's throughput counts what its cost scales with.
    work = meter.client_rounds if params["secure"] else samples
    records = history.records
    manifest = read_manifest(trainer.config.checkpoint_path)
    checks = {
        "loss_finite": all(math.isfinite(r.train_loss) for r in records),
        "every_epoch_logged": len(records) == params["epochs"],
        "ndcg_positive": bool(records and records[-1].ndcg and records[-1].ndcg > 0),
        "checkpoint_is_final_epoch": manifest["progress"]["epochs_completed"]
        == params["epochs"],
        "no_saturated_scalars": meter.saturated_scalars == 0,
    }
    return {
        "timings": {
            "run_s": run_s,
            "work_per_s": work / run_s,
            "first_result_s": epoch_ms[0] / 1000.0,
            "step_ms_p50": statistics.median(epoch_ms),
            "step_ms_tail": max(epoch_ms),
            "peak_rss_mib": _peak_rss_mib(),
        },
        "extra": {
            "ndcg_at_20": float(records[-1].ndcg),
            "upload_scalars_per_client": meter.total_upload / meter.client_rounds,
            "federated.communication.upload_scalars": meter.total_upload,
            "federated.communication.download_scalars": meter.total_download,
            "federated.communication.protocol_scalars": meter.total_protocol,
            "federated.availability.dropped_updates": meter.dropped_updates,
        },
        "samples": {
            "epochs": len(epoch_ms), "train_samples": samples,
            "client_updates": meter.client_rounds,
        },
        "attempted": meter.client_rounds,
        "failed": meter.dropped_updates,
        "checks": checks,
    }


# ----------------------------------------------------------------------
# serve_inproc_cold
# ----------------------------------------------------------------------
def measure_inproc(ctx: dict, params: dict, tracer, tmp: str) -> dict:
    from repro.api import QueryRequest, serve

    batches = [
        [QueryRequest(int(user), K, None) for user in row] for row in ctx["stream"]
    ]
    if tracer is not None:
        tracing.install_serving(tracer, front_end=False)
    try:
        start = time.perf_counter()
        service, _, _ = _timed(
            tracer, "lifecycle.serve_start",
            lambda _: serve(ctx["checkpoints"][0], k=K, cache_size=params["cache_size"]),
        )
        # The cold first call is the cold-start metric, not a latency sample.
        answered = [
            _timed(tracer, "lifecycle.query", lambda _: service.query_batch(batches[0]))[0]
        ]
        first_result_s = time.perf_counter() - start
        latencies = []
        loop_start = time.perf_counter()
        for batch in batches[1:]:
            answers, seconds, _ = _timed(
                tracer, "lifecycle.query", lambda _: service.query_batch(batch)
            )
            latencies.append(seconds * 1000.0)
            answered.append(answers)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()

    cache = service.stats()["cache"]
    checks = _serve_checks()
    failed = 0
    for batch, answers in zip(batches, answered):
        for request, answer in zip(batch, answers):
            wrong = answer.user_id != request.user_id or answer.model_version != 1
            failed += 1 if wrong else _answer_failures(
                answer.items, request.user_id, answer.model_version, ctx, checks
            )
    attempted = sum(len(batch) for batch in batches)
    return {
        "timings": {
            "run_s": end - start,
            "work_per_s": len(latencies) * params["batch"] / (end - loop_start),
            "first_result_s": first_result_s,
            "step_ms_p50": _percentile(latencies, 50),
            "step_ms_tail": _percentile(latencies, 99),
            "peak_rss_mib": _peak_rss_mib(),
        },
        "extra": {
            "serving.cache.hit_share": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "serving.cache.evictions": cache["evictions"],
        },
        "samples": {"latency": len(latencies), "answers": attempted},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
    }


# ----------------------------------------------------------------------
# serve_http_swap
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _server_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class _Connection:
    """One keep-alive ``http.client`` connection issuing its request script."""

    def __init__(self, index: int, port: int, users, params: dict, ctx: dict,
                 tracer, shared: dict) -> None:
        self.index, self.port, self.users = index, port, users
        self.params, self.ctx, self.tracer, self.shared = params, ctx, tracer, shared
        self.requests: List[dict] = []
        self.swaps: List[dict] = []

    def exchange(self, conn, method: str, path: str, body: Optional[bytes] = None):
        """One round trip: ``(status, raw body)``; never raises."""
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            conn.close()  # http.client reconnects on the next request
            return None, repr(error).encode()

    def run(self) -> None:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        tracer, shared = self.tracer, self.shared
        swap_every = self.params["swap_every"]
        targets = self.ctx["checkpoints"][::-1]  # first swap goes to v2
        try:
            for sent, user in enumerate(self.users, start=1):
                floor = shared["version_floor"]
                path = f"/v1/recommend?user={int(user)}&k={K}"
                # Traced, the span id rides along as ``rid`` so the server's
                # handler span lands under this request's trace.
                (status, body), seconds, span_id = _timed(
                    tracer, "lifecycle.request",
                    lambda rid: self.exchange(
                        conn, "GET", path if rid is None else f"{path}&rid={rid}"
                    ),
                )
                self.requests.append({
                    "user": int(user), "status": status, "body": body,
                    "floor": floor, "ms": seconds * 1000.0, "span": span_id,
                })
                if self.index == 0 and sent % swap_every == 0:
                    target = targets[len(self.swaps) % 2]
                    payload = json.dumps({"checkpoint": target}).encode()
                    (status, body), seconds, _ = _timed(
                        tracer, "lifecycle.swap_request",
                        lambda _: self.exchange(conn, "POST", "/v1/swap", payload),
                    )
                    self.swaps.append({"status": status, "body": body, "ms": seconds * 1000.0})
                    if status == 200:
                        # From here on an answer carrying an older
                        # version is stale: the swap has returned.
                        shared["version_floor"] = json.loads(body)["model_version"]
        finally:
            conn.close()


def measure_http(ctx: dict, params: dict, tracer, tmp: str) -> dict:
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=SRC)
    server_dump = os.path.join(tmp, "server.trace.json")
    if tracer is None:
        command = [sys.executable, "-m", "repro", "serve"]
    else:
        command = [sys.executable, os.path.join(HERE, "traced_server.py"), server_dump]
    command += [ctx["checkpoints"][0], "--host", HOST, "--port", str(port)]

    shared = {"version_floor": 1}
    connections = [
        _Connection(i, port, users, params, ctx, tracer, shared)
        for i, users in enumerate(ctx["stream"])
    ]
    threads = [threading.Thread(target=c.run, name=f"loadgen-{c.index}") for c in connections]

    start = time.perf_counter()
    server = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        first_user = int(ctx["stream"][0][0])
        probe_status = _first_answer(server, port, first_user)
        first_result_s = time.perf_counter() - start
        loop_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        stats = _get_json(port, "/v1/stats")
        server_rss = _server_peak_rss_mib(server.pid)
    finally:
        # Graceful drain: SIGTERM must answer what is in flight and exit 0.
        server.send_signal(signal.SIGTERM)
        try:
            exit_code = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            exit_code = server.wait()

    checks = _serve_checks()
    checks["no_stale_answer_after_swap"] = True
    failed = 0
    latencies = []
    for connection in connections:
        for request in connection.requests:
            latencies.append(request["ms"])
            if request["status"] != 200:
                failed += 1
                continue
            answer = json.loads(request["body"])
            if answer["model_version"] < request["floor"]:
                checks["no_stale_answer_after_swap"] = False
                failed += 1
            elif answer["user"] != request["user"]:
                failed += 1
            else:
                failed += _answer_failures(
                    answer["items"], request["user"], answer["model_version"], ctx, checks
                )
    swaps = connections[0].swaps
    failed += sum(1 for swap in swaps if swap["status"] != 200)
    requests = len(latencies)
    attempted = requests + len(swaps)

    # The server's own counters must agree with what the generator sent
    # (+1: the first-answer probe).
    checks["server_exit_code_0"] = exit_code == 0
    checks["first_answer_200"] = probe_status == 200
    checks["stats_answers_match"] = (
        sum(stats["resilience"]["tiers"].values()) == requests + 1
    )
    checks["stats_coalescer_match"] = stats["coalescer"]["queries"] == requests + 1
    checks["stats_swaps_match"] = stats["swaps"] == len(swaps)
    swap_ms = [swap["ms"] for swap in swaps]
    result = {
        "timings": {
            "run_s": end - start,
            "work_per_s": requests / (end - loop_start),
            "first_result_s": first_result_s,
            "step_ms_p50": _percentile(latencies, 50),
            "step_ms_tail": _percentile(latencies, 99),
            "peak_rss_mib": server_rss,
        },
        "extra": {"swap_ms_p50": statistics.median(swap_ms)},
        "samples": {"latency": requests, "swaps": len(swaps)},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
    }
    if tracer is not None:
        result["server_dump"] = server_dump
        result["server_stats"] = stats
        result["client_ms_by_span"] = {
            r["span"]: r["ms"] for c in connections for r in c.requests
        }
    return result


def _first_answer(server: subprocess.Popen, port: int, user: int) -> Optional[int]:
    """Poll until the freshly spawned server answers one recommendation."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode} before answering")
        conn = http.client.HTTPConnection(HOST, port, timeout=30)
        try:
            conn.request("GET", f"/v1/recommend?user={user}&k={K}")
            response = conn.getresponse()
            response.read()
            return response.status
        except ConnectionRefusedError:
            time.sleep(0.005)
        finally:
            conn.close()
    raise RuntimeError("server did not answer within 60 s")


def _get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _http_layers(measured: dict, records: List[dict]) -> Dict[str, float]:
    """Front-end numbers: the server's own counters plus span medians."""
    stats = measured["server_stats"]
    cache, coalescer = stats["cache"], stats["coalescer"]
    resilience = stats["resilience"]
    admission, tiers = resilience["admission"], resilience["tiers"]
    lookups = cache["hits"] + cache["misses"]
    flushes = sum(coalescer[kind] for kind in ("size_flushes", "deadline_flushes", "forced_flushes"))
    answered = sum(tiers.values())
    handler_ms = {
        r["parent"]: (r["end"] - r["start"]) * 1000.0
        for r in records
        if r["name"] == "serving.http_api.recommend" and r["parent"] is not None
    }
    outside_ms = [
        client_ms - handler_ms[span]
        for span, client_ms in measured["client_ms_by_span"].items()
        if span in handler_ms
    ]
    return {
        "serving.cache.hit_share": cache["hits"] / lookups if lookups else 0.0,
        "serving.cache.evictions": cache["evictions"],
        "serving.coalescer.wait_ms_p50": statistics.median(
            tracing.span_self_ms(records, "serving.coalescer.submit")
        ),
        "serving.coalescer.mean_batch": coalescer["queries"] / flushes if flushes else 0.0,
        "serving.coalescer.deadline_flush_share": (
            coalescer["deadline_flushes"] / flushes if flushes else 0.0
        ),
        "serving.resilience.tier_full_share": tiers["full"] / answered if answered else 0.0,
        "serving.resilience.tier_cached_share": tiers["cached"] / answered if answered else 0.0,
        "serving.resilience.shed": sum(
            admission[kind] for kind in ("shed_capacity", "shed_deadline", "shed_draining")
        ),
        "serving.resilience.deadline_overruns": resilience["deadline_overruns"],
        "serving.resilience.max_depth": admission["max_depth"],
        "serving.resilience.swap_rejected": resilience["swap"]["rejected"],
        "serving.http_api.handler_ms_p50": statistics.median(handler_ms.values()),
        "serving.http_api.outside_ms_p50": statistics.median(outside_ms),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
_SETUP = {name: setup_train for name in spec.TRAIN}
_SETUP.update({name: setup_serve for name in spec.SERVE})
_MEASURE = {
    "train_plain": measure_train,
    "train_secure": measure_train,
    "serve_inproc_cold": measure_inproc,
    "serve_http_swap": measure_http,
}


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
        out_dir: str) -> dict:
    """Set up ``workload`` from ``seed``, measure it once, check its outputs.

    Untraced runs report the end-to-end metrics; traced runs report the
    per-layer metrics and leave ``<out_dir>/<workload>.spans.jsonl``.
    """
    params = workload_params(workload, seconds, smoke)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        setup_seconds: List[float] = []
        fewest, most = SETUP_REPEATS if not smoke else (SETUP_REPEATS[0],) * 2
        while len(setup_seconds) < fewest or (
            sum(setup_seconds) < SETUP_MIN_SECONDS and len(setup_seconds) < most
        ):
            ctx = None  # drop the previous repeat before building the next
            start = time.perf_counter()
            ctx = _SETUP[workload](params, seed, tmp)
            setup_seconds.append(time.perf_counter() - start)

        tracer = tracing.Tracer("lg") if traced else None
        measured = _MEASURE[workload](ctx, params, tracer, tmp)
        timings = {"setup_s": statistics.median(setup_seconds), **measured["timings"]}
        result = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "smoke": smoke,
            "params": {**params, **ctx["shape"]},
            "samples": {**measured["samples"], "setups": len(setup_seconds)},
            "attempted": int(measured["attempted"]),
            "failed": int(measured["failed"]),
            # Reported by every run, gated by none (see README).
            "extra": {
                **measured["extra"],
                "failed_share": measured["failed"] / measured["attempted"],
                **{k: v for k, v in timings.items() if k not in spec.BOUNDS},
            },
            "checks": measured["checks"],
        }
        if traced:
            metrics = _per_layer(workload, measured, tracer, result, out_dir)
            metrics["traced_run_s"] = timings["run_s"]
            names = spec.PER_LAYER_NAMES
        else:
            metrics, names = timings, spec.END_TO_END_NAMES
        result["metrics"] = {
            name: {"value": float(metrics[name]), "unit": spec.UNITS[name]} for name in names
        }
        result["checks"]["nothing_failed"] = result["failed"] == 0
        result["correct"] = all(value is not False for value in result["checks"].values())
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _per_layer(workload: str, measured: dict, tracer, result: dict, out_dir: str) -> dict:
    """Every per-layer metric of a traced run; writes the spans file."""
    records = tracer.records()
    counts = dict(tracer.counts)
    front_end = "server_dump" in measured
    if front_end:
        with open(measured["server_dump"], encoding="utf-8") as handle:
            server = json.load(handle)
        records += server["spans"]
        counts.update(server["counts"])
        tracing.adopt_orphans(
            records, "serving.resilience.query_batch", "serving.coalescer.submit"
        )
    metrics = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
    metrics.update(tracing.layer_metrics(records, counts))
    metrics.update(result["extra"])
    if front_end:
        metrics.update(_http_layers(measured, records))
    tracing.write_spans(os.path.join(out_dir, f"{workload}.spans.jsonl"), records)
    result["layers"] = {
        name: layer._asdict() for name, layer in tracing.self_times(records).items()
    }
    result["root_seconds"] = tracing.root_seconds(records)
    _traced_checks(workload, metrics, result["checks"])
    return metrics


def _traced_checks(workload: str, metrics: Dict[str, float], checks: dict) -> None:
    """The bypass predictions, asserted on the traced counts."""
    front_end = [
        name for name in spec.PER_LAYER_NAMES
        if name.startswith(("serving.cache", "serving.coalescer", "serving.resilience", "serving.http_api"))
    ]
    if workload in spec.TRAIN:
        secure_rounds = metrics["federated.secure_protocol.rounds"]
        checks["secure_protocol_only_when_secure"] = (secure_rounds > 0) == (
            workload == "train_secure"
        )
        checks["no_aborted_secure_round"] = metrics["federated.secure_protocol.aborts"] == 0
        checks["serving_bypassed"] = metrics["serving.service.batches"] == 0
    if workload == "serve_inproc_cold":
        checks["front_end_bypassed"] = all(metrics[name] == 0 for name in front_end)
    if workload in spec.SERVE:
        checks["training_bypassed"] = metrics["federated.round_engine.rounds"] == 0
