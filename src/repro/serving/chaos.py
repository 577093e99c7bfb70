"""Deterministic chaos testing for the online serving stack.

The sim package (PR 6) proved the *training* stack by injecting seeded
faults and pinning the outcome fingerprints bitwise; this module does
the same for serving.  A :class:`ChaosPolicy` draws every fault from
named SeedSequence-spawned streams (the sim package's
:func:`~repro.sim.engine.spawn_streams` / LatencyModel machinery):

* **latency spikes** — scoring time inflated by a heavy-tailed draw;
* **scoring exceptions** — the inner ``query_batch`` raises, pushing
  requests down the resilience layer's degradation ladder;
* **truncated checkpoints** — a fraction of hot-swap candidates are
  corrupt and must be quarantined, never served;
* **load bursts** — 2x-capacity request waves that must shed, not queue
  unboundedly.

Everything runs single-threaded on a :class:`ManualClock` — simulated
concurrency comes from the admission queue's two-phase ticket API, so a
burst really does overlap in *logical* time while the driver stays
deterministic.  :func:`run_chaos_scenario` returns a
:class:`ServingChaosResult` whose :meth:`~ServingChaosResult.fingerprint`
is bitwise-reproducible for a given config (same seed ⇒ identical
fingerprint), mirroring ``sim/scenarios``.  Exposed as
``python -m repro simulate serving_chaos``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.resilience import (
    HEALTHY,
    DeadlineExceededError,
    ResilienceConfig,
    ResilientService,
    ShedError,
)
from repro.serving.service import QueryRequest, RecommendationService, delivered
from repro.sim.config import LatencyModelConfig
from repro.sim.engine import LatencyModel, spawn_streams


class ManualClock:
    """A monotonic clock the driver advances by hand.

    Callable (so it drops into every ``clock=`` seam in the serving
    stack) and sleepable (``sleep`` advances instead of blocking, so
    retry backoff costs simulated — not wall — time).
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance backwards ({seconds})")
        self.now += float(seconds)
        return self.now

    def sleep(self, seconds: float) -> None:
        self.advance(max(0.0, seconds))


#: What one scoring call costs, in simulated seconds: a fixed part plus a
#: lognormal jitter, and a spike multiplies the sum.
SCORE_COST_S = 0.002
SCORING_LATENCY = LatencyModelConfig(kind="lognormal", scale=0.002, sigma=1.0)
SPIKE_MULTIPLIER = 40.0


@dataclass
class ServingChaosConfig:
    """One seeded chaos scenario, fully specified.

    The fault window is ``[fault_start, fault_end)`` in request indices;
    outside it the service runs clean, which is what lets the scenario
    assert *recovery* and not just survival.
    """

    seed: int = 0
    requests: int = 400
    fault_start: int = 50
    fault_end: int = 250

    # Latency spikes (inside the fault window; see SPIKE_MULTIPLIER).
    latency_spike_rate: float = 0.2

    # Injected scoring exceptions (inside the fault window).
    error_rate: float = 0.15

    # Hot-swap storm: every `swap_every` requests a candidate checkpoint
    # is offered; inside the fault window `corrupt_swap_rate` of them
    # are truncated copies that must be quarantined.
    swap_every: int = 40
    corrupt_swap_rate: float = 0.3

    # Load bursts: every `burst_every` requests, `burst_size` arrivals
    # land at the same instant (2x admission capacity by default).
    burst_every: int = 60
    burst_size: int = 16

    # Admission / deadline shape.  A 2x-capacity burst (16 arrivals vs
    # capacity 8 + wait room 4) must overflow the wait room and shed.
    # ``deadline_ms=None`` disables budgets entirely — the bench uses it
    # to demonstrate what unbounded queueing does to tail latency.
    admission_capacity: int = 8
    max_waiting: int = 4
    deadline_ms: Optional[float] = 250.0

    # Recovery phase: clean requests after the storm.
    recovery_requests: int = 60

    def __post_init__(self) -> None:
        if not 0 <= self.fault_start <= self.fault_end <= self.requests:
            raise ValueError(
                f"need 0 <= fault_start <= fault_end <= requests, got "
                f"{self.fault_start}/{self.fault_end}/{self.requests}"
            )


@dataclass
class ServingChaosResult:
    """Outcome counters + the determinism fingerprint of one scenario."""

    config: ServingChaosConfig
    answered: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    tiers: Dict[str, int] = field(default_factory=dict)
    injected_errors: int = 0
    injected_spikes: int = 0
    swap_attempts: int = 0
    swaps_succeeded: int = 0
    corrupt_offered: int = 0
    quarantined: int = 0
    bad_snapshots_served: int = 0
    max_queue_depth: int = 0
    p99_admitted_ms: float = 0.0
    recovered: bool = False
    final_health: str = ""
    answers_digest: str = ""
    wall_seconds: float = 0.0

    def fingerprint(self) -> dict:
        """Everything that must be bitwise-identical across runs."""
        payload = asdict(self)
        payload.pop("wall_seconds")
        payload["config"] = asdict(self.config)
        return payload

    def summary_lines(self) -> List[str]:
        tiers = ", ".join(f"{t}={n}" for t, n in sorted(self.tiers.items()) if n)
        driven = self.answered + self.shed + self.deadline_exceeded
        return [
            f"serving_chaos seed={self.config.seed}: "
            f"{self.answered} answered / {self.shed} shed / "
            f"{self.deadline_exceeded} past-deadline of {driven} driven",
            f"  tiers: {tiers or 'none'}",
            f"  faults: {self.injected_errors} errors, "
            f"{self.injected_spikes} latency spikes, "
            f"{self.corrupt_offered}/{self.swap_attempts} swap candidates "
            f"corrupt -> {self.quarantined} quarantined",
            f"  served bad snapshots: {self.bad_snapshots_served} "
            f"(max queue depth {self.max_queue_depth}, "
            f"p99 admitted {self.p99_admitted_ms:.1f}ms)",
            f"  recovered: {self.recovered} (final health {self.final_health})",
            f"  digest: {self.answers_digest[:16]}",
        ]


class ChaosPolicy:
    """Seeded fault decisions, one named stream per fault kind."""

    STREAMS = ("latency", "faults", "traffic", "swap")

    def __init__(self, config: ServingChaosConfig) -> None:
        self.config = config
        streams = spawn_streams(config.seed, self.STREAMS)
        self._latency = LatencyModel(SCORING_LATENCY, streams["latency"])
        self._faults = streams["faults"]
        self.traffic = streams["traffic"]
        self._swap = streams["swap"]
        self.active = False
        self.injected_errors = 0
        self.injected_spikes = 0

    def scoring_delay(self) -> float:
        """Simulated seconds one scoring call costs right now."""
        delay = SCORE_COST_S + self._latency.sample()
        if self.active and self._faults.random() < self.config.latency_spike_rate:
            self.injected_spikes += 1
            delay *= SPIKE_MULTIPLIER
        return delay

    def scoring_error(self) -> bool:
        """Should this scoring call raise an injected exception?"""
        if self.active and self._faults.random() < self.config.error_rate:
            self.injected_errors += 1
            return True
        return False

    def corrupt_candidate(self) -> bool:
        """Should this swap candidate be a truncated checkpoint?"""
        return self.active and self._swap.random() < self.config.corrupt_swap_rate


class InjectedScoringError(RuntimeError):
    """The chaos policy's stand-in for a scoring-path crash."""


class ChaosWrappedService:
    """Proxy around the real service that the chaos policy disturbs.

    Sits *under* the resilience layer: injected latency advances the
    manual clock, injected errors raise before scoring — exactly where
    a real numpy fault or allocator stall would surface.
    """

    def __init__(
        self,
        service: RecommendationService,
        policy: ChaosPolicy,
        clock: ManualClock,
    ) -> None:
        self._service = service
        self._policy = policy
        self._clock = clock

    def __getattr__(self, name: str):
        return getattr(self._service, name)

    def query_batch(self, requests):
        self._clock.advance(self._policy.scoring_delay())
        if self._policy.scoring_error():
            raise InjectedScoringError("injected scoring fault")
        return self._service.query_batch(requests)

    def query(self, user_id, k=None, exclude=None):
        return delivered(self.query_batch([QueryRequest(int(user_id), k, exclude)])[0])


def build_chaos_checkpoints(workdir: str, seed: int = 7) -> Dict[str, str]:
    """Train a tiny deterministic run and save v1/v2 checkpoints."""
    from repro.core import HeteFedRec, HeteFedRecConfig
    from repro.data.splitting import train_test_split_per_user
    from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset
    from repro.federated.checkpoint import save_checkpoint_impl

    dataset = load_benchmark_dataset(
        "ml", SyntheticConfig(scale=0.01, item_scale=0.03, seed=seed)
    )
    clients = train_test_split_per_user(dataset, seed=seed)
    trainer = HeteFedRec(
        dataset.num_items,
        clients,
        HeteFedRecConfig(
            seed=0, dims={"s": 4, "m": 6, "l": 8}, epochs=2, local_epochs=1,
            lr=0.01,
        ),
    )
    paths = {}
    os.makedirs(workdir, exist_ok=True)
    trainer.run_epoch(1)
    paths["v1"] = os.path.join(workdir, "chaos_v1.npz")
    save_checkpoint_impl(trainer, paths["v1"])
    trainer.run_epoch(2)
    paths["v2"] = os.path.join(workdir, "chaos_v2.npz")
    save_checkpoint_impl(trainer, paths["v2"])
    return paths


def _make_candidate(
    source: str, workdir: str, index: int, corrupt: bool
) -> str:
    """Stage one swap candidate: a pristine or truncated checkpoint copy."""
    kind = "bad" if corrupt else "good"
    path = os.path.join(workdir, f"cand_{index:04d}_{kind}.npz")
    if corrupt:
        with open(source, "rb") as fh:
            blob = fh.read()
        # The torn write is the POINT here: this candidate simulates a
        # crashed non-atomic writer so the swap guard can be seen
        # rejecting it.  An atomic helper would defeat the scenario.
        # repro-lint: disable=atomic-write
        with open(path, "wb") as fh:
            fh.write(blob[: max(1, int(len(blob) * 0.6))])
    else:
        shutil.copyfile(source, path)
    return path


def run_chaos_scenario(
    config: Optional[ServingChaosConfig] = None,
    checkpoints: Optional[Dict[str, str]] = None,
    workdir: Optional[str] = None,
) -> ServingChaosResult:
    """Drive the full resilience stack through one seeded fault storm.

    Single-threaded and manual-clocked: every latency, fault, swap and
    burst decision comes from a named seeded stream, so the resulting
    :meth:`~ServingChaosResult.fingerprint` is bitwise-reproducible.
    ``checkpoints`` (mapping with ``v1``/``v2`` paths) and ``workdir``
    may be supplied to reuse prebuilt artifacts (the tests do); by
    default a tiny deterministic training run builds them under
    ``.repro_cache/serving_chaos/``.
    """
    config = config or ServingChaosConfig()
    wall_start = time.perf_counter()
    if workdir is None:
        workdir = os.path.join(".repro_cache", "serving_chaos")
    candidates_dir = os.path.join(workdir, f"candidates_{config.seed}")
    if os.path.isdir(candidates_dir):
        shutil.rmtree(candidates_dir)
    os.makedirs(candidates_dir, exist_ok=True)
    if checkpoints is None:
        checkpoints = build_chaos_checkpoints(workdir)

    clock = ManualClock()
    policy = ChaosPolicy(config)
    service = RecommendationService(checkpoints["v1"], k=10, cache_size=2048)
    chaotic = ChaosWrappedService(service, policy, clock)
    resilience = ResilientService(
        chaotic,
        ResilienceConfig(
            admission_capacity=config.admission_capacity,
            max_waiting=config.max_waiting,
            default_deadline_ms=config.deadline_ms,
            breaker_failures=3,
            breaker_reset_s=5.0,
            swap_retries=1,
            swap_backoff_s=0.01,
        ),
        clock=clock,
        sleep=clock.sleep,
    )

    users = service.snapshot.user_ids()
    # Which file each served model version came from: v1, then whatever
    # swapped in.  A version that maps to a corrupt candidate is bad.
    version_paths = {service.model_version: checkpoints["v1"]}
    valid_paths = {os.path.abspath(p) for p in checkpoints.values()}
    result = ServingChaosResult(config=config)
    latencies_ms: List[float] = []
    digest = hashlib.sha256()
    candidate_index = 0

    def drive_one(user: int) -> None:
        start = clock()
        try:
            ticket = resilience.try_admit(config.deadline_ms)
        except ShedError:
            result.shed += 1
            return
        _finish(ticket, user, start)

    def _finish(ticket, user: int, start: float) -> None:
        try:
            answer = resilience.execute(ticket, user)
        except DeadlineExceededError:
            result.deadline_exceeded += 1
            return
        except ShedError:
            result.shed += 1
            return
        result.answered += 1
        latencies_ms.append((clock() - start) * 1000.0)
        served_path = version_paths.get(answer.model_version)
        if served_path is None or os.path.abspath(served_path) not in valid_paths:
            result.bad_snapshots_served += 1
        digest.update(
            f"{user}:{answer.tier}:{answer.model_version}:"
            f"{','.join(str(i) for i in answer.items[:5])};".encode()
        )

    def attempt_swap() -> None:
        nonlocal candidate_index
        corrupt = policy.corrupt_candidate()
        source = checkpoints["v2"] if candidate_index % 2 == 0 else checkpoints["v1"]
        path = _make_candidate(source, candidates_dir, candidate_index, corrupt)
        candidate_index += 1
        result.swap_attempts += 1
        if corrupt:
            result.corrupt_offered += 1
        try:
            version_paths[resilience.swap(path)] = path
        except Exception:  # noqa: BLE001 - chaos: failures are the point
            return
        if not corrupt:
            # A pristine candidate that swapped in IS a valid serving source.
            valid_paths.add(os.path.abspath(path))
        result.swaps_succeeded += 1

    for i in range(config.requests):
        policy.active = config.fault_start <= i < config.fault_end
        if config.swap_every and i and i % config.swap_every == 0:
            attempt_swap()
        if config.burst_every and i and i % config.burst_every == 0:
            # A burst: `burst_size` arrivals at one instant.  Two-phase
            # admission makes the overlap real — all tickets are taken
            # before any work runs, so the queue truly fills and sheds.
            burst_users = [
                users[int(policy.traffic.integers(len(users)))]
                for _ in range(config.burst_size)
            ]
            tickets: List[Tuple[object, int, float]] = []
            for user in burst_users:
                start = clock()
                try:
                    tickets.append(
                        (resilience.try_admit(config.deadline_ms), user, start)
                    )
                except ShedError:
                    result.shed += 1
            for ticket, user, start in tickets:
                _finish(ticket, user, start)
        else:
            drive_one(users[int(policy.traffic.integers(len(users)))])
        clock.advance(0.001)  # inter-arrival gap

    # The storm is over: clean traffic only.  The service must climb
    # back to the healthy tier on its own.
    policy.active = False
    for _ in range(config.recovery_requests):
        drive_one(users[int(policy.traffic.integers(len(users)))])
        clock.advance(0.001)

    stats = resilience.stats()["resilience"]
    result.tiers = dict(stats["tiers"])
    result.injected_errors = policy.injected_errors
    result.injected_spikes = policy.injected_spikes
    result.quarantined = stats["swap"]["quarantined"]
    result.max_queue_depth = stats["admission"]["max_depth"]
    if latencies_ms:
        result.p99_admitted_ms = float(
            np.percentile(np.asarray(latencies_ms), 99.0)
        )
    result.final_health = resilience.health.state
    result.recovered = resilience.health.state == HEALTHY
    result.answers_digest = digest.hexdigest()
    result.wall_seconds = time.perf_counter() - wall_start
    return result
