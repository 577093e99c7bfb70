"""Simulation configuration and the scenario result contract.

:class:`SimulationConfig` is one flat, JSON-roundtrippable description
of a scenario: who participates (population shape), how they arrive
(arrival trace), how the network behaves (latency / dropout / retry /
duplicate models) and how the server aggregates (quorum, deadline
policy, staleness discount, buffer eviction).  Same config + same seed
⇒ bitwise-identical :class:`ScenarioResult` — that determinism contract
is pinned by the test suite.

:class:`ScenarioResult` mirrors the shape of the exemplar scenario
harness (``SimulationConfig`` + ``result.network.total_bytes`` /
``messages_delivered``): exact wire accounting next to the degradation
counters (rounds applied short / extended / skipped, updates dropped)
and a parameter digest for bitwise reproducibility checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.federated.communication import NetworkStats

#: Deadline policies when an aggregation window closes short of quorum.
APPLY, EXTEND, SKIP = "apply", "extend", "skip"
_POLICIES = (APPLY, EXTEND, SKIP)

_ARRIVALS = ("rounds", "diurnal")
_LATENCIES = ("zero", "fixed", "lognormal", "pareto")
_DROPOUTS = ("none", "bernoulli", "markov")


@dataclass
class LatencyModelConfig:
    """Upload latency distribution (sim-seconds per attempt).

    ``lognormal`` (median ≈ ``scale``, shape ``sigma``) and ``pareto``
    (tail index ``alpha``, minimum ``scale``) are the heavy-tailed
    straggler models; ``fixed`` is a constant ``scale``; ``zero`` makes
    uploads instantaneous (the synchronous-mirror setting).
    """

    kind: str = "zero"
    scale: float = 1.0
    sigma: float = 1.0
    alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _LATENCIES:
            raise ValueError(f"latency kind must be one of {_LATENCIES}, got {self.kind!r}")
        if self.scale < 0:
            raise ValueError(f"latency scale must be >= 0, got {self.scale}")
        if self.alpha <= 1.0:
            raise ValueError(f"pareto alpha must be > 1, got {self.alpha}")


@dataclass
class DropoutModelConfig:
    """Client dropout behaviour.

    ``bernoulli`` drops each upload attempt independently with ``rate``;
    ``markov`` additionally models *flapping availability*: a two-state
    per-client chain flips available→unavailable with ``p_fail`` and
    back with ``p_recover`` at every dispatch, and unavailable clients
    never start their session.  ``drop_mid_upload_fraction`` is the
    share of an upload's bytes that made it onto the wire before a
    mid-flight drop (wasted, and accounted as such).
    """

    kind: str = "none"
    rate: float = 0.0
    p_fail: float = 0.0
    p_recover: float = 1.0
    drop_mid_upload_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _DROPOUTS:
            raise ValueError(f"dropout kind must be one of {_DROPOUTS}, got {self.kind!r}")
        for name in ("rate", "p_fail", "p_recover", "drop_mid_upload_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class ArrivalModelConfig:
    """When each epoch's participating clients show up.

    ``rounds`` reproduces the synchronous schedule: cohort *r* arrives
    as one simultaneous block at time *r*.  ``diurnal`` draws arrival
    times from a sinusoidally modulated intensity (period ``period``,
    modulation ``amplitude``) over a day-long window, keeping queue order.
    """

    kind: str = "rounds"
    period: float = 24.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if self.kind not in _ARRIVALS:
            raise ValueError(f"arrival kind must be one of {_ARRIVALS}, got {self.kind!r}")
        if self.period <= 0:
            raise ValueError(f"arrival period must be positive, got {self.period}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")


@dataclass
class SimulationConfig:
    """Everything one scenario run depends on.

    Population shape (``num_clients``/``num_items``/``dim``) only
    applies to surrogate-fleet scenarios; trainer-backed runs take their
    population from the trainer.  An aggregation window closes as soon
    as ``clients_per_round`` uploads are buffered (its quorum), or when
    its deadline expires, whichever comes first.
    """

    # Population (surrogate backend).
    num_clients: int = 1000
    num_items: int = 500
    dim: int = 8
    items_per_client: int = 16

    # Schedule.
    epochs: int = 1
    clients_per_round: int = 64

    # Aggregation-window management.
    round_deadline: float = math.inf
    deadline_policy: str = APPLY
    max_extensions: int = 1
    #: Per-version staleness discount: an update trained at server
    #: version *v* and applied at version *v+s* is scaled by
    #: ``staleness_weight ** s``.  1.0 disables discounting.
    staleness_weight: float = 1.0
    buffer_max_age_rounds: Optional[int] = None

    # Upload behaviour.
    upload_timeout: float = math.inf
    max_retries: int = 2
    #: Probability that a delivered upload is delivered *again* shortly
    #: after (a retry racing its original) — exercises duplicate-user
    #: merging in the aggregation path.
    duplicate_rate: float = 0.0
    duplicate_delay: float = 0.25

    # Models.
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    dropout: DropoutModelConfig = field(default_factory=DropoutModelConfig)
    arrival: ArrivalModelConfig = field(default_factory=ArrivalModelConfig)

    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_policy not in _POLICIES:
            raise ValueError(
                f"deadline_policy must be one of {_POLICIES}, got {self.deadline_policy!r}"
            )
        for name in ("num_clients", "num_items", "dim", "items_per_client",
                     "epochs", "clients_per_round"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.round_deadline <= 0:
            raise ValueError(f"round_deadline must be positive, got {self.round_deadline}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 < self.staleness_weight <= 1.0:
            raise ValueError(
                f"staleness_weight must be in (0, 1], got {self.staleness_weight}"
            )
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate must be in [0, 1], got {self.duplicate_rate}")

    def copy_with(self, **overrides) -> "SimulationConfig":
        from dataclasses import replace

        return replace(self, **overrides)


@dataclass
class ScenarioResult:
    """What one scenario run reports — exact, deterministic accounting.

    ``network`` is the per-message ledger (every delivery attempt's
    bytes and latency); the remaining counters describe how the server
    degraded: rounds applied at/below quorum, extended, skipped, and
    updates that were trained and uploaded but never aggregated
    (``dropped_updates`` = retry exhaustion + buffer eviction).
    ``param_digest`` hashes the final global parameters, so two results
    with equal fingerprints ran bitwise-identically end to end.
    """

    name: str
    clients_simulated: int = 0
    clients_unavailable: int = 0
    events_processed: int = 0
    sim_time: float = 0.0
    rounds_applied: int = 0
    short_rounds: int = 0
    rounds_extended: int = 0
    rounds_skipped: int = 0
    updates_aggregated: int = 0
    duplicates_merged: int = 0
    dropped_updates: int = 0
    poisoned_updates: int = 0
    mean_final_loss: float = 0.0
    param_digest: str = ""
    network: NetworkStats = field(default_factory=NetworkStats)
    # Secure-aggregation protocol counters (all zero/empty unless the
    # scenario routes rounds through repro.federated.secure_protocol).
    secure_rounds_applied: int = 0
    secure_rounds_aborted: int = 0
    #: Faults injected per protocol phase: ``{phase: client-drop count}``.
    secure_dropouts_injected: Dict[str, int] = field(default_factory=dict)
    #: Protocol control traffic per phase, scalar-equivalents.
    secure_phase_wire: Dict[str, float] = field(default_factory=dict)
    #: Largest |masked-decoded sum − surviving plain sum| coordinate seen
    #: across applied secure rounds (conservation check; must stay within
    #: the fixed-point quantisation bound × survivors).
    secure_max_sum_error: float = 0.0
    secure_saturated_scalars: int = 0
    wall_seconds: float = 0.0

    def fingerprint(self) -> Dict[str, object]:
        """Everything deterministic — equal fingerprints ⇒ equal runs.

        Excludes ``wall_seconds`` (the only wall-clock field).
        """
        payload = asdict(self)
        payload.pop("wall_seconds")
        payload["network"] = self.network.as_dict()
        return payload

    def summary_lines(self) -> list:
        """Human-readable report for the CLI."""
        net = self.network
        return [
            f"scenario: {self.name}",
            f"  clients simulated     {self.clients_simulated:,} "
            f"(unavailable: {self.clients_unavailable:,})",
            f"  events processed      {self.events_processed:,} "
            f"over {self.sim_time:,.2f} sim-seconds",
            f"  rounds                {self.rounds_applied:,} applied "
            f"({self.short_rounds:,} short, {self.rounds_extended:,} extended, "
            f"{self.rounds_skipped:,} skipped)",
            f"  updates               {self.updates_aggregated:,} aggregated, "
            f"{self.duplicates_merged:,} duplicates merged, "
            f"{self.dropped_updates:,} dropped, {self.poisoned_updates:,} poisoned",
            f"  network               {net.total_bytes:,.0f} scalars on the wire "
            f"({net.bytes_down:,.0f} down / {net.bytes_up:,.0f} up / "
            f"{net.bytes_wasted:,.0f} wasted)",
            f"  messages              {net.messages_delivered:,} delivered, "
            f"{net.messages_dropped:,} dropped, {net.retries:,} retries, "
            f"{net.duplicates_delivered:,} duplicates",
            f"  upload latency        mean {net.mean_latency:.3f}s, "
            f"max {net.latency_max:.3f}s",
            f"  mean final loss       {self.mean_final_loss:.6f}",
            f"  param digest          {self.param_digest[:16]}…",
            f"  wall time             {self.wall_seconds:.2f}s",
        ] + self._secure_lines()

    def _secure_lines(self) -> list:
        if not (self.secure_rounds_applied or self.secure_rounds_aborted):
            return []
        injected = sum(self.secure_dropouts_injected.values())
        return [
            f"  secure rounds         {self.secure_rounds_applied:,} applied, "
            f"{self.secure_rounds_aborted:,} aborted "
            f"({injected:,} dropouts injected across phases)",
            f"  secure protocol wire  {sum(self.secure_phase_wire.values()):,.0f} "
            f"scalars ({', '.join(f'{p}: {v:,.0f}' for p, v in sorted(self.secure_phase_wire.items()))})",
            f"  secure conservation   max |masked−plain| sum error "
            f"{self.secure_max_sum_error:.3e} "
            f"({self.secure_saturated_scalars:,} saturated scalars)",
        ]
