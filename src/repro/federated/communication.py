"""Communication-cost accounting (paper Table III).

Two complementary views:

* :func:`transmission_cost` — the *analytic* one-time transfer size for a
  client of a given type under a given method, exactly the formulas of
  Table III (``size(V_a + Θ_...)`` in scalar parameters);
* :class:`CommunicationMeter` — an *empirical* meter the trainer feeds
  with every simulated download/upload, so experiments can report measured
  totals alongside the analytic ones;
* :class:`NetworkStats` — a *message-level* ledger for the event-driven
  simulator (:mod:`repro.sim`): every delivery attempt is one record with
  its direction, wire cost and latency, so scenarios can report
  ``total_bytes`` / ``messages_delivered`` next to retries, drops and
  bytes wasted on failed attempts.  The meter answers "how much moved per
  client-round"; the stats answer "what actually happened on the wire".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple


def head_parameter_count(dim: int, hidden: Sequence[int] = (8, 8)) -> int:
    """Scalar parameters of a Θ head for embedding width ``dim``.

    Matches :class:`repro.models.base.ScoringHead`: Linear(2·dim → h1) →
    Linear(h1 → h2) → Linear(h_last → 1), each with bias, plus the
    bias-free GMF path (``dim`` weights).
    """
    widths = [2 * dim, *hidden, 1]
    mlp = sum(w_in * w_out + w_out for w_in, w_out in zip(widths[:-1], widths[1:]))
    return mlp + dim


def embedding_parameter_count(num_items: int, dim: int) -> int:
    """Scalar parameters of an item table ``V`` of width ``dim``."""
    return num_items * dim


def transmission_cost(
    method: str,
    client_group: str,
    num_items: int,
    dims: Mapping[str, int],
    hidden: Sequence[int] = (8, 8),
) -> int:
    """One-time transfer size (in scalars) per Table III.

    ``method`` ∈ {'all_small', 'all_large', 'hetefedrec'};
    ``client_group`` ∈ {'s', 'm', 'l'}.

    * All Small: every client moves ``V_s + Θ_s``.
    * All Large: every client moves ``V_l + Θ_l``.
    * HeteFedRec: a client of group *a* moves ``V_a`` plus the heads of
      every group no larger than *a* (Θ_s for U_s; Θ_s+Θ_m for U_m;
      Θ_s+Θ_m+Θ_l for U_l) — the dual-task requirement of Eq. 11.
    """
    order = ["s", "m", "l"]
    if client_group not in order:
        raise ValueError(f"unknown client group {client_group!r}")
    if method == "all_small":
        return embedding_parameter_count(num_items, dims["s"]) + head_parameter_count(
            dims["s"], hidden
        )
    if method == "all_large":
        return embedding_parameter_count(num_items, dims["l"]) + head_parameter_count(
            dims["l"], hidden
        )
    if method == "hetefedrec":
        upto = order.index(client_group) + 1
        total = embedding_parameter_count(num_items, dims[client_group])
        for group in order[:upto]:
            total += head_parameter_count(dims[group], hidden)
        return total
    raise ValueError(f"unknown method {method!r}")


@dataclass
class CommunicationMeter:
    """Accumulates simulated transfer volumes, split by direction and group."""

    downloads: Dict[str, int] = field(default_factory=dict)
    uploads: Dict[str, int] = field(default_factory=dict)
    client_rounds: int = 0
    #: Buffered updates that aged past the straggler buffer's max-age
    #: policy and were evicted unapplied — they crossed the wire (their
    #: cost stays in ``uploads``) but never reached aggregation.
    dropped_updates: int = 0
    #: Secure-aggregation protocol traffic (key advertisements, Shamir
    #: shares, MACs, unmask reveals) per phase, in scalar-equivalents —
    #: the overhead Table III must carry when ``secure_aggregation`` is
    #: on, separate from the masked vectors themselves (which replace
    #: the sparse ``upload_size`` inside ``uploads``).
    protocol: Dict[str, float] = field(default_factory=dict)
    #: Scalars the fixed-point codec clamped at ``clip_range`` across
    #: all secure rounds (each one silently shrinks the decoded sum).
    saturated_scalars: int = 0

    def record(self, group: str, download: int, upload: int) -> None:
        self.downloads[group] = self.downloads.get(group, 0) + int(download)
        self.uploads[group] = self.uploads.get(group, 0) + int(upload)
        self.client_rounds += 1

    def record_protocol(self, phase: str, cost: float) -> None:
        """Secure-protocol control traffic for one phase of one round."""
        self.protocol[phase] = self.protocol.get(phase, 0.0) + float(cost)

    @property
    def total_protocol(self) -> float:
        return float(sum(self.protocol.values()))

    @property
    def total_download(self) -> int:
        return sum(self.downloads.values())

    @property
    def total_upload(self) -> int:
        return sum(self.uploads.values())

    @property
    def total(self) -> float:
        total = self.total_download + self.total_upload
        if self.protocol:
            return float(total) + self.total_protocol
        return total

    def per_client_round(self) -> float:
        """Average scalars moved per client participation."""
        if self.client_rounds == 0:
            return 0.0
        return self.total / self.client_rounds

    def export_state(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of the accumulated totals."""
        return {
            "downloads": dict(self.downloads),
            "uploads": dict(self.uploads),
            "client_rounds": int(self.client_rounds),
            "dropped_updates": int(self.dropped_updates),
            "protocol": dict(self.protocol),
            "saturated_scalars": int(self.saturated_scalars),
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore totals from :meth:`export_state` output."""
        self.downloads = {g: int(v) for g, v in dict(state["downloads"]).items()}
        self.uploads = {g: int(v) for g, v in dict(state["uploads"]).items()}
        self.client_rounds = int(state["client_rounds"])
        self.dropped_updates = int(state["dropped_updates"])
        self.protocol = {str(p): float(v) for p, v in dict(state["protocol"]).items()}
        self.saturated_scalars = int(state["saturated_scalars"])

    def summary(self) -> Dict[str, Tuple[int, int]]:
        """``{group: (download, upload)}`` totals."""
        groups = sorted(set(self.downloads) | set(self.uploads))
        return {
            group: (self.downloads.get(group, 0), self.uploads.get(group, 0))
            for group in groups
        }


@dataclass
class NetworkStats:
    """Per-message wire accounting for the event-driven simulator.

    Every *attempt* to move a payload is recorded exactly once: a
    delivered message contributes its full wire cost to the directional
    byte counters, a dropped/timed-out attempt contributes the bytes it
    burned before failing to ``bytes_wasted``.  Latency is accumulated
    over delivered uploads only (downloads are modelled as instantaneous
    snapshot reads at dispatch).  All costs are in scalar-equivalents,
    the unit every other accounting surface of this repo uses.
    """

    bytes_down: float = 0.0
    bytes_up: float = 0.0
    bytes_wasted: float = 0.0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    retries: int = 0
    duplicates_delivered: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Everything that touched the wire, including wasted attempts."""
        return self.bytes_down + self.bytes_up + self.bytes_wasted

    @property
    def mean_latency(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return self.latency_total / self.messages_delivered

    def record_download(self, size: float) -> None:
        self.messages_sent += 1
        self.messages_delivered += 1
        self.bytes_down += float(size)

    def record_delivery(
        self, size: float, latency: float, duplicate: bool = False, retry: bool = False
    ) -> None:
        """A successful upload arrival (possibly a retry or a duplicate)."""
        self.messages_sent += 1
        self.messages_delivered += 1
        self.bytes_up += float(size)
        self.latency_total += float(latency)
        self.latency_max = max(self.latency_max, float(latency))
        if duplicate:
            self.duplicates_delivered += 1
        if retry:
            self.retries += 1

    def record_drop(self, wasted: float, retry: bool = False) -> None:
        """A failed upload attempt: ``wasted`` bytes made it onto the wire."""
        self.messages_sent += 1
        self.messages_dropped += 1
        self.bytes_wasted += float(wasted)
        if retry:
            self.retries += 1

    def as_dict(self) -> Dict[str, float]:
        """JSON-serialisable snapshot (fingerprints and bench reports)."""
        return {
            "bytes_down": float(self.bytes_down),
            "bytes_up": float(self.bytes_up),
            "bytes_wasted": float(self.bytes_wasted),
            "total_bytes": float(self.total_bytes),
            "messages_sent": int(self.messages_sent),
            "messages_delivered": int(self.messages_delivered),
            "messages_dropped": int(self.messages_dropped),
            "retries": int(self.retries),
            "duplicates_delivered": int(self.duplicates_delivered),
            "latency_total": float(self.latency_total),
            "latency_max": float(self.latency_max),
        }
