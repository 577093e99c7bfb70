"""Wall-clock systems model: what heterogeneity buys in round time.

The paper motivates model heterogeneity with resource diversity
(footnote 5: computational power, energy, bandwidth) but evaluates in
epochs.  This module adds the missing systems lens: an analytic timing
model that converts per-client payloads and training work into round
wall-clock, so methods can be compared on *time-to-accuracy*.

Model (synchronous FL):

* a client's round time = download/bandwidth + train_work/compute +
  upload/bandwidth;
* a round completes when its slowest selected client finishes;
* per-client bandwidth and compute are drawn log-normally (the standard
  heavy-tailed device model) and fixed for the whole run.

The punchline the example/bench shows: under All Large every round
waits for a slow device moving the *largest* model; HeteFedRec's small
clients move small payloads, cutting the straggler tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np


#: Scalar size on the wire, bytes (float32).
BYTES_PER_SCALAR = 4
#: Every fleet's on-device training speed, examples/second: the median and
#: the log-normal shape of its spread.
MEDIAN_COMPUTE = 2000.0
COMPUTE_SIGMA = 0.75
#: What a simulated client trains per round: the paper's local epochs
#: (Section V-D) on a model with the default ``(8, 8)`` head widths.
LOCAL_EPOCHS = 4
HIDDEN = (8, 8)
#: Aggregation rounds per training epoch in :func:`time_to_accuracy`.
ROUNDS_PER_EPOCH = 1


@dataclass
class SystemProfile:
    """Device population parameters.

    Bandwidths are in bytes/second, compute in training-examples/second;
    ``*_sigma`` are the log-normal shape parameters (0 = homogeneous
    fleet).  Defaults sketch a mid-range mobile population: ~2 MB/s
    median uplink, ~2000 examples/s median on-device training
    (``MEDIAN_COMPUTE`` / ``COMPUTE_SIGMA``).
    """

    median_bandwidth: float = 2e6
    bandwidth_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.median_bandwidth <= 0:
            raise ValueError("median_bandwidth must be positive")
        if self.bandwidth_sigma < 0:
            raise ValueError("bandwidth_sigma must be non-negative")

    def sample_devices(self, user_ids: Sequence[int]) -> Dict[int, "Device"]:
        """One fixed (bandwidth, compute) pair per user, seeded per user."""
        devices = {}
        for user_id in user_ids:
            rng = np.random.default_rng((self.seed, int(user_id)))
            bandwidth = self.median_bandwidth * float(
                np.exp(rng.normal(0.0, self.bandwidth_sigma))
            )
            compute = MEDIAN_COMPUTE * float(np.exp(rng.normal(0.0, COMPUTE_SIGMA)))
            devices[int(user_id)] = Device(bandwidth=bandwidth, compute=compute)
        return devices


@dataclass
class Device:
    """One client's fixed capabilities."""

    bandwidth: float
    compute: float


def client_round_time(
    device: Device,
    payload_scalars: float,
    train_examples: int,
    local_epochs: int = 1,
) -> float:
    """Seconds for one client's full round (down + train + up)."""
    transfer = 2.0 * payload_scalars * BYTES_PER_SCALAR / device.bandwidth
    train = train_examples * local_epochs / device.compute
    return transfer + train


def payload_for(
    method: str,
    group: str,
    num_items: int,
    dims: Mapping[str, int],
    hidden: Sequence[int] = (8, 8),
) -> float:
    """Scalars a client of ``group`` moves per direction under ``method``.

    ``method`` ∈ {'all_small', 'all_large', 'hetefedrec'} — the Table III
    menu (see :func:`repro.federated.communication.transmission_cost`).
    """
    from repro.federated.communication import transmission_cost

    return float(transmission_cost(method, group, num_items, dims, hidden))


def simulate_round_times(
    method: str,
    group_of: Mapping[int, str],
    train_sizes: Mapping[int, int],
    num_items: int,
    dims: Mapping[str, int],
    profile: SystemProfile,
    clients_per_round: int = 256,
    num_rounds: int = 50,
) -> np.ndarray:
    """Wall-clock seconds of ``num_rounds`` synchronous rounds.

    Each round samples ``clients_per_round`` clients uniformly and
    completes at the slowest one; every client trains ``LOCAL_EPOCHS``
    local epochs of a model with ``HIDDEN`` head widths.  Returns the
    per-round times, from which time-to-accuracy curves and tail
    statistics follow.
    """
    user_ids = sorted(group_of)
    devices = profile.sample_devices(user_ids)
    rng = np.random.default_rng(profile.seed + 1)
    payloads = {
        group: payload_for(method, group, num_items, dims, HIDDEN)
        for group in set(group_of.values())
    }
    # Per-client round time is round-independent; precompute it once.
    per_client = {
        user_id: client_round_time(
            devices[user_id],
            payloads[group_of[user_id]],
            train_examples=int(train_sizes.get(user_id, 1)) * 5,  # 1:4 negatives
            local_epochs=LOCAL_EPOCHS,
        )
        for user_id in user_ids
    }

    times = np.zeros(num_rounds, dtype=np.float64)
    take = min(clients_per_round, len(user_ids))
    for round_index in range(num_rounds):
        chosen = rng.choice(user_ids, size=take, replace=False)
        times[round_index] = max(per_client[int(user_id)] for user_id in chosen)
    return times


def time_to_accuracy(
    ndcg_curve: Sequence[Tuple[int, float]],
    round_times: np.ndarray,
) -> List[Tuple[float, float]]:
    """Map an (epoch, NDCG) curve onto cumulative wall-clock seconds,
    ``ROUNDS_PER_EPOCH`` rounds an epoch.

    ``round_times`` cycles if shorter than the needed horizon (the model
    is stationary, so re-sampling and cycling are equivalent).
    """
    if len(round_times) == 0:
        raise ValueError("round_times is empty")
    curve: List[Tuple[float, float]] = []
    for epoch, ndcg in ndcg_curve:
        rounds_needed = int(epoch) * ROUNDS_PER_EPOCH
        full_cycles, rest = divmod(rounds_needed, len(round_times))
        seconds = full_cycles * float(round_times.sum()) + float(
            round_times[:rest].sum()
        )
        curve.append((seconds, float(ndcg)))
    return curve


def round_time_summary(times: np.ndarray) -> Dict[str, float]:
    """Mean / median / p95 round seconds — the straggler-tail picture."""
    if times.size == 0:
        return {"mean": 0.0, "median": 0.0, "p95": 0.0}
    return {
        "mean": float(times.mean()),
        "median": float(np.median(times)),
        "p95": float(np.percentile(times, 95)),
    }
