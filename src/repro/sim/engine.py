"""Discrete-event core: the queue and the client-behaviour models.

Determinism contract
--------------------
Every random draw in a simulation comes from a :class:`numpy.random.Generator`
owned by exactly one model, and all of them are spawned from the one
scenario seed via :class:`numpy.random.SeedSequence` — independent
streams, no hidden global state, no draw-order coupling between models.
Event ties (same timestamp) break on a monotonically increasing sequence
number, so the processing order — and therefore every downstream draw —
is a pure function of the configuration.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.config import (
    ArrivalModelConfig,
    DropoutModelConfig,
    LatencyModelConfig,
    SimulationConfig,
)

#: Event kinds, in the order they should sort when timestamps tie is
#: irrelevant — ordering is (time, seq) only; kinds are labels.
DISPATCH, UPLOAD, DEADLINE = "dispatch", "upload", "deadline"


@dataclass(order=True)
class Event:
    """One scheduled occurrence; orders by ``(time, seq)`` only."""

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: dict = field(compare=False, default_factory=dict)


class EventQueue:
    """A seeded-deterministic priority queue of :class:`Event`."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def push(self, time: float, kind: str, **payload) -> Event:
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule an event at t={time}")
        event = Event(float(time), next(self._seq), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        self.events_processed += 1
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def spawn_streams(seed: int, names: Sequence[str]) -> Dict[str, np.random.Generator]:
    """Named independent generator streams derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {
        name: np.random.default_rng(child) for name, child in zip(names, children)
    }


class LatencyModel:
    """Per-attempt upload latency, drawn from an owned stream."""

    def __init__(self, config: LatencyModelConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng

    def sample(self) -> float:
        cfg = self.config
        if cfg.kind == "zero":
            return 0.0
        if cfg.kind == "fixed":
            return cfg.scale
        if cfg.kind == "lognormal":
            # Median ≈ scale; sigma controls the tail.
            return float(cfg.scale * self._rng.lognormal(0.0, cfg.sigma))
        # Pareto with minimum `scale` and tail index `alpha`: classic
        # heavy-tailed straggler distribution (finite mean, alpha > 1).
        return float(cfg.scale * (1.0 + self._rng.pareto(cfg.alpha)))


class DropoutModel:
    """Upload drops and flapping availability, from an owned stream.

    ``bernoulli`` drops each attempt independently; ``markov`` keeps a
    two-state availability chain per client that is advanced exactly
    once per dispatch check, so the stream consumption is a function of
    the (deterministic) event order.
    """

    def __init__(self, config: DropoutModelConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self._available: Dict[int, bool] = {}

    def check_available(self, user_id: int) -> bool:
        """Advance the client's availability chain; True = may dispatch."""
        if self.config.kind != "markov":
            return True
        state = self._available.get(user_id, True)
        if state:
            state = self._rng.random() >= self.config.p_fail
        else:
            state = self._rng.random() < self.config.p_recover
        self._available[user_id] = state
        return state

    def upload_drops(self) -> bool:
        """Whether this upload attempt dies mid-flight."""
        if self.config.kind == "none" or self.config.rate == 0.0:
            return False
        return self._rng.random() < self.config.rate


class ArrivalModel:
    """Assigns arrival times to one epoch's participation queue.

    Returns cohorts — ``(time, [user_ids])`` — because simultaneous
    arrivals must train as one batch (the vectorized engine's round
    semantics; also what makes the zero-fault configuration reproduce
    the synchronous trainer bitwise).
    """

    def __init__(self, config: ArrivalModelConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng

    def schedule(
        self, epoch_start: float, cohorts: Sequence[Sequence[int]]
    ) -> List[Tuple[float, List[int]]]:
        cfg = self.config
        if cfg.kind == "rounds":
            return [
                (epoch_start + float(index), [int(u) for u in cohort])
                for index, cohort in enumerate(cohorts)
                if len(cohort)
            ]
        queue = [int(u) for cohort in cohorts for u in cohort]
        if not queue:
            return []
        # diurnal: one singleton cohort per client, in queue order.
        times = epoch_start + self._diurnal_times(len(queue))
        return [(float(t), [user]) for t, user in zip(times, queue)]

    def _diurnal_times(self, count: int) -> np.ndarray:
        """Sorted arrival offsets over one period, sinusoidal intensity.

        Inverse-transform-free: rejection-sample uniforms against
        ``λ(t) = 1 + amplitude·sin(2πt/period)`` (bounded by
        ``1 + amplitude``), then sort — order statistics of the diurnal
        density.  Queue order is preserved by assigning sorted times to
        queue positions in order.
        """
        cfg = self.config
        accepted: List[np.ndarray] = []
        need = count
        while need > 0:
            draw = max(need * 2, 64)
            t = self._rng.uniform(0.0, cfg.period, size=draw)
            u = self._rng.uniform(0.0, 1.0 + cfg.amplitude, size=draw)
            keep = t[u <= 1.0 + cfg.amplitude * np.sin(2.0 * np.pi * t / cfg.period)]
            accepted.append(keep[:need])
            need -= min(need, keep.size)
        return np.sort(np.concatenate(accepted))


class SimStreams:
    """The full set of owned RNG streams one simulation consumes."""

    # "secure" (fault draws for the secure-aggregation protocol) is
    # appended LAST: SeedSequence.spawn children are prefix-stable, so
    # every pre-existing stream keeps its exact draw sequence.
    NAMES = (
        "arrival", "latency", "dropout", "duplicate", "attack", "population",
        "secure",
    )

    def __init__(self, seed: int) -> None:
        streams = spawn_streams(seed, self.NAMES)
        self.arrival = streams["arrival"]
        self.latency = streams["latency"]
        self.dropout = streams["dropout"]
        self.duplicate = streams["duplicate"]
        self.attack = streams["attack"]
        self.population = streams["population"]
        self.secure = streams["secure"]


def build_models(
    config: SimulationConfig, streams: Optional[SimStreams] = None
) -> Tuple[SimStreams, ArrivalModel, LatencyModel, DropoutModel]:
    """Wire the three behaviour models to their owned streams."""
    streams = streams or SimStreams(config.seed)
    return (
        streams,
        ArrivalModel(config.arrival, streams.arrival),
        LatencyModel(config.latency, streams.latency),
        DropoutModel(config.dropout, streams.dropout),
    )
