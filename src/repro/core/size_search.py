"""Successive-halving search over division ratios and model sizes.

The paper's conclusion names two open problems: HeteFedRec's performance
is sensitive to (a) the client-division ratio and (b) the per-group model
sizes, and leaves finding them to future work.  This module searches the
*joint* space (ratio × size grid) under a fixed epoch budget with
successive halving (Jamieson & Talwalkar, 2016): every candidate trains a
few epochs, the weaker half is dropped, the survivors train on — so the
budget concentrates on promising settings.  Trainers are stateful across
rungs (training *continues*, it does not restart), which is what makes
halving cheaper than the grid.  A one-rung halving
(``eta=len(candidates)``, ``epochs_per_rung`` = the pilot length) is the
plain grid of fixed-length pilot runs.

Every rung is scored by validation NDCG through one
``Evaluator(clients, k=k, split="valid")``: each client's 10 % validation
items are ranked with only its train items masked, so the search never
touches the test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.eval.evaluator import Evaluator

#: The paper's Table VI grid plus the homogeneous extremes.
DEFAULT_RATIO_CANDIDATES: Tuple[Tuple[float, float, float], ...] = (
    (5, 3, 2),
    (1, 1, 1),
    (2, 3, 5),
    (7, 2, 1),
)

#: The paper's Table VII grid.
DEFAULT_SIZE_CANDIDATES: Tuple[Dict[str, int], ...] = (
    {"s": 2, "m": 4, "l": 8},
    {"s": 8, "m": 16, "l": 32},
    {"s": 32, "m": 64, "l": 128},
)


@dataclass(frozen=True)
class Candidate:
    """One point of the joint search space."""

    ratios: Tuple[float, float, float]
    dims: Tuple[Tuple[str, int], ...]

    @classmethod
    def make(cls, ratios: Sequence[float], dims: Dict[str, int]) -> "Candidate":
        return cls(ratios=tuple(ratios), dims=tuple(sorted(dims.items())))

    def dims_dict(self) -> Dict[str, int]:
        return dict(self.dims)

    def describe(self) -> str:
        dims = self.dims_dict()
        order = sorted(dims, key=dims.get)  # narrowest group first
        sizes = "/".join(str(dims[group]) for group in order)
        ratios = ":".join(f"{r:g}" for r in self.ratios)
        return f"ratios {ratios}, dims {sizes}"


def default_candidate_grid() -> List[Candidate]:
    """The paper's Table VI × Table VII cross product."""
    return [
        Candidate.make(ratios, dims)
        for ratios in DEFAULT_RATIO_CANDIDATES
        for dims in DEFAULT_SIZE_CANDIDATES
    ]


#: The halving rate of :func:`successive_halving`: 1/ETA of a rung survives.
ETA = 2


def halving_schedule(num_candidates: int, eta: int = 2) -> List[int]:
    """Survivor counts per rung: n, ⌈n/η⌉, … down to 1.

    E.g. 12 candidates at η=2 → [12, 6, 3, 2, 1].
    """
    if num_candidates < 1:
        raise ValueError(f"need at least one candidate, got {num_candidates}")
    if eta < 2:
        raise ValueError(f"eta must be ≥ 2, got {eta}")
    counts = [num_candidates]
    while counts[-1] > 1:
        counts.append(max(int(np.ceil(counts[-1] / eta)), 1))
    return counts


@dataclass
class RungRecord:
    """What happened at one rung of the halving."""

    rung: int
    epochs_each: int
    scores: List[Tuple[Candidate, float]] = field(default_factory=list)

    def survivors(self, keep: int) -> List[Candidate]:
        ordered = sorted(self.scores, key=lambda pair: pair[1], reverse=True)
        return [candidate for candidate, _ in ordered[:keep]]


@dataclass
class HalvingResult:
    """Winner plus the full rung-by-rung audit trail."""

    best: Candidate
    rungs: List[RungRecord]
    total_epochs_trained: int

    def best_config(self, config: HeteFedRecConfig) -> HeteFedRecConfig:
        """The input config with the winning ratios/dims substituted."""
        return config.copy_with(
            ratios=self.best.ratios, dims=self.best.dims_dict()
        )


def successive_halving(
    num_items: int,
    clients: Sequence[ClientData],
    config: HeteFedRecConfig,
    candidates: Optional[Sequence[Candidate]] = None,
    epochs_per_rung: int = 1,
) -> HalvingResult:
    """Joint ratio/size search under successive halving.

    Every surviving candidate trains ``epochs_per_rung`` more epochs per
    rung; after scoring (validation NDCG@20), the top ``1/ETA`` fraction
    survives.  The
    returned audit trail records every (candidate, score) pair per rung.
    A candidate listed twice is rejected: it would name one trainer, so
    each rung would train and score it twice.
    """
    pool = list(candidates) if candidates is not None else default_candidate_grid()
    if not pool:
        raise ValueError("candidate pool is empty")
    if epochs_per_rung < 1:
        raise ValueError(f"epochs_per_rung must be ≥ 1, got {epochs_per_rung}")
    evaluator = Evaluator(clients, split="valid")

    trainers: Dict[Candidate, HeteFedRec] = {}
    for candidate in pool:
        if candidate in trainers:
            raise ValueError(f"candidate listed twice: {candidate.describe()}")
        run_config = config.copy_with(
            ratios=candidate.ratios, dims=candidate.dims_dict()
        )
        trainers[candidate] = HeteFedRec(num_items, clients, run_config)

    schedule = halving_schedule(len(pool), eta=ETA)
    alive = list(pool)
    rungs: List[RungRecord] = []
    total_epochs = 0
    epoch_cursor = 0

    for rung_index, keep_next in enumerate(schedule[1:] + [1]):
        if len(alive) == 1 and rungs:
            break
        record = RungRecord(rung=rung_index, epochs_each=epochs_per_rung)
        for candidate in alive:
            trainer = trainers[candidate]
            for offset in range(epochs_per_rung):
                trainer.run_epoch(epoch_cursor + offset + 1)
            total_epochs += epochs_per_rung
            score = trainer.evaluate_with(evaluator).ndcg
            record.scores.append((candidate, score))
        epoch_cursor += epochs_per_rung
        rungs.append(record)
        alive = record.survivors(keep_next)

    best = alive[0]
    return HalvingResult(best=best, rungs=rungs, total_epochs_trained=total_epochs)
