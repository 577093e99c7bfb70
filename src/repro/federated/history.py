"""Per-epoch training history (the data behind Fig. 7).

Each epoch record stores the mean local training loss and, when an
evaluation ran that epoch, the global Recall@K / NDCG@K.  ``best_epoch``
and convergence queries support the RQ2 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    recall: Optional[float] = None
    ndcg: Optional[float] = None
    #: Cumulative differential-privacy budget spent by the end of this
    #: epoch (``None`` when the clipped-noise mechanism is off); see
    #: :mod:`repro.federated.accounting`.
    epsilon: Optional[float] = None
    delta: Optional[float] = None


@dataclass
class TrainingHistory:
    """Append-only log of epoch records for one training run."""

    records: List[EpochRecord] = field(default_factory=list)

    def log(self, epoch: int, train_loss: float,
            recall: Optional[float] = None, ndcg: Optional[float] = None,
            epsilon: Optional[float] = None,
            delta: Optional[float] = None) -> None:
        self.records.append(
            EpochRecord(epoch, train_loss, recall, ndcg, epsilon, delta)
        )

    def privacy_curve(self) -> List[tuple]:
        """``[(epoch, epsilon), ...]`` — the accountant's loss curve."""
        return [(r.epoch, r.epsilon) for r in self.records if r.epsilon is not None]

    def evaluated(self) -> List[EpochRecord]:
        """Records that include an evaluation."""
        return [r for r in self.records if r.ndcg is not None]

    def ndcg_curve(self) -> List[tuple]:
        """``[(epoch, ndcg), ...]`` — one series of Fig. 7."""
        return [(r.epoch, r.ndcg) for r in self.evaluated()]

    def best_epoch(self) -> Optional[EpochRecord]:
        """Record with the highest NDCG (ties: earliest)."""
        evaluated = self.evaluated()
        if not evaluated:
            return None
        return max(evaluated, key=lambda r: (r.ndcg, -r.epoch))

    def epochs_to_reach(self, ndcg_threshold: float) -> Optional[int]:
        """First epoch whose NDCG reaches ``ndcg_threshold`` (RQ2), or None."""
        for record in self.evaluated():
            if record.ndcg >= ndcg_threshold:
                return record.epoch
        return None

    def final(self) -> Optional[EpochRecord]:
        evaluated = self.evaluated()
        return evaluated[-1] if evaluated else None

    def export_records(self) -> List[dict]:
        """JSON-serialisable list of all epoch records (checkpointing)."""
        return [
            {
                "epoch": r.epoch,
                "train_loss": r.train_loss,
                "recall": r.recall,
                "ndcg": r.ndcg,
                "epsilon": r.epsilon,
                "delta": r.delta,
            }
            for r in self.records
        ]

    def restore_records(self, payload: List[dict]) -> None:
        """Replace the log with checkpointed records."""
        self.records = [
            EpochRecord(
                epoch=int(r["epoch"]),
                train_loss=float(r["train_loss"]),
                recall=None if r["recall"] is None else float(r["recall"]),
                ndcg=None if r["ndcg"] is None else float(r["ndcg"]),
                epsilon=None if r["epsilon"] is None else float(r["epsilon"]),
                delta=None if r["delta"] is None else float(r["delta"]),
            )
            for r in payload
        ]
