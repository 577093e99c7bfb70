"""Update payloads: what a client uploads to the server.

A :class:`ClientUpdate` carries the client's item-embedding delta and the
deltas of every predictor head it trained this round, plus enough
metadata for the server to aggregate and account communication.  Deltas
(post-training minus pre-training values) stand in for the accumulated
``-lr·∇`` of the paper's Eq. 4: with one local gradient step they are
identical, and with several they are the standard FedAvg generalisation.

Sparse embedding deltas
-----------------------
A client's local session only ever moves the item rows its batches (and,
under DDR, its sampled regulariser rows) touch — a few hundred rows out
of a catalogue of thousands.  :class:`SparseRowDelta` is the row-indexed
encoding of that fact: the sorted unique touched row ids plus a
``(len(rows), width)`` value block.  Emitting, uploading and aggregating
updates is then O(touched rows), not O(catalogue), and ``upload_size``
reports the true wire cost ``len(rows) * (1 + width)`` (each row ships
its id plus ``width`` values).

One upload format: ``ClientUpdate.embedding_delta`` is *always* a
:class:`SparseRowDelta`.  The constructor is the single door — a 2-D
``ndarray`` (hand-built updates, the standalone ``(0, 0)`` placeholder,
synthetic per-group sums, checkpoints that stored a dense block) is
encoded once by ``SparseRowDelta.from_dense`` — so no consumer
dispatches on the encoding.

Contract for consumers: the hot aggregation paths (padded/secure
aggregation, privacy protection, availability merging, compression)
operate on ``rows``/``values`` directly and never materialise the full
table.  ``dense()`` — also reachable implicitly through ``__array__`` —
is the escape hatch for genuinely dense consumers (per-row robust
statistics over aligned client stacks, diagnostics, tests); anything on
a per-client per-round path should not call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

import numpy as np


def state_delta(
    after: Mapping[str, np.ndarray], before: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Elementwise ``after - before`` over aligned state dicts."""
    if set(after) != set(before):
        raise KeyError("state dicts do not describe the same parameters")
    return {name: after[name] - before[name] for name in after}


def state_size(state: Mapping[str, np.ndarray]) -> int:
    """Number of scalar parameters in a state dict (communication unit)."""
    return int(sum(array.size for array in state.values()))


def touched_rows(values: np.ndarray) -> np.ndarray:
    """Indices of rows with any non-zero entry (an upload's support).

    The single definition of "touched" shared by every sparse/dense
    consumer — works on full dense tables and on sparse value blocks
    alike (for a :class:`SparseRowDelta`, apply it to ``.values`` and map
    the result through ``.rows``).
    """
    return np.flatnonzero(np.abs(values).sum(axis=1) > 0)


@dataclass
class SparseRowDelta:
    """A row-sparse ``(num_rows, width)`` delta: only touched rows exist.

    ``rows`` must be sorted, unique row indices into the logical dense
    table; ``values`` holds the corresponding ``(len(rows), width)``
    block.  Every row is implicitly zero elsewhere, so densifying and
    operating dense is always *numerically identical* to operating on the
    sparse form (IEEE ``x + 0.0 == x`` for the nonzero rows kept here).
    """

    num_rows: int
    rows: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or self.values.shape[0] != self.rows.size:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{self.rows.size} rows"
            )
        if self.rows.size:
            if self.rows[0] < 0 or self.rows[-1] >= self.num_rows:
                raise ValueError("row indices out of range")
            if np.any(np.diff(self.rows) <= 0):
                raise ValueError("rows must be sorted and unique")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, delta: np.ndarray) -> "SparseRowDelta":
        """Encode a dense delta by its nonzero rows (exact round-trip)."""
        delta = np.asarray(delta)
        rows = touched_rows(delta)
        return cls(delta.shape[0], rows, delta[rows].copy())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """The logical dense shape ``(num_rows, width)``."""
        return (self.num_rows, self.values.shape[1])

    @property
    def width(self) -> int:
        return int(self.values.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def wire_size(self) -> float:
        """Scalar-equivalents on the wire: each row ships id + values."""
        return float(self.rows.size * (1 + self.width))

    # ------------------------------------------------------------------
    # Materialisation (the escape hatch — see module docstring)
    # ------------------------------------------------------------------
    def dense(self) -> np.ndarray:
        full = np.zeros((self.num_rows, self.width), dtype=self.values.dtype)
        full[self.rows] = self.values
        return full

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.dense()
        return out.astype(dtype) if dtype is not None else out

    def copy(self) -> "SparseRowDelta":
        return SparseRowDelta(self.num_rows, self.rows.copy(), self.values.copy())

    # ------------------------------------------------------------------
    # Arithmetic (sparse-preserving)
    # ------------------------------------------------------------------
    def __mul__(self, factor: float) -> "SparseRowDelta":
        # Promote explicitly: python scalars stay "weak" (a float32 delta
        # scaled by 0.5 stays float32) but a typed float64 operand must
        # win, on every numpy version, not just under NEP 50.
        dtype = np.result_type(self.values.dtype, factor)
        return SparseRowDelta(
            self.num_rows,
            self.rows.copy(),
            self.values.astype(dtype, copy=False) * factor,
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, SparseRowDelta):
            if self.shape != other.shape:
                raise ValueError(
                    f"cannot add deltas of shapes {self.shape} and {other.shape}"
                )
            rows = np.union1d(self.rows, other.rows)
            values = np.zeros(
                (rows.size, self.width),
                dtype=np.result_type(self.values.dtype, other.values.dtype),
            )
            values[np.searchsorted(rows, self.rows)] = self.values
            values[np.searchsorted(rows, other.rows)] += other.values
            return SparseRowDelta(self.num_rows, rows, values)
        if isinstance(other, (int, float)) and other == 0:
            return self.copy()  # lets plain sum(...) start from 0
        raise TypeError(
            "SparseRowDelta adds only to another SparseRowDelta (or the "
            f"literal 0), not {type(other).__name__}; call dense() to "
            "materialise explicitly"
        )

    __radd__ = __add__

    def __len__(self) -> int:
        return self.num_rows


@dataclass
class ClientUpdate:
    """One client's upload for one round.

    ``embedding_delta`` is a :class:`SparseRowDelta`; a 2-D ``ndarray``
    passed to the constructor is encoded by its nonzero rows.
    """

    user_id: int
    group: str
    embedding_delta: SparseRowDelta
    head_deltas: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    num_examples: int = 0
    train_loss: float = 0.0
    #: Wire cost in scalar-equivalents when the upload was compressed;
    #: ``None`` means the uncompressed size applies.  See
    #: :mod:`repro.compression`.
    upload_size_override: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.embedding_delta, SparseRowDelta):
            dense = np.asarray(self.embedding_delta)
            if dense.ndim != 2:
                raise ValueError(
                    "embedding_delta must be a SparseRowDelta or a 2-D "
                    f"array, got shape {dense.shape}"
                )
            self.embedding_delta = SparseRowDelta.from_dense(dense)

    @property
    def upload_size(self) -> float:
        """Scalar count of the upload (drives Table III accounting).

        The embedding block charges the true wire cost
        ``len(rows) * (1 + d)``.
        """
        if self.upload_size_override is not None:
            return float(self.upload_size_override)
        total = self.embedding_delta.wire_size
        for head in self.head_deltas.values():
            total += state_size(head)
        return float(total)

    def scaled(self, factor: float) -> "ClientUpdate":
        """Return a copy with all deltas multiplied by ``factor``."""
        return replace(
            self,
            embedding_delta=self.embedding_delta * factor,
            head_deltas={
                group: {name: array * factor for name, array in head.items()}
                for group, head in self.head_deltas.items()
            },
        )
