"""Secure-aggregation building blocks: codec, mask PRG, flat wire layout.

The paper's privacy argument rests on the server only ever needing the
*sum* of client updates (Eq. 4/8/15).  Secure aggregation (Bonawitz et
al., CCS 2017) realises that argument cryptographically: every pair of
clients agrees on a mask; one adds it, the other subtracts it, so each
individual upload looks uniformly random to the server while the sum of
all uploads is exact.  The protocol itself — key agreement, Shamir
shares, double masking, dropout recovery — is
:mod:`repro.federated.secure_protocol`, the one path every trainer and
simulator round takes; this module holds the pieces it is built from:

* **Fixed-point field encoding** — updates are quantised to integers and
  all arithmetic happens modulo 2^64 (:class:`FixedPointCodec`), so mask
  cancellation is *exact*, not approximate.
* **The mask PRG** — :func:`pairwise_mask` expands a seed and a round id
  into a uniform field vector (pairwise masks from the DH-agreed pair
  seed, self-masks from the client's own seed).
* **The flat wire layout** — heterogeneous uploads are packed into one
  maskable vector: embedding deltas zero-padded to the widest dimension
  *before* masking, so the masked sum is exactly the padded sum of
  Eq. 8 and the per-group prefixes slice out as usual, followed by the
  per-head blocks of Eq. 15.

Enable on a trainer by setting ``FederatedConfig.secure_aggregation`` to
a :class:`SecureAggregationConfig`; the trainer then routes every round
through :func:`repro.federated.secure_protocol.run_secure_round` instead
of summing raw deltas.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.federated.payload import ClientUpdate

_FIELD_DTYPE = np.uint64


@dataclass
class SecureAggregationConfig:
    """Parameters of the secure-aggregation protocol.

    ``precision_bits``:
        Fractional bits of the fixed-point encoding; 24 bits keeps
        quantisation error below 1e-7 per scalar.
    ``clip_range``:
        Symmetric clamp applied to every scalar before encoding.  The
        field has 64 bits, so the head-room for summation is
        ``2^63 / (clip_range · 2^precision_bits)`` clients — over 500
        at the defaults, far beyond the paper's 256 per round.
    ``seed``:
        Root secret from which every client's per-round key material
        derives (stands in for the clients' long-term keys).
    ``threshold_fraction``:
        Minimum fraction of the invited participants that must survive
        every phase of the full protocol
        (:mod:`repro.federated.secure_protocol`); rounds falling below
        ``max(1, ceil(threshold_fraction · n))`` survivors abort into
        the availability path instead of unmasking.
    """

    precision_bits: int = 24
    clip_range: float = 64.0
    seed: int = 0
    threshold_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 1 <= self.precision_bits <= 40:
            raise ValueError(f"precision_bits must be in [1, 40], got {self.precision_bits}")
        if self.clip_range <= 0:
            raise ValueError(f"clip_range must be positive, got {self.clip_range}")
        if not 0 < self.threshold_fraction <= 1:
            raise ValueError(
                f"threshold_fraction must be in (0, 1], got {self.threshold_fraction}"
            )


class FixedPointCodec:
    """Reversible float ↔ 64-bit field encoding with two's-complement sign.

    ``encode`` maps a float array to ``round(clip(x) · 2^f) mod 2^64``;
    ``decode`` inverts it, interpreting values above 2^63 as negative.
    Addition in the field corresponds to addition of the encoded reals as
    long as the true sum stays within ``±2^63 / 2^f``.

    Scalars outside ``±clip_range`` saturate at the clamp — the decoded
    sum is then silently smaller than the true sum.  ``encode`` counts
    them (``saturated_total`` accumulates across calls) and warns once,
    so a mis-sized ``clip_range`` shows up in the meter and the console
    instead of corrupting Table II numbers invisibly.
    """

    def __init__(self, precision_bits: int = 24, clip_range: float = 64.0) -> None:
        self.precision_bits = precision_bits
        self.clip_range = clip_range
        self.scale = float(2**precision_bits)
        self.saturated_total = 0

    def encode(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        clipped = np.clip(values, -self.clip_range, self.clip_range)
        saturated = int(np.count_nonzero(values != clipped))
        if saturated:
            self.saturated_total += saturated
            warnings.warn(
                f"fixed-point encoding saturated {saturated} scalar(s) at "
                f"clip_range={self.clip_range}; the decoded sum under-counts "
                "these coordinates (raise clip_range or shrink updates)",
                RuntimeWarning,
                stacklevel=2,
            )
        fixed = np.rint(clipped * self.scale).astype(np.int64)
        return fixed.view(_FIELD_DTYPE)

    def decode(self, field_values: np.ndarray) -> np.ndarray:
        signed = field_values.astype(_FIELD_DTYPE).view(np.int64)
        return signed.astype(np.float64) / self.scale

    def quantisation_error_bound(self) -> float:
        """Worst-case absolute error per encoded scalar."""
        return 0.5 / self.scale


def pairwise_mask(pair_seed: int, round_id: int, size: int) -> np.ndarray:
    """The uniform field mask one seed expands to in one round."""
    rng = np.random.default_rng((pair_seed, int(round_id)))
    return rng.integers(0, 2**64, size=size, dtype=_FIELD_DTYPE)


# ----------------------------------------------------------------------
# Flattening heterogeneous uploads into one maskable vector
# ----------------------------------------------------------------------
@dataclass
class _Layout:
    """Where each logical block lives inside the flat masked vector."""

    embedding_rows: int
    embedding_width: int
    head_slots: List[Tuple[str, str, Tuple[int, ...]]]
    total: int


def _round_layout(
    updates: Sequence[ClientUpdate], dims: Mapping[str, int]
) -> _Layout:
    widest = max(dims.values())
    rows = updates[0].embedding_delta.shape[0]
    head_slots: List[Tuple[str, str, Tuple[int, ...]]] = []
    seen = set()
    for update in updates:
        for head_group in sorted(update.head_deltas):
            for name in sorted(update.head_deltas[head_group]):
                key = (head_group, name)
                if key in seen:
                    continue
                seen.add(key)
                shape = tuple(update.head_deltas[head_group][name].shape)
                head_slots.append((head_group, name, shape))
    head_slots.sort()
    total = rows * widest + sum(int(np.prod(shape)) for _, _, shape in head_slots)
    return _Layout(rows, widest, head_slots, total)


def _flatten_update(update: ClientUpdate, layout: _Layout) -> np.ndarray:
    """Pad-and-pack one upload into the round's flat vector format.

    Blocks the client did not train (wider embedding columns, heads of
    larger groups) are zero, so the masked sum equals the padded sum of
    Eq. 8 plus the per-head sums of Eq. 15.

    The delta's touched rows scatter into the (unavoidably dense)
    masked vector directly — masking needs every coordinate, so the flat
    vector is the one place the full catalogue extent appears.
    """
    flat = np.zeros(layout.total, dtype=np.float64)
    cursor = layout.embedding_rows * layout.embedding_width
    delta = update.embedding_delta
    block = flat[:cursor].reshape(layout.embedding_rows, layout.embedding_width)
    block[delta.rows, : delta.width] = delta.values
    for head_group, name, shape in layout.head_slots:
        size = int(np.prod(shape))
        if head_group in update.head_deltas and name in update.head_deltas[head_group]:
            flat[cursor : cursor + size] = update.head_deltas[head_group][name].ravel()
        cursor += size
    return flat


def _unflatten_sum(
    vector: np.ndarray, layout: _Layout, dims: Mapping[str, int]
) -> Tuple[Dict[str, np.ndarray], Dict[str, Dict[str, np.ndarray]]]:
    cursor = layout.embedding_rows * layout.embedding_width
    padded = vector[:cursor].reshape(layout.embedding_rows, layout.embedding_width)
    embeddings = {group: padded[:, :width].copy() for group, width in dims.items()}
    heads: Dict[str, Dict[str, np.ndarray]] = {}
    for head_group, name, shape in layout.head_slots:
        size = int(np.prod(shape))
        block = vector[cursor : cursor + size].reshape(shape).copy()
        heads.setdefault(head_group, {})[name] = block
        cursor += size
    return embeddings, heads
