"""Secure-aggregation building blocks: codec, mask PRG, nested wire layout.

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
* **The mask PRG** — :class:`MaskPRG` expands a seed into a uniform
  field vector for one round (pairwise masks from the DH-agreed pair
  seed, self-masks from the client's own seed).
* **The nested wire layout** — the round's flat vector is a chain of
  segments, narrowest group first::

      [columns 0..d_s | heads s][columns d_s..d_m | heads m][columns d_m..d_l | heads l]

  A client's vector is the *prefix* that ends at its own group's
  segment, so a small client encodes, masks and uploads a small
  model's worth of scalars and nothing is zero-padded.  The nesting is
  Eq. 8's (small ⊂ medium ⊂ large embedding columns; a client trains
  the heads of every group up to its own), so adding each survivor
  into ``total[:len]`` is exactly the padded sum of Eq. 8 plus the
  per-head sums of Eq. 15 — the coordinates a short vector leaves out
  were ``encode(0) = 0``.  Lengths are public: the server assigned the
  model sizes.

Enable on a trainer by setting ``FederatedConfig.secure_aggregation`` to
a :class:`SecureAggregationConfig`; the trainer then routes every round
through :func:`repro.federated.secure_protocol.run_secure_round` instead
of summing raw deltas.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.federated.payload import ClientUpdate

_FIELD_DTYPE = np.uint64


@dataclass
class SecureAggregationConfig:
    """Parameters of the secure-aggregation protocol.

    ``seed``:
        Root secret from which every client's per-round key material
        derives (stands in for the clients' long-term keys).

    The fixed-point encoding (``PRECISION_BITS``, ``CLIP_RANGE``) and the
    survival threshold (``secure_protocol.THRESHOLD_FRACTION``) are
    module constants.
    """

    seed: int = 0


#: Fractional bits of the fixed-point encoding; 24 bits keeps
#: quantisation error below 1e-7 per scalar.
PRECISION_BITS = 24
#: Symmetric clamp applied to every scalar before encoding.  The field has
#: 64 bits, so the head-room for summation is
#: ``2^63 / (CLIP_RANGE · 2^PRECISION_BITS)`` clients — over 500, far
#: beyond the paper's 256 per round.
CLIP_RANGE = 64.0


class FixedPointCodec:
    """Reversible float ↔ 64-bit field encoding with two's-complement sign.

    ``encode`` maps a float array to ``round(clip(x) · 2^f) mod 2^64``;
    ``decode`` inverts it, interpreting values above 2^63 as negative.
    Addition in the field corresponds to addition of the encoded reals as
    long as the true sum stays within ``±2^63 / 2^f``.

    Scalars outside ``±CLIP_RANGE`` saturate at the clamp — the decoded
    sum is then silently smaller than the true sum.  ``encode`` counts
    them (``saturated_total`` accumulates across calls) and warns once,
    so a mis-sized ``CLIP_RANGE`` shows up in the meter and the console
    instead of corrupting Table II numbers invisibly.  A codec reads
    ``PRECISION_BITS`` and ``CLIP_RANGE`` when it is built.
    """

    def __init__(self) -> None:
        self.clip_range = CLIP_RANGE
        self.scale = float(2**PRECISION_BITS)
        self.saturated_total = 0

    def encode(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        clipped = np.clip(values, -self.clip_range, self.clip_range)
        saturated = int(np.count_nonzero(values != clipped))
        if saturated:
            self.saturated_total += saturated
            warnings.warn(
                f"fixed-point encoding saturated {saturated} scalar(s) at "
                f"clip range {self.clip_range}; the decoded sum under-counts "
                "these coordinates (raise CLIP_RANGE or shrink updates)",
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


class MaskPRG:
    """One protocol endpoint's mask expander for one round.

    ``expand(seed, size)`` is the uniform field mask ``seed`` stands for
    in this round (pairwise masks from the DH-agreed pair seed,
    self-masks from the client's own seed).  The endpoint owns a single
    PCG64 and re-keys it per seed from a SHA-256 of ``(seed, round)`` —
    a pair of ~10⁴-word masks is too short to amortise a fresh
    ``SeedSequence`` per call.  A shorter mask is a prefix of a longer
    one from the same seed, which is what lets a pair of unequal clients
    mask only their common prefix.
    """

    def __init__(self, round_id: int) -> None:
        self._round_id = int(round_id)
        self._bits = np.random.PCG64(0)

    def expand(self, seed: int, size: int) -> np.ndarray:
        digest = hashlib.sha256(f"mask:{seed}:{self._round_id}".encode()).digest()
        self._bits.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": int.from_bytes(digest[:16], "little"),
                "inc": int.from_bytes(digest[16:], "little") | 1,
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._bits.random_raw(size)


# ----------------------------------------------------------------------
# Flattening heterogeneous uploads into nested maskable vectors
# ----------------------------------------------------------------------
@dataclass
class _Layout:
    """Where each logical block lives inside the round's flat vector.

    Nested segments, narrowest group first: segment ``k`` holds embedding
    columns ``edges[k]..edges[k + 1]`` of every row, then the heads of
    ``groups[k]``.  A client's vector is the prefix ``[:ends[k]]`` that
    stops at the last segment its upload reaches.
    """

    embedding_rows: int
    groups: List[str]
    edges: List[int]
    head_slots: List[List[Tuple[str, Tuple[int, ...]]]]
    ends: List[int]

    @property
    def total(self) -> int:
        return self.ends[-1]

    def reach(self, update: ClientUpdate) -> int:
        """Index of the last segment ``update`` has a block in."""
        reach = self.edges.index(update.embedding_delta.width, 1) - 1
        for head_group in update.head_deltas:
            reach = max(reach, self.groups.index(head_group))
        return reach

    def length_of(self, update: ClientUpdate) -> int:
        """Flat length of ``update``'s own vector (public: sizes are assigned)."""
        return self.ends[self.reach(update)]


def _round_layout(
    updates: Sequence[ClientUpdate], dims: Mapping[str, int]
) -> _Layout:
    groups = sorted(dims, key=lambda group: dims[group])
    edges = [0] + [int(dims[group]) for group in groups]
    rows = updates[0].embedding_delta.num_rows
    slots: Dict[str, Dict[str, Tuple[int, ...]]] = {group: {} for group in groups}
    for update in updates:
        delta = update.embedding_delta
        if delta.num_rows != rows:
            raise ValueError(
                f"update of user {update.user_id} covers {delta.num_rows} "
                f"catalogue rows, the round covers {rows}"
            )
        if delta.width not in edges[1:]:
            raise ValueError(
                f"update of user {update.user_id} has embedding width "
                f"{delta.width}, the round's dims are {dict(dims)}"
            )
        for head_group, state in update.head_deltas.items():
            if head_group not in slots:
                raise ValueError(
                    f"update of user {update.user_id} carries head group "
                    f"{head_group!r}, the round's dims are {dict(dims)}"
                )
            for name, values in state.items():
                slots[head_group].setdefault(name, tuple(values.shape))
    head_slots = [sorted(slots[group].items()) for group in groups]
    ends, cursor = [], 0
    for k, group_slots in enumerate(head_slots):
        cursor += rows * (edges[k + 1] - edges[k])
        cursor += sum(int(np.prod(shape)) for _, shape in group_slots)
        ends.append(cursor)
    return _Layout(rows, groups, edges, head_slots, ends)


def _flatten_update(update: ClientUpdate, layout: _Layout) -> np.ndarray:
    """Pack one upload into its own prefix of the round's flat vector.

    The vector stops at the client's own segment, so nothing wider than
    its model is padded in; inside the prefix a head the client did not
    train is zero, and the masked sum equals the padded sum of Eq. 8
    plus the per-head sums of Eq. 15.

    The delta's touched rows scatter into the (unavoidably dense)
    masked vector directly — masking needs every coordinate, so the flat
    vector is the one place the full catalogue extent appears.
    """
    reach = layout.reach(update)
    flat = np.zeros(layout.ends[reach], dtype=np.float64)
    delta = update.embedding_delta
    cursor = 0
    for k in range(reach + 1):
        low, high = layout.edges[k], layout.edges[k + 1]
        size = layout.embedding_rows * (high - low)
        if low < delta.width:
            block = flat[cursor : cursor + size].reshape(
                layout.embedding_rows, high - low
            )
            block[delta.rows] = delta.values[:, low:high]
        cursor += size
        heads = update.head_deltas.get(layout.groups[k], {})
        for name, shape in layout.head_slots[k]:
            size = int(np.prod(shape))
            if name in heads:
                flat[cursor : cursor + size] = heads[name].ravel()
            cursor += size
    return flat


def _unflatten_sum(
    vector: np.ndarray, layout: _Layout, dims: Mapping[str, int]
) -> Tuple[Dict[str, np.ndarray], Dict[str, Dict[str, np.ndarray]]]:
    """Slice a decoded sum back into per-group tables and head states.

    ``vector`` may stop short of ``layout.total`` (no client of the
    widest groups was invited); the segments nobody reached are zero.
    """
    full = np.zeros(layout.total, dtype=vector.dtype)
    full[: vector.size] = vector
    blocks: List[np.ndarray] = []
    heads: Dict[str, Dict[str, np.ndarray]] = {}
    cursor = 0
    for k, group in enumerate(layout.groups):
        width = layout.edges[k + 1] - layout.edges[k]
        size = layout.embedding_rows * width
        blocks.append(
            full[cursor : cursor + size].reshape(layout.embedding_rows, width)
        )
        cursor += size
        for name, shape in layout.head_slots[k]:
            size = int(np.prod(shape))
            heads.setdefault(group, {})[name] = (
                full[cursor : cursor + size].reshape(shape).copy()
            )
            cursor += size
    padded = np.hstack(blocks)
    embeddings = {group: padded[:, :width].copy() for group, width in dims.items()}
    return embeddings, heads
