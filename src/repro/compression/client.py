"""Per-client compression state: residual error feedback over rounds.

A :class:`ClientCompressor` wraps one :class:`Compressor` with the
per-client residual memories error feedback needs.  The trainer calls
:meth:`apply` on every upload; the returned :class:`ClientUpdate` carries
the lossy reconstruction the server will aggregate and the true wire
cost in ``upload_size_override``.

Sparse embedding deltas are compressed over their ``(rows, width)``
value block only — the codec never sees (or pays for) the untouched
catalogue rows — and the wire cost charges the row-id list on top of the
codec payload.  Error-feedback residuals for sparse uploads are kept
sparse too, merged over the union of touched rows round to round.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from repro.compression.codecs import CompressionConfig, Compressor
from repro.federated.payload import ClientUpdate, SparseRowDelta, touched_rows


class ClientCompressor:
    """Compresses uploads, optionally with per-client error feedback."""

    def __init__(self, config: CompressionConfig) -> None:
        self.config = config
        self.codec = Compressor(config)
        #: (user_id, block_key) → residual carried into the next round;
        #: dense blocks carry dense arrays, sparse embedding deltas carry
        #: :class:`SparseRowDelta` residuals.
        self._residuals: Dict[Tuple[int, str], Union[np.ndarray, SparseRowDelta]] = {}

    def _compress_block(
        self, user_id: int, key: str, values: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        if self.config.error_feedback:
            residual_key = (user_id, key)
            carried = self._residuals.get(residual_key)
            if (
                isinstance(carried, np.ndarray)
                and carried.shape == values.shape
            ):
                values = values + carried
            compressed = self.codec.compress(values)
            self._residuals[residual_key] = values - compressed.dense()
            return compressed.dense(), compressed.payload_scalars
        compressed = self.codec.compress(values)
        return compressed.dense(), compressed.payload_scalars

    def _compress_sparse(
        self, user_id: int, delta: SparseRowDelta
    ) -> Tuple[SparseRowDelta, float]:
        """Compress a sparse delta's value block; cost adds the row ids."""
        rows, values = delta.rows, delta.values
        if self.config.error_feedback:
            residual_key = (user_id, "embedding")
            carried = self._residuals.get(residual_key)
            if isinstance(carried, SparseRowDelta) and carried.shape == delta.shape:
                merged = delta + carried
                rows, values = merged.rows, merged.values
            compressed = self.codec.compress(values)
            reconstruction = compressed.dense()
            residual = SparseRowDelta(delta.num_rows, rows, values - reconstruction)
            # Prune rows the codec reproduced exactly so the carried
            # support does not grow monotonically across rounds.
            keep = touched_rows(residual.values)
            self._residuals[residual_key] = SparseRowDelta(
                delta.num_rows, rows[keep], residual.values[keep]
            )
        else:
            compressed = self.codec.compress(values)
            reconstruction = compressed.dense()
        out = SparseRowDelta(delta.num_rows, rows.copy(), reconstruction)
        return out, compressed.payload_scalars + float(rows.size)

    def apply(self, update: ClientUpdate) -> ClientUpdate:
        """Return the update as the server will receive it over the wire."""
        embedding, cost = self._compress_sparse(
            update.user_id, update.embedding_delta
        )
        heads: Dict[str, Dict[str, np.ndarray]] = {}
        for head_group, state in update.head_deltas.items():
            compressed_state: Dict[str, np.ndarray] = {}
            for name, values in state.items():
                block, block_cost = self._compress_block(
                    update.user_id, f"head:{head_group}:{name}", values
                )
                compressed_state[name] = block
                cost += block_cost
            heads[head_group] = compressed_state
        return ClientUpdate(
            user_id=update.user_id,
            group=update.group,
            embedding_delta=embedding,
            head_deltas=heads,
            num_examples=update.num_examples,
            train_loss=update.train_loss,
            upload_size_override=cost,
        )

    def residual_norm(self, user_id: int) -> float:
        """Total L2 norm of a client's carried residuals (diagnostics)."""
        total = 0.0
        for (uid, _), residual in self._residuals.items():
            if uid == user_id:
                block = (
                    residual.values
                    if isinstance(residual, SparseRowDelta)
                    else residual
                )
                total += float(np.sum(block**2))
        return float(np.sqrt(total))

    def reset(self) -> None:
        """Drop all residual state (e.g. between independent experiment repeats)."""
        self._residuals.clear()

    # ------------------------------------------------------------------
    # Checkpointing: error-feedback residuals feed every later round's
    # compression, so a bitwise resume must carry them.
    # ------------------------------------------------------------------
    def export_residuals(self):
        """``[(user_id, block_key, residual), ...]`` in insertion order."""
        return [
            (user_id, key, residual)
            for (user_id, key), residual in self._residuals.items()
        ]

    def restore_residuals(self, items) -> None:
        """Replace all residual state with checkpointed entries."""
        self._residuals = {
            (user_id, key): residual for user_id, key, residual in items
        }
