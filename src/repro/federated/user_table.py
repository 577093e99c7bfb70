"""One dim-group's private user embeddings: sorted ids + one matrix.

The paper keeps one private vector ``u_i`` per client (Eq. 3) in size
groups, so the natural object is one ``(n_g, d_g)`` matrix per group.
The trainer, the checkpoint and the serving snapshot all hold the
embeddings in this form and no other; group membership *is* the id
array, so no user→group map can drift out of step with the rows.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class UserTable:
    """Strictly increasing int64 ``ids`` and their ``(n, dim)`` ``values``.

    The constructor is the one place a user matrix is checked, whoever
    builds it; anything but a 1-D strictly increasing integer ``ids``
    and a ``(len(ids), dim)`` ``values`` of exactly ``dtype`` raises
    :class:`ValueError`.
    """

    def __init__(
        self, ids: np.ndarray, values: np.ndarray, dim: int, dtype: np.dtype
    ) -> None:
        ids = np.asarray(ids)
        values = np.asarray(values)
        if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(
                f"user ids must be a 1-D integer array, got {ids.dtype} {ids.shape}"
            )
        ids = ids.astype(np.int64, copy=False)
        if not (ids[1:] > ids[:-1]).all():
            raise ValueError("user ids must be strictly increasing (sorted, no duplicates)")
        if values.shape != (ids.size, dim):
            raise ValueError(
                f"user matrix has shape {values.shape}, expected {(ids.size, dim)}"
            )
        if values.dtype != np.dtype(dtype):
            raise ValueError(
                f"user matrix has dtype {values.dtype}, expected {np.dtype(dtype)}"
            )
        self.ids = ids
        self.values = np.ascontiguousarray(values)

    def __len__(self) -> int:
        return self.ids.size

    def find(self, user_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, held)`` for ``user_ids`` — any order, repeats
        allowed, one ``searchsorted`` for the lot.  ``positions[i]`` is
        the row of ``user_ids[i]`` where ``held[i]``, meaningless elsewhere."""
        wanted = np.asarray(user_ids, dtype=np.int64)
        positions = np.searchsorted(self.ids, wanted)
        # An id past the last one lands at len(ids): not indexable, not held.
        held = positions < self.ids.size
        held[held] = self.ids[positions[held]] == wanted[held]
        return positions, held

    def rows(self, user_ids: Sequence[int]) -> np.ndarray:
        """Row positions of ``user_ids``; an id the table does not hold
        raises :class:`KeyError` naming it."""
        positions, held = self.find(user_ids)
        if not held.all():
            raise KeyError(int(np.asarray(user_ids)[~held][0]))
        return positions

    def take(self, user_ids: Sequence[int]) -> np.ndarray:
        """A fresh ``(len(user_ids), dim)`` copy of the listed users' rows."""
        return self.values[self.rows(user_ids)]

    def put(self, user_ids: Sequence[int], values: np.ndarray) -> None:
        """Overwrite the listed users' rows with ``values`` (shape-checked)."""
        positions = self.rows(user_ids)
        expected = (positions.size, self.values.shape[1])
        if np.shape(values) != expected:
            raise ValueError(
                f"user embedding shape changed: {np.shape(values)} vs {expected}"
            )
        self.values[positions] = values

    def drop(self, user_id: int) -> None:
        """Remove one user's id and row; every other id keeps its values."""
        keep = np.ones(len(self), dtype=bool)
        keep[self.rows([user_id])] = False
        self.ids, self.values = self.ids[keep], self.values[keep]
