"""Malicious-client update transformations (the FedRec threat model).

Each attack is a pure function over a :class:`ClientUpdate` — exactly
the capability the threat model grants: a malicious participant controls
what it uploads, nothing else.  Three behaviours from the literature:

* ``noise`` — untargeted availability attack: upload Gaussian garbage
  scaled to drown honest updates;
* ``signflip`` — model poisoning: upload the *negated*, amplified honest
  update, steering the global model away from the optimum (the
  strongest untargeted baseline in FedRecAttack [45]);
* ``promote`` — targeted item promotion (PipAttack [44]): craft the
  target item's embedding delta so the item scores highly for everyone.
  The crafted row moves the target's embedding toward the centroid of
  the items the attacker's own user actually liked — a popularity
  mimicry that needs no extra knowledge beyond the attacker's device.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Set

import numpy as np

from repro.data.dataset import ClientData
from repro.federated.payload import ClientUpdate, SparseRowDelta, touched_rows

_KINDS = ("noise", "signflip", "promote")


@dataclass
class AttackConfig:
    """Who attacks and how.

    ``fraction`` of clients are malicious (chosen uniformly at random,
    per PipAttack's setting of injected/compromised users).  ``scale``
    amplifies the poisoned payload; the ``promote`` attack pushes item
    ``TARGET_ITEM``.
    """

    kind: str = "signflip"
    fraction: float = 0.1
    scale: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


#: The item the ``promote`` attack pushes into every user's top-K.
TARGET_ITEM = 0


def choose_malicious(
    clients: Sequence[ClientData], fraction: float, seed: int = 0
) -> Set[int]:
    """The malicious sub-population: a uniform ``fraction`` of all clients."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    count = int(round(len(clients) * fraction))
    if count == 0:
        return set()
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(clients), size=count, replace=False)
    return {int(clients[i].user_id) for i in chosen}


def _noise_like(update: ClientUpdate, scale: float, rng: np.random.Generator) -> ClientUpdate:
    """Replace every uploaded block with scaled Gaussian noise.

    An honest update becomes garbage over the *same* touched rows (the
    attacker controls its payload values, not its wire format, and an
    upload suddenly spanning the whole catalogue would be trivially
    fingerprintable server-side).  σ is referenced to the std of the
    uploaded block — the touched-row values, not a catalogue-wide std
    diluted by structural zeros.
    """
    delta = update.embedding_delta
    reference = float(np.std(delta.values)) if delta.values.size else 1.0
    sigma = scale * (reference or 1.0)
    poisoned = SparseRowDelta(
        delta.num_rows,
        delta.rows.copy(),
        rng.normal(0.0, sigma, size=delta.values.shape),
    )
    return replace(
        update,
        embedding_delta=poisoned,
        head_deltas={
            head_group: {
                name: rng.normal(0.0, sigma, size=values.shape)
                for name, values in state.items()
            }
            for head_group, state in update.head_deltas.items()
        },
    )


def _promote_target(
    update: ClientUpdate, target_item: int, scale: float
) -> ClientUpdate:
    """Craft the target item's row to mimic the client's liked items.

    The attacker moves the target's embedding toward the centroid of the
    rows its honest training actually strengthened, amplified by
    ``scale`` — after aggregation the target looks like a universally
    liked item.  The crafted row joins the touched-row set (the target
    is one more "interacted" item).
    """
    delta = update.embedding_delta
    values = delta.values
    support_pos = touched_rows(values)
    support_pos = support_pos[delta.rows[support_pos] != target_item]
    width = delta.width
    if support_pos.size:
        centroid = values[support_pos].mean(axis=0)
        norm = float(np.linalg.norm(centroid))
        direction = centroid / norm if norm > 0 else np.ones(width) / np.sqrt(width)
    else:
        direction = np.ones(width) / np.sqrt(width)
    row_norms = np.linalg.norm(values, axis=1)
    typical = float(row_norms[row_norms > 0].mean()) if np.any(row_norms > 0) else 1.0
    if target_item < delta.num_rows:
        crafted = SparseRowDelta(
            delta.num_rows,
            np.array([target_item], dtype=np.int64),
            np.zeros((1, width), dtype=values.dtype),
        )
        poisoned = delta + crafted  # ensures the target row exists
        poisoned.values[np.searchsorted(poisoned.rows, target_item)] = (
            scale * typical * direction
        )
    else:
        poisoned = delta.copy()
    return replace(update, embedding_delta=poisoned)


def poison_update(
    update: ClientUpdate, config: AttackConfig, rng: np.random.Generator
) -> ClientUpdate:
    """Apply the configured attack to one honest update."""
    if config.kind == "noise":
        return _noise_like(update, config.scale, rng)
    if config.kind == "signflip":
        return update.scaled(-config.scale)
    return _promote_target(update, TARGET_ITEM, config.scale)
