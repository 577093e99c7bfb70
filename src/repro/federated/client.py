"""Client-side runtime: the state that lives on a simulated device.

Holds exactly what the paper keeps private to a client: the user
embedding ``u_i`` (Eq. 3 — updated locally, never uploaded) plus local
utilities (negative sampler, RNG).  The model parameters a client trains
are *borrowed* from the trainer for the duration of a local session; this
runtime persists only across-round private state.  The embedding is a
row of a :class:`~repro.federated.user_table.UserTable`, addressed by
user id: a one-row table of its own until a trainer adopts the runtime
into its dim-group's.
"""

from __future__ import annotations


import numpy as np

from repro.data.dataset import ClientData
from repro.data.sampling import NegativeSampler, TrainingBatch, assemble_batch
from repro.federated.user_table import UserTable
from repro.nn.init import EMBEDDING_STD


class ClientRuntime:
    """Private, persistent per-client state in the simulation."""

    def __init__(
        self,
        data: ClientData,
        embedding_dim: int,
        num_items: int,
        seed: int = 0,
        dtype: np.dtype = np.float64,
    ) -> None:
        self.data = data
        self.embedding_dim = embedding_dim
        self.rng = np.random.default_rng(seed * 1_000_003 + data.user_id)
        self.sampler = NegativeSampler(num_items, seed=seed * 7_919 + data.user_id)
        #: The sampler's exclusion of this client's known items, built on
        #: first use (a client's data never changes).
        self._exclusion = None
        # Drawn in float64 (keeps the RNG stream identical across dtypes),
        # then cast to the session precision.
        initial = self.rng.normal(0.0, EMBEDDING_STD, size=embedding_dim).astype(
            dtype, copy=False
        )
        self.table = UserTable(
            np.array([data.user_id]), initial[np.newaxis], embedding_dim, dtype
        )

    @property
    def user_id(self) -> int:
        return self.data.user_id

    @property
    def user_embedding(self) -> np.ndarray:
        """A copy of this client's row of :attr:`table`."""
        return self.table.take([self.user_id])[0]

    def sample_batch(self, negative_ratio: int = 4) -> TrainingBatch:
        """Local positives + sampled negatives, shuffled (Section V-A)."""
        if self._exclusion is None:
            self._exclusion = self.sampler.exclusion(self.data.known_items())
        positives = self.data.train_items
        negatives = self.sampler.sample_excluding(
            self._exclusion, positives.size * negative_ratio
        )
        return assemble_batch(positives, negatives, shuffle_rng=self.rng)
