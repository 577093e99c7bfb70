"""The surrogate fleet's user rows: one in-memory table, keyed on the seed."""

import numpy as np

from repro.sim.config import SimulationConfig
from repro.sim.engine import SimStreams
from repro.sim.population import SurrogateFleet


def fleet(seed: int) -> SurrogateFleet:
    config = SimulationConfig(
        num_clients=64, num_items=20, dim=4, items_per_client=3,
        clients_per_round=8, epochs=1, seed=seed,
    )
    return SurrogateFleet(config, SimStreams(seed).population)


class TestDeterminism:
    def test_initial_rows_deterministic_in_seed(self):
        a, b, other = fleet(9), fleet(9), fleet(10)
        assert a.users.values.dtype == np.float32
        assert np.array_equal(a.users.ids, np.arange(64))
        assert np.array_equal(a.users.values, b.users.values)
        assert not np.array_equal(a.users.values, other.users.values)

    def test_digest_reflects_writes(self):
        """User rows feed the digest: ``train`` moves the trained users'
        rows (and nothing else, until ``apply``), so the digest moves."""
        population = fleet(0)
        before = population.users.values.copy()
        digest = population.digest()
        population.train([5, 17], version=0)
        changed = np.flatnonzero((population.users.values != before).any(axis=1))
        assert changed.tolist() == [5, 17]
        assert population.digest() != digest
