"""End-to-end integration tests: the paper's qualitative claims at small scale.

These run real (tiny) federated training.  Only the most robust
orderings are asserted at this size — the full shape checks live in the
benchmark suite at 'bench' scale.
"""

import numpy as np
import pytest

from repro import (
    Evaluator,
    HeteFedRecConfig,
    build_method,
    load_benchmark_dataset,
    train_test_split_per_user,
)
from repro.data.synthetic import SyntheticConfig


@pytest.fixture(scope="module")
def setting():
    data = load_benchmark_dataset(
        "ml", SyntheticConfig(scale=0.025, item_scale=0.08, seed=1)
    )
    clients = train_test_split_per_user(data, seed=1)
    return data, clients


def run(method, setting, epochs=6, **overrides):
    data, clients = setting
    config = HeteFedRecConfig(epochs=epochs, seed=1, eval_every=100, **overrides)
    trainer = build_method(method, data.num_items, clients, config)
    trainer.fit()
    return trainer.evaluate_with(Evaluator(clients))


class TestQualitativeOrderings:
    def test_collaboration_beats_standalone(self, setting):
        """The most robust claim in Table II: any collaborative method
        crushes Standalone."""
        federated = run("all_small", setting)
        standalone = run("standalone", setting)
        assert federated.ndcg > 2 * standalone.ndcg

    def test_hetefedrec_beats_directly_aggregate_or_close(self, setting):
        """HeteFedRec's components must not hurt relative to naive padding
        aggregation (at tiny scale we allow a small tolerance)."""
        hete = run("hetefedrec", setting)
        direct = run("directly_aggregate", setting)
        assert hete.ndcg > 0.8 * direct.ndcg

    def test_models_beat_random_scoring(self, setting):
        data, clients = setting
        result = run("all_small", setting)
        rng = np.random.default_rng(0)
        random_result = Evaluator(clients).evaluate(
            lambda block: rng.normal(size=(len(block), data.num_items))
        )
        assert result.ndcg > random_result.ndcg


class TestDeterminism:
    def test_same_seed_same_result(self, setting):
        a = run("hetefedrec", setting, epochs=2)
        b = run("hetefedrec", setting, epochs=2)
        assert a.ndcg == pytest.approx(b.ndcg)
        assert a.recall == pytest.approx(b.recall)
