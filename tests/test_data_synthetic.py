"""Tests for the synthetic dataset generators.

These verify the calibration targets the reproduction depends on: the
heavy tail, the Table I shape statistics, determinism, and the two
activity-linked mechanisms (complexity and noise).
"""

import numpy as np
import pytest

from repro.data.stats import dataset_statistics, tail_heaviness
from repro.data.synthetic import (
    DATASET_SPECS,
    MIN_INTERACTIONS,
    DatasetSpec,
    SyntheticConfig,
    generate_dataset,
    load_benchmark_dataset,
)
from repro.experiments.profiles import get_profile

FAST = SyntheticConfig(scale=0.02, item_scale=0.06, seed=0)


class TestSpecs:
    def test_all_three_paper_datasets_present(self):
        assert set(DATASET_SPECS) == {"ml", "anime", "douban"}

    def test_spec_values_match_table1(self):
        ml = DATASET_SPECS["ml"]
        assert (ml.paper_users, ml.paper_items) == (6040, 3706)
        assert ml.paper_interactions == 1_000_209
        assert (ml.paper_avg, ml.paper_q50, ml.paper_q80) == (165.0, 77.0, 203.0)

    def test_quantile_ratios(self):
        ml = DATASET_SPECS["ml"]
        assert ml.q50_ratio == pytest.approx(77 / 165)
        assert ml.q80_ratio == pytest.approx(203 / 165)


class TestGeneration:
    def test_deterministic_across_calls(self):
        a = load_benchmark_dataset("ml", FAST)
        b = load_benchmark_dataset("ml", FAST)
        for items_a, items_b in zip(a.user_items, b.user_items):
            assert np.array_equal(items_a, items_b)

    def test_different_seeds_differ(self):
        a = load_benchmark_dataset("ml", FAST)
        b = load_benchmark_dataset(
            "ml", SyntheticConfig(scale=0.02, item_scale=0.06, seed=1)
        )
        assert a.to_pairs().shape != b.to_pairs().shape or not np.array_equal(
            a.to_pairs(), b.to_pairs()
        )

    def test_datasets_differ_from_each_other(self):
        ml = load_benchmark_dataset("ml", FAST)
        anime = load_benchmark_dataset("anime", FAST)
        assert ml.num_users != anime.num_users

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_benchmark_dataset("netflix")

    def test_scaling_controls_size(self):
        small = load_benchmark_dataset("ml", FAST)
        larger = load_benchmark_dataset(
            "ml", SyntheticConfig(scale=0.04, item_scale=0.12, seed=0)
        )
        assert larger.num_users > small.num_users
        assert larger.num_items > small.num_items

    def test_minimum_interactions_respected(self):
        data = load_benchmark_dataset("ml", FAST)
        assert data.interaction_counts().min() >= MIN_INTERACTIONS

    def test_valid_item_ids(self):
        data = load_benchmark_dataset("douban", FAST)
        for items in data.user_items:
            assert items.size == np.unique(items).size
            if items.size:
                assert items.max() < data.num_items


class TestHeavyTail:
    @pytest.mark.parametrize("name", ["ml", "anime", "douban"])
    def test_majority_of_users_below_mean(self, name):
        data = load_benchmark_dataset(
            name, SyntheticConfig(scale=0.05, item_scale=0.1, seed=0)
        )
        assert tail_heaviness(data) > 0.5

    def test_cv_tracks_paper_dispersion(self):
        """MovieLens is the most dispersed dataset (paper intro), and each
        sample cv lands near its spec.  Exact three-way ordering is not
        asserted: douban has so few users at test scale that its sample cv
        is noisy."""
        cfg = SyntheticConfig(scale=0.05, item_scale=0.1, seed=0)
        cvs = {
            name: dataset_statistics(load_benchmark_dataset(name, cfg)).cv
            for name in ("ml", "anime", "douban")
        }
        assert cvs["ml"] == max(cvs.values())
        for name, cv in cvs.items():
            assert abs(cv - DATASET_SPECS[name].cv) < 0.35

    def test_quantile_shape_tracks_spec(self):
        data = load_benchmark_dataset(
            "ml", SyntheticConfig(scale=0.08, item_scale=0.15, seed=0)
        )
        stats = dataset_statistics(data)
        # The paper's <50% sits well below the mean: q50/avg ≈ 0.47.
        assert stats.q50 / stats.avg < 0.85


class TestActivityLinks:
    def test_popularity_concentration(self):
        """Interactions concentrate on few items (Zipf-ish catalogue)."""
        data = load_benchmark_dataset("ml", FAST)
        item_counts = np.zeros(data.num_items)
        for items in data.user_items:
            item_counts[items] += 1
        item_counts.sort()
        top_decile = item_counts[-max(data.num_items // 10, 1):].sum()
        assert top_decile / item_counts.sum() > 0.2


def _interaction_digest(dataset) -> str:
    import hashlib

    digest = hashlib.sha256()
    for items in dataset.user_items:
        items = np.asarray(items, dtype=np.int64)
        digest.update(np.int64(items.size).tobytes())
        digest.update(items.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, config, expected",
    [
        (
            "ml",
            SyntheticConfig(scale=0.05, item_scale=0.2, seed=3),
            "8808d0dcbfe7272f5de42e58c3f3acb75c2edc69f13c98753a7f472fa03ac6a4",
        ),
        (
            "douban",
            SyntheticConfig(scale=0.03, item_scale=0.05, avg_interactions=16.0, seed=11),
            "6a1d53bd0f0a1292e3a77210811db23b5652e790c4116df87b02c7fdc716ecc6",
        ),
        # The `bench` profile's three datasets, as every results/ artefact
        # trains on them.
        (
            "ml",
            get_profile("bench").synthetic_config(),
            "4175e76a92db12fc96c93a41fcd0a070b7b979b624192b818060e15188e13df6",
        ),
        (
            "anime",
            get_profile("bench").synthetic_config(),
            "7432d75688980f071dcfacccead3f205755743ba1e73e70c043d7e9ada9e1406",
        ),
        (
            "douban",
            get_profile("bench").synthetic_config(),
            "3cfd4f7e3598c5dbf0a5053c9783a2a879c3ae78036c19930b6cb509e27520f2",
        ),
    ],
)
def test_generated_interactions_are_pinned(name, config, expected):
    """Generation is pinned byte for byte.  The first two digests were
    recorded with the ``setdiff1d`` noise pool (a boolean mask must draw
    the same complement); the three ``bench`` digests were recorded while
    the generative constants were still ``SyntheticConfig`` fields."""
    assert _interaction_digest(load_benchmark_dataset(name, config)) == expected
