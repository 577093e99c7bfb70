"""Tests for the parallel grid executor and the concurrency-safe cache.

Covers the PR-4 contracts: pre-dispatch dedup across overlapping
consumer grids, serial-vs-parallel bitwise result equality,
deterministic per-spec seeding under ``jobs > 1``, cache-hit
short-circuiting, and atomic/corruption-tolerant cache writes.
"""

import os
from dataclasses import asdict

import pytest

import repro.experiments.runner as runner
from repro.experiments.fig6 import fig6_grid
from repro.experiments.fig7 import fig7_grid
from repro.experiments.runner import (
    RunSpec,
    run_grid,
    run_spec,
    run_tree,
    tree_specs,
)
from repro.experiments.table2 import table2_grid


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "cache"))
    yield


@pytest.fixture()
def train_counter(monkeypatch):
    """Count actual training runs (the expensive part) through any path."""
    calls = []
    original = runner._train_spec

    def counting(spec, *args, **kwargs):
        calls.append(spec.key())
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(runner, "_train_spec", counting)
    return calls


def _ml_methods(grid, methods):
    """Slice a full ``grid[arch][dataset][method]`` to the ml column and ``methods``."""
    return {
        arch: {"ml": {method: per_dataset["ml"][method] for method in methods}}
        for arch, per_dataset in grid.items()
    }


def _cache_files():
    if not os.path.isdir(runner.CACHE_DIR):
        return []
    return sorted(n for n in os.listdir(runner.CACHE_DIR) if n.endswith(".json"))


class TestRunSpec:
    def test_identity_is_the_cache_key(self):
        a = RunSpec("ml", "all_small", profile="smoke")
        b = RunSpec("ml", "all_small", arch="ncf", profile="smoke", seed=0)
        assert a == b and hash(a) == hash(b)
        assert a != RunSpec("ml", "all_small", profile="smoke", seed=1)
        assert a != RunSpec("anime", "all_small", profile="smoke")

    def test_equal_but_distinct_override_objects_dedupe(self):
        a = RunSpec("ml", "hetefedrec", profile="smoke",
                    config_overrides={"alpha": 0.5})
        b = RunSpec("ml", "hetefedrec", profile="smoke",
                    config_overrides={"alpha": 0.5})
        assert a == b
        assert len({a, b}) == 1

    def test_no_overrides_equals_empty_overrides(self):
        assert RunSpec("ml", "all_small", profile="smoke") == RunSpec(
            "ml", "all_small", profile="smoke", config_overrides={}
        )

    def test_key_matches_run_method_cache(self):
        spec = RunSpec("ml", "all_small", profile="smoke")
        result = run_spec(spec)
        assert runner._load_cached(spec.key()).ndcg == result.ndcg


class TestDedup:
    def test_overlapping_consumer_grids_train_once(self, train_counter):
        """Table II ∩ Fig. 6 ∩ Fig. 7: one training job, many consumers."""
        methods = ("all_small", "hetefedrec")
        specs = (
            tree_specs(table2_grid("smoke", datasets=("ml",), archs=("ncf",), methods=methods))
            + tree_specs(_ml_methods(fig6_grid("smoke", archs=("ncf",)), methods))
            + tree_specs(fig7_grid("smoke", archs=("ncf",), methods=methods))
        )
        assert len(specs) == 6  # three consumers × two methods
        results = run_grid(specs)
        assert len(results) == 2  # ...but only two unique runs
        assert len(train_counter) == 2
        assert len(_cache_files()) == 2
        # Every consumer's spec fetches a result.
        for spec in specs:
            assert results[spec].method == spec.method


class TestRunTree:
    def test_same_shape_back_from_one_grid_call(self, monkeypatch):
        """A nested label → spec mapping executes as ONE grid (so dedup
        spans the whole tree) and comes back in the same shape.  It passes
        no ``jobs``: only ``run_all``'s warm pass fans out."""
        calls = []

        def fake_run_grid(specs, **kwargs):
            calls.append((list(specs), kwargs))
            return {spec: f"{spec.dataset}/{spec.method}" for spec in specs}

        monkeypatch.setattr(runner, "run_grid", fake_run_grid)
        small = RunSpec("ml", "all_small", profile="smoke")
        hete = RunSpec("anime", "hetefedrec", profile="smoke")
        tree = {"ncf": {"a": small, "b": hete}, "other": {0.5: small}}
        assert tree_specs(tree) == [small, hete, small]
        assert run_tree(tree) == {
            "ncf": {"a": "ml/all_small", "b": "anime/hetefedrec"},
            "other": {0.5: "ml/all_small"},
        }
        assert calls == [([small, hete, small], {})]


class TestParallelExecution:
    def test_parallel_results_bitwise_equal_serial(self, tmp_path, monkeypatch):
        specs = [
            RunSpec("ml", "all_small", profile="smoke"),
            RunSpec("ml", "hetefedrec", profile="smoke"),
            RunSpec("anime", "all_small", profile="smoke"),
        ]
        monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "serial"))
        serial = run_grid(specs, jobs=1)
        monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "parallel"))
        parallel = run_grid(specs, jobs=2)
        for spec in specs:
            assert asdict(serial[spec]) == asdict(parallel[spec])

    def test_deterministic_seeds_under_parallel_jobs(self, tmp_path, monkeypatch):
        """Per-spec seeding is independent of which worker runs the spec."""
        specs = [
            RunSpec("ml", "all_small", profile="smoke", seed=seed)
            for seed in (0, 1, 2)
        ]
        monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "par"))
        parallel = run_grid(specs, jobs=3)
        for spec in specs:
            assert asdict(parallel[spec]) == asdict(runner._train_spec(spec))
        # Seeds produce genuinely different runs (the grid is not collapsing).
        curves = {tuple(parallel[spec].ndcg_curve) for spec in specs}
        assert len(curves) == 3

    def test_parallel_misses_fill_the_cache(self):
        specs = [
            RunSpec("ml", "all_small", profile="smoke"),
            RunSpec("ml", "all_large", profile="smoke"),
        ]
        run_grid(specs, jobs=2)
        assert len(_cache_files()) == 2
        # A fresh serial pass is now pure cache hits.
        again = run_grid(specs, jobs=1)
        assert {s.key() for s in again} == {s.key() for s in specs}


class TestCacheShortCircuit:
    def test_hits_never_reach_training(self, train_counter):
        spec = RunSpec("ml", "all_small", profile="smoke")
        first = run_spec(RunSpec("ml", "all_small", profile="smoke"))
        assert len(train_counter) == 1
        results = run_grid([spec], jobs=4)  # all hits → no pool, no training
        assert len(train_counter) == 1
        assert asdict(results[spec]) == asdict(first)

    def test_mixed_hits_and_misses(self, train_counter):
        cached_spec = RunSpec("ml", "all_small", profile="smoke")
        run_spec(RunSpec("ml", "all_small", profile="smoke"))
        miss_spec = RunSpec("ml", "all_large", profile="smoke")
        results = run_grid([cached_spec, miss_spec])
        assert [k for k in train_counter] == [cached_spec.key(), miss_spec.key()]
        assert results[cached_spec].method == "all_small"
        assert results[miss_spec].method == "all_large"


class TestCacheSafety:
    def test_store_is_atomic_no_tmp_left_behind(self):
        run_spec(RunSpec("ml", "all_small", profile="smoke"))
        names = os.listdir(runner.CACHE_DIR)
        assert len([n for n in names if n.endswith(".json")]) == 1
        assert not [n for n in names if n.endswith(".tmp")]

    def test_corrupt_entry_recovers(self, train_counter):
        """A torn write must read as a miss and be healed by a re-run."""
        spec = RunSpec("ml", "all_small", profile="smoke")
        first = run_spec(RunSpec("ml", "all_small", profile="smoke"))
        path = runner._cache_path(spec.key())
        payload = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload[: len(payload) // 2])  # torn mid-entry
        assert runner._load_cached(spec.key()) is None

        healed = run_spec(RunSpec("ml", "all_small", profile="smoke"))
        assert len(train_counter) == 2  # first run + the healing re-train
        assert asdict(healed) == asdict(first)
        assert runner._load_cached(spec.key()) is not None

    def test_worker_rechecks_cache_before_training(self, monkeypatch):
        """A key published after the miss scan is served, not retrained."""
        spec = RunSpec("ml", "all_small", profile="smoke")
        result = runner._train_spec(spec)
        runner._store_cached(spec.key(), result)

        def explode(_):
            raise AssertionError("worker must re-check the cache first")

        monkeypatch.setattr(runner, "_train_spec", explode)
        worked = runner._grid_worker(spec, runner.CACHE_DIR)
        assert asdict(worked) == asdict(result)

    def test_worker_uses_the_cache_dir_it_is_handed(self, tmp_path):
        """Spawn-started workers do not inherit a monkeypatched global —
        the dispatched cache directory must arrive as an argument."""
        spec = RunSpec("ml", "all_small", profile="smoke")
        other = str(tmp_path / "elsewhere")
        runner._grid_worker(spec, other)
        assert runner.CACHE_DIR == other
        assert [n for n in os.listdir(other) if n.endswith(".json")]


class TestDatasetMemo:
    def test_same_dataset_generated_once_per_process(self, monkeypatch):
        runner._DATASET_MEMO.clear()
        generations = []
        original = runner.load_benchmark_dataset

        def counting(name, config):
            generations.append(name)
            return original(name, config)

        monkeypatch.setattr(runner, "load_benchmark_dataset", counting)
        run_grid(
            [
                RunSpec("ml", "all_small", profile="smoke"),
                RunSpec("ml", "all_large", profile="smoke"),
                RunSpec("ml", "all_small", profile="smoke", seed=1),
            ]
        )
        assert generations == ["ml"]
        runner._DATASET_MEMO.clear()

    def test_memoized_runs_match_fresh_generation(self, tmp_path, monkeypatch):
        spec = RunSpec("ml", "all_small", profile="smoke")
        runner._DATASET_MEMO.clear()
        warm_twice = [runner._train_spec(spec) for _ in range(2)]
        runner._DATASET_MEMO.clear()
        fresh = runner._train_spec(spec)
        assert asdict(warm_twice[0]) == asdict(warm_twice[1]) == asdict(fresh)
