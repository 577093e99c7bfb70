"""Tests for the online serving layer (``repro.serving``).

Pins the production contracts the tentpole claims: blocked scoring
matches the trainer's reference path, the hot top-k cache is
version-keyed and invalidated on swap, the coalescer flushes on its
size trigger and whenever its flusher is idle, hot-swap is atomic
under threaded concurrent queries (no dropped or mixed-model
responses), an incompatible checkpoint is rejected *before* cutover,
and the optional HTTP front end — driven as ``repro serve`` builds it,
resilient service plus coalescer — speaks the documented JSON routes,
sheds with 503 + ``Retry-After``, answers every malformed request with
a 400 instead of dropping the connection, meters exactly like
in-process ``query``, and drains without dropping an admitted request.
"""

import http.client
import json
import os
import shutil
import sys
import threading
import time

import numpy as np
import pytest
from reference_trainer import tape_scores

import repro.parallel as parallel
from repro.api import load_model
from repro.baselines import build_method
from repro.core import HeteFedRec, HeteFedRecConfig
from repro.eval import evaluator as evaluator_module
from repro.eval.metrics import blocked_top_k
from repro.federated.checkpoint import (
    CheckpointMismatchError,
    UnknownGroupError,
    save_checkpoint_impl,
)
from repro.serving import (
    DeadlineExceededError,
    QueryRequest,
    Recommendation,
    RecommendationService,
    RequestCoalescer,
    ResilienceConfig,
    ResilientService,
    TopKCache,
    UnknownUserError,
    load_snapshot,
)
from repro.serving.chaos import ManualClock

from malformed_checkpoints import MALFORMED_CHECKPOINTS, forge

CONFIG = dict(dims={"s": 4, "m": 6, "l": 8}, epochs=2, local_epochs=1, lr=0.01)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Two epochs of one run saved as v1/v2, plus reference score rows."""
    from repro.data.splitting import train_test_split_per_user
    from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset

    dataset = load_benchmark_dataset(
        "ml", SyntheticConfig(scale=0.01, item_scale=0.03, seed=7)
    )
    clients = train_test_split_per_user(dataset, seed=7)
    root = tmp_path_factory.mktemp("serving")
    trainer = HeteFedRec(
        dataset.num_items, clients, HeteFedRecConfig(seed=0, **CONFIG)
    )
    paths, expected = {}, {}
    trainer.run_epoch(1)
    paths["v1"] = str(root / "v1.npz")
    save_checkpoint_impl(trainer, paths["v1"])
    expected["v1"] = {c.user_id: tape_scores(trainer, c).copy() for c in clients}
    trainer.run_epoch(2)
    paths["v2"] = str(root / "v2.npz")
    save_checkpoint_impl(trainer, paths["v2"])
    expected["v2"] = {c.user_id: tape_scores(trainer, c).copy() for c in clients}

    mismatched = HeteFedRec(
        dataset.num_items, clients,
        HeteFedRecConfig(seed=0, arch="mf", **CONFIG),
    )
    mismatched.run_epoch(1)
    paths["mf"] = str(root / "mf.npz")
    save_checkpoint_impl(mismatched, paths["mf"])

    single = build_method(
        "all_small", dataset.num_items, clients, HeteFedRecConfig(seed=0, **CONFIG)
    )
    single.run_epoch(1)
    paths["single"] = str(root / "single.npz")
    save_checkpoint_impl(single, paths["single"])

    return {"paths": paths, "expected": expected, "clients": clients}


def top_ids(scores: np.ndarray, k: int) -> np.ndarray:
    return blocked_top_k(scores[None, :], k)[0]


# ----------------------------------------------------------------------
# TopKCache
# ----------------------------------------------------------------------
class TestTopKCache:
    def test_lru_eviction(self):
        cache = TopKCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh recency: "b" is now LRU
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3

    def test_disabled_cache_never_stores(self):
        cache = TopKCache(max_entries=0)
        cache.put(("a",), 1)
        assert cache.get(("a",)) is None and len(cache) == 0

    def test_invalidate_reports_dropped(self):
        cache = TopKCache()
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0 and cache.stats()["invalidations"] == 1


# ----------------------------------------------------------------------
# RecommendationService
# ----------------------------------------------------------------------
class TestService:
    @pytest.fixture()
    def service(self, checkpoints):
        return RecommendationService(checkpoints["paths"]["v1"], k=5)

    def test_query_matches_reference_scoring(self, checkpoints, service):
        for client in checkpoints["clients"][:8]:
            answer = service.query(client.user_id)
            reference = top_ids(checkpoints["expected"]["v1"][client.user_id], 5)
            assert np.array_equal(answer.items, reference), client.user_id
            assert np.all(np.diff(answer.scores) <= 1e-12)  # descending

    def test_batch_matches_individual_queries(self, checkpoints):
        service = RecommendationService(checkpoints["paths"]["v1"], k=5,
                                        cache_size=0)
        clients = checkpoints["clients"][:12]
        batch = service.query_batch(
            [QueryRequest(c.user_id, 4) for c in clients]
        )
        for client, answer in zip(clients, batch):
            solo = service.query(client.user_id, k=4)
            assert np.array_equal(answer.items, solo.items)
            assert answer.user_id == client.user_id

    def test_repeat_query_is_cached(self, service, checkpoints):
        user = checkpoints["clients"][0].user_id
        first = service.query(user)
        second = service.query(user)
        assert not first.cached and second.cached
        assert np.array_equal(first.items, second.items)
        assert service.stats()["cache"]["hits"] >= 1

    def test_unknown_user_raises(self, service):
        with pytest.raises(UnknownUserError, match="999999"):
            service.query(999_999)
        with pytest.raises(KeyError):  # subclass: old-style handling works
            service.query(999_999)

    def test_mixed_batch_answers_each_request_in_its_own_slot(
        self, service, checkpoints
    ):
        """Slots come back in request order: a refusal fills its own
        request's slot and nobody else's."""
        import repro.api as api

        a, b, c = (client.user_id for client in checkpoints["clients"][:3])
        num_items = service.num_items
        requests = [
            QueryRequest(a, 4),
            QueryRequest(999_999, 4),
            QueryRequest(b, 4, np.array([0, num_items])),  # one past the end
            QueryRequest(c, 4, np.array([-1])),  # would mask the last item
            QueryRequest(c, 3, np.array([1, 2])),
        ]
        slots = service.query_batch(requests)
        assert [type(slot).__name__ for slot in slots] == [
            "Recommendation", "UnknownUserError", "ValueError", "ValueError",
            "Recommendation",
        ]
        assert "999999" in str(slots[1])
        assert str(num_items) in str(slots[2]) and "-1" in str(slots[3])
        fresh = RecommendationService(checkpoints["paths"]["v1"], k=5)
        for i in (0, 4):
            alone = fresh.query(requests[i].user_id, requests[i].k, requests[i].exclude)
            assert slots[i].user_id == requests[i].user_id
            assert np.array_equal(slots[i].items, alone.items)
            # One row or five, BLAS may round the last bit differently.
            assert np.allclose(slots[i].scores, alone.scores, rtol=0.0, atol=1e-12)
        # Asked alone, a refused request hears its refusal raised.
        for i, error in ((1, UnknownUserError), (2, ValueError), (3, ValueError)):
            with pytest.raises(error):
                service.query(requests[i].user_id, requests[i].k, requests[i].exclude)
        with pytest.raises(UnknownUserError, match="999999"):
            api.recommend(service, [a, 999_999, b, 888_888], k=4)
        assert [r.user_id for r in api.recommend(service, [a, b], k=4)] == [a, b]

    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_answers_are_read_only(self, checkpoints, cache_size):
        """The cache hands the same arrays out again: a caller must not
        be able to rewrite them through an answer."""
        service = RecommendationService(
            checkpoints["paths"]["v1"], k=5, cache_size=cache_size
        )
        user = checkpoints["clients"][0].user_id
        fresh = service.query(user)
        original = fresh.items.copy()
        with pytest.raises(ValueError, match="read-only"):
            fresh.items[:] = -1
        with pytest.raises(ValueError, match="read-only"):
            fresh.scores[0] = 0.0
        again = service.query(user)
        assert again.cached == bool(cache_size)
        with pytest.raises(ValueError, match="read-only"):
            again.items[:] = -1
        assert np.array_equal(service.query(user).items, original)

    def test_exclusion_masks_items(self, service, checkpoints):
        user = checkpoints["clients"][0].user_id
        base = service.query(user, k=5)
        banned = base.items[:3]
        answer = service.query(user, k=5, exclude=banned)
        assert not (set(answer.items.tolist()) & set(banned.tolist()))
        assert not answer.cached  # exclusion requests bypass the cache

    def test_k_clamped_to_catalogue(self, service):
        snap = service.snapshot
        answer = service.query(snap.user_ids()[0], k=snap.num_items + 50)
        assert len(answer.items) == snap.num_items

    def test_float32_answers_are_the_scored_values_widened(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        """A float32 checkpoint is masked and ranked in float32; its
        answers carry float64, read-only ``scores`` equal to the scored
        block's values at the answered items."""
        trainer = HeteFedRec(
            tiny_dataset.num_items, tiny_clients,
            HeteFedRecConfig(seed=0, dtype="float32", **CONFIG),
        )
        trainer.run_epoch(1)
        path = str(tmp_path / "f32.npz")
        save_checkpoint_impl(trainer, path)
        service = RecommendationService(path, k=5, cache_size=0)
        snap = service.snapshot
        for group, table in snap.users.items():
            # One group per batch: the service scores exactly this block.
            scored = snap.models[group].score_matrix(table.values[:6])
            assert scored.dtype == np.float32
            answers = service.query_batch([QueryRequest(int(u)) for u in table.ids[:6]])
            for row, answer in enumerate(answers):
                assert answer.scores.dtype == np.float64
                assert not answer.scores.flags.writeable
                expected = scored[row, answer.items].astype(np.float64)
                assert np.array_equal(answer.scores, expected), (group, row)
                assert np.array_equal(answer.items, top_ids(scored[row], 5))

    def test_snapshot_loads_every_group(self, checkpoints):
        snap = load_snapshot(checkpoints["paths"]["v1"])
        assert snap.groups == ["l", "m", "s"]
        assert snap.num_users == len(checkpoints["clients"])


# ----------------------------------------------------------------------
# The serving door: a malformed checkpoint fails at load, typed
# ----------------------------------------------------------------------
class TestServingDoor:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_is_refused_at_load(self, checkpoints, tmp_path, case):
        """Never at query time: at the parent ``format_version: 99`` was
        served, a user without an embedding died with ``KeyError(0)`` on
        its first query and a wrong-width vector raised a matmul
        ``ValueError`` for every request batched with it."""
        bad = forge(
            checkpoints["paths"]["v1"], str(tmp_path / "bad.npz"),
            MALFORMED_CHECKPOINTS[case],
        )
        with pytest.raises(CheckpointMismatchError):
            load_snapshot(bad)
        with pytest.raises(CheckpointMismatchError):
            RecommendationService(bad)
        service = RecommendationService(checkpoints["paths"]["v1"], k=5)
        with pytest.raises(CheckpointMismatchError):
            service.swap(bad)
        assert service.model_version == 1

    def test_load_is_one_archive_open_and_one_manifest_parse(
        self, checkpoints, monkeypatch
    ):
        """At PR 21: five opens and four parses per ``load_snapshot``.
        Now the one reader, ``checkpoint.read_checkpoint``, does both."""
        calls = {"json.loads": 0, "np.load": 0}
        json_loads, np_load = json.loads, np.load

        def counting_loads(*args, **kwargs):
            calls["json.loads"] += 1
            return json_loads(*args, **kwargs)

        def counting_load(*args, **kwargs):
            calls["np.load"] += 1
            return np_load(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        monkeypatch.setattr(np, "load", counting_load)
        load_snapshot(checkpoints["paths"]["v1"])
        assert calls == {"json.loads": 1, "np.load": 1}

    def test_snapshot_tables_are_read_only(self, checkpoints):
        snap = load_snapshot(checkpoints["paths"]["v1"])
        assert not hasattr(snap, "embeddings") and not hasattr(snap, "group_of")
        for table in snap.users.values():
            with pytest.raises(ValueError, match="read-only"):
                table.values[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                table.put([int(table.ids[0])], np.zeros((1, table.values.shape[1])))

    def test_user_id_outside_int64_is_unknown_not_a_crash(self, checkpoints):
        service = RecommendationService(checkpoints["paths"]["v1"], k=5)
        with pytest.raises(UnknownUserError, match=str(2**70)):
            service.query(2**70)


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_swap_bumps_version_and_answers(self, checkpoints):
        service = RecommendationService(checkpoints["paths"]["v1"], k=5)
        user = checkpoints["clients"][0].user_id
        service.query(user)
        assert service.swap(checkpoints["paths"]["v2"]) == 2
        answer = service.query(user)
        assert answer.model_version == 2 and not answer.cached
        reference = top_ids(checkpoints["expected"]["v2"][user], 5)
        assert np.array_equal(answer.items, reference)

    def test_swap_invalidates_cache(self, checkpoints):
        service = RecommendationService(checkpoints["paths"]["v1"], k=5)
        for client in checkpoints["clients"][:6]:
            service.query(client.user_id)
        assert service.stats()["cache"]["entries"] == 6
        service.swap(checkpoints["paths"]["v2"])
        assert service.stats()["cache"]["entries"] == 0
        assert service.stats()["cache"]["invalidations"] == 1

    def test_mismatched_checkpoint_rejected_before_cutover(self, checkpoints):
        service = RecommendationService(checkpoints["paths"]["v1"], k=5)
        user = checkpoints["clients"][0].user_id
        before = service.query(user)
        with pytest.raises(CheckpointMismatchError, match="arch"):
            service.swap(checkpoints["paths"]["mf"])
        assert service.model_version == 1  # old snapshot still serving
        after = service.query(user)
        assert np.array_equal(before.items, after.items)

    def test_swap_atomicity_under_threaded_queries(self, checkpoints):
        """No response may carry one version's tag and the other's items,
        and no query may fail, while swaps happen mid-traffic."""
        service = RecommendationService(
            checkpoints["paths"]["v1"], k=5, cache_size=0
        )
        users = [c.user_id for c in checkpoints["clients"][:8]]
        reference = {
            version + 1: {
                u: top_ids(checkpoints["expected"][f"v{version + 1}"][u], 5)
                for u in users
            }
            for version in range(2)
        }
        paths = checkpoints["paths"]
        errors, stale = [], []
        stop = threading.Event()

        def hammer(user):
            while not stop.is_set():
                try:
                    answer = service.query(user)
                except Exception as error:  # noqa: BLE001 - recorded, fails test
                    errors.append(error)
                    return
                expected_items = reference[(answer.model_version - 1) % 2 + 1][user]
                if not np.array_equal(answer.items, expected_items):
                    stale.append(answer)
                    return

        threads = [threading.Thread(target=hammer, args=(u,)) for u in users]
        for thread in threads:
            thread.start()
        for swap_to in ("v2", "v1", "v2", "v1"):
            service.swap(paths[swap_to])
        # After the final swap() returned, a fresh query must see v1 arith.
        post = service.query(users[0])
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors, errors[:1]
        assert not stale, f"mixed-version response: {stale[:1]}"
        assert np.array_equal(post.items, reference[1][users[0]])
        assert service.model_version == 5  # four swaps on top of v1


# ----------------------------------------------------------------------
# RequestCoalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    @pytest.fixture()
    def service(self, checkpoints):
        return RecommendationService(checkpoints["paths"]["v1"], k=5,
                                     cache_size=0)

    @staticmethod
    def plugged(service):
        """Gate ``service.query_batch``: the first call (the plug) blocks
        in scoring until ``release`` is set.  Returns ``(calls, scoring,
        release)`` — the batch size of every call, and the two events."""
        calls, scoring, release = [], threading.Event(), threading.Event()
        score = service.query_batch

        def gated(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                scoring.set()
                assert release.wait(30)
            return score(requests)

        service.query_batch = gated
        return calls, scoring, release

    @staticmethod
    def ride_behind_plug(co, plug_user, riders, submit, scoring, release):
        """Park ``plug_user`` in the flusher, then run one ``submit(co,
        user)`` thread per rider while it is still scoring."""
        plug = threading.Thread(target=lambda: co.submit(plug_user, timeout=30))
        plug.start()
        assert scoring.wait(30)
        threads = [threading.Thread(target=submit, args=(co, u)) for u in riders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        release.set()
        plug.join(timeout=30.0)
        assert not plug.is_alive()

    def test_size_trigger_flushes_full_batch(self, service, checkpoints):
        """Four riders arrive while the flusher is busy with a plug: the
        fourth completes the batch and scores all four inline."""
        clients = checkpoints["clients"]
        users = [c.user_id for c in clients[1:5]]
        expected = {u: service.query(u).items for u in users}
        calls, scoring, release = self.plugged(service)
        results = {}

        def submit(co, user):
            results[user] = co.submit(user, timeout=30)

        with RequestCoalescer(service, max_batch=4) as co:
            self.ride_behind_plug(co, clients[0].user_id, users, submit, scoring, release)
            stats = co.stats()
        assert calls == [1, 4] and stats["size_flushes"] == 1
        assert set(results) == set(users)
        for user, answer in results.items():
            assert np.array_equal(answer.items, expected[user])

    def test_deadline_trigger_flushes_lone_query(self, service, checkpoints):
        user = checkpoints["clients"][0].user_id
        with RequestCoalescer(service, max_batch=64) as co:
            answer = co.submit(user, timeout=30)
            stats = co.stats()
        assert answer.user_id == user
        assert stats["deadline_flushes"] == 1 and stats["size_flushes"] == 0

    def test_errors_propagate_to_submitter(self, service):
        with RequestCoalescer(service, max_batch=64) as co:
            with pytest.raises(UnknownUserError):
                co.submit(999_999, timeout=30)

    def test_riders_share_a_matmul_never_an_outcome(self, service, checkpoints):
        """Four riders, one batch, one unknown id: the size trigger
        flushes once, three get their own top-k, the fourth its own
        refusal."""
        clients = checkpoints["clients"]
        users = [c.user_id for c in clients[1:4]] + [999_999]
        expected = {u: service.query(u).items for u in users[:3]}
        calls, scoring, release = self.plugged(service)
        outcomes = {}

        def ride(co, user):
            try:
                outcomes[user] = co.submit(user, timeout=30)
            except Exception as error:  # noqa: BLE001 - the outcome under test
                outcomes[user] = error

        with RequestCoalescer(service, max_batch=4) as co:
            self.ride_behind_plug(co, clients[0].user_id, users, ride, scoring, release)
            stats = co.stats()
        assert calls == [1, 4] and stats["size_flushes"] == 1
        for user in users[:3]:
            assert outcomes[user].user_id == user
            assert np.array_equal(outcomes[user].items, expected[user])
        assert isinstance(outcomes[999_999], UnknownUserError)
        assert "999999" in str(outcomes[999_999])

    def test_submit_after_close_raises(self, service, checkpoints):
        co = RequestCoalescer(service)
        co.close()
        with pytest.raises(RuntimeError, match="closed"):
            co.submit(checkpoints["clients"][0].user_id)


class _GatedStub:
    """A scorer with no model: each query's answer is its own user id.

    ``query_batch`` records every batch's size and, while ``gate`` is
    clear, blocks in scoring (``scoring`` says a batch got that far);
    ``delays_s`` (seeded) is the scoring cost of successive batches.
    """

    def __init__(self, gate_open=True, delays_s=(0.0,)):
        self.batches = []
        self.gate, self.scoring = threading.Event(), threading.Event()
        if gate_open:
            self.gate.set()
        self.delays_s = list(delays_s)
        self._lock = threading.Lock()

    def query_batch(self, requests):
        with self._lock:
            delay = self.delays_s[len(self.batches) % len(self.delays_s)]
            self.batches.append(len(requests))
        self.scoring.set()
        assert self.gate.wait(30)
        time.sleep(delay)
        return [
            Recommendation(r.user_id, np.array([r.user_id]), np.zeros(1), 1)
            for r in requests
        ]


class TestCoalescerIdleFlush:
    """The coalescer is work-conserving: a query never waits for
    company.  Batches form only out of queries that arrive while the
    flusher is scoring."""

    def test_lone_queries_return_at_once(self):
        stub = _GatedStub()
        waits = []
        with RequestCoalescer(stub, max_batch=32) as co:
            for user in range(20):
                start = time.perf_counter()
                assert co.submit(user, timeout=30).user_id == user
                waits.append(time.perf_counter() - start)
            stats = co.stats()
        # A timed wait for company would put every lone query at its
        # deadline; an idle flusher scores it at once.
        assert np.median(waits) < 2e-3, waits
        assert stub.batches == [1] * 20
        assert stats["deadline_flushes"] == 20 and stats["size_flushes"] == 0

    def test_queries_behind_a_busy_flusher_ride_together(self):
        stub = _GatedStub(gate_open=False)
        answers = {}

        def submit(co, user):
            answers[user] = co.submit(user, timeout=30).user_id

        with RequestCoalescer(stub, max_batch=32) as co:
            first = threading.Thread(target=submit, args=(co, 0))
            first.start()
            assert stub.scoring.wait(30)  # batch 1 is in scoring
            riders = [threading.Thread(target=submit, args=(co, u)) for u in (1, 2, 3)]
            for thread in riders:
                thread.start()
            for _ in range(3000):
                if co.stats()["pending"] == 3:
                    break
                time.sleep(0.001)
            assert co.stats()["pending"] == 3
            stub.gate.set()
            for thread in [first] + riders:
                thread.join(timeout=30.0)
            assert not any(t.is_alive() for t in [first] + riders)
            stats = co.stats()
        assert stub.batches == [1, 3]
        assert answers == {0: 0, 1: 1, 2: 2, 3: 3}
        assert stats["deadline_flushes"] == 2 and stats["queries"] == 4

    def test_conservation_under_real_threads(self):
        threads_n, submits, max_batch = 16, 200, 8
        rng = np.random.default_rng(11)
        stub = _GatedStub(delays_s=rng.uniform(0.0, 300e-6, size=997))
        wrong, errors = [], []
        co = RequestCoalescer(stub, max_batch=max_batch)

        def client(index):
            try:
                for j in range(submits):
                    user = index * submits + j
                    if co.submit(user, timeout=30).user_id != user:
                        wrong.append(user)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=client, args=(i,)) for i in range(threads_n)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in workers)
        finally:
            sys.setswitchinterval(interval)
            co.close()
        assert not errors, errors[:1]
        assert not wrong, wrong[:5]
        stats = co.stats()
        assert sum(stub.batches) == stats["queries"] == threads_n * submits
        assert max(stub.batches) <= max_batch
        assert stats["pending"] == 0 and not co._flusher.is_alive()


# ----------------------------------------------------------------------
# load_model ergonomics (group optional, helpful errors)
# ----------------------------------------------------------------------
class TestGroupOptional:
    def test_single_group_checkpoint_needs_no_group(self, checkpoints):
        path = checkpoints["paths"]["single"]
        assert load_snapshot(path).groups == ["all"]
        model, meta = load_model(path)
        assert model.dim == meta["dims"]["all"]

    def test_ambiguous_checkpoint_lists_groups(self, checkpoints):
        with pytest.raises(UnknownGroupError, match=r"\['l', 'm', 's'\]"):
            load_model(checkpoints["paths"]["v1"])

    def test_unknown_group_lists_valid_groups(self, checkpoints):
        with pytest.raises(UnknownGroupError, match="valid groups"):
            load_model(checkpoints["paths"]["v1"], "xl")


# ----------------------------------------------------------------------
# Dim-groups scored concurrently (repro.parallel.run_groups)
# ----------------------------------------------------------------------
@pytest.fixture(
    scope="module",
    params=[
        (arch, dtype) for arch in ("ncf", "mf", "lightgcn") for dtype in ("float32", "float64")
    ],
    ids="-".join,
)
def group_run(request, tmp_path_factory, tiny_dataset, tiny_clients):
    """A trained HeteFedRec of one arch and dtype, and its checkpoint."""
    arch, dtype = request.param
    trainer = HeteFedRec(
        tiny_dataset.num_items, tiny_clients,
        HeteFedRecConfig(seed=0, arch=arch, dtype=dtype, **CONFIG),
    )
    trainer.run_epoch(1)
    path = str(tmp_path_factory.mktemp("groups") / f"{arch}-{dtype}.npz")
    save_checkpoint_impl(trainer, path)
    return trainer, path


class TestConcurrentGroups:
    """A query batch and an evaluation block score their dim-groups on up
    to one thread per core.  Which thread scores which group must not
    matter: one and three cores give bitwise-equal answers, scores,
    versions, cache contents and score blocks; a failing group's exception
    surfaces unchanged after every thread has joined; a small call starts
    no thread; and every top-k runs on the calling thread."""

    @pytest.fixture()
    def cores(self, monkeypatch):
        """``cores(n)`` runs every call on up to ``n`` threads, however
        small; returns the names of the threads run_groups starts."""
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        def use(count):
            monkeypatch.setattr(parallel, "cpu_count", lambda: count)
            monkeypatch.setattr(parallel, "SERIAL_CELLS", 0)
            return started

        monkeypatch.setattr(parallel.threading, "Thread", Recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        yield use
        sys.setswitchinterval(interval)

    @staticmethod
    def workers(started):
        return [name for name in started if name.startswith("groups-")]

    @staticmethod
    def mixed_batches(clients, num_items):
        """Two batches over every user: mixed ``k``, per-request
        exclusions, an unknown user, an out-of-range exclude id; the
        second batch is partly answered from the cache."""
        users = [client.user_id for client in clients]
        first = [
            QueryRequest(
                user, (None, 3, 7)[n % 3],
                np.array([n % num_items, (5 * n) % num_items]) if n % 4 == 1 else None,
            )
            for n, user in enumerate(users)
        ]
        first.insert(3, QueryRequest(999_999, 4))
        first.insert(8, QueryRequest(users[0], 4, np.array([0, num_items])))
        second = [QueryRequest(user, (None, 7)[n % 2]) for n, user in enumerate(users[::2])]
        return [first, second]

    @staticmethod
    def served(service, batches):
        slots = []
        for batch in batches:
            for slot in service.query_batch(batch):
                if isinstance(slot, Exception):
                    slots.append((type(slot), str(slot)))
                else:
                    slots.append((
                        slot.user_id, slot.items.dtype, slot.items.tobytes(),
                        slot.scores.dtype, slot.scores.tobytes(),
                        slot.model_version, slot.cached,
                    ))
        cache = [
            (key, items.tobytes(), scores.tobytes())
            for key, (items, scores) in service._cache._entries.items()
        ]
        return slots, cache

    def test_query_batch_is_bitwise_equal_on_one_and_three_cores(
        self, group_run, tiny_clients, cores
    ):
        _, path = group_run
        history = {client.user_id: client.train_items for client in tiny_clients}
        runs = []
        for count in (1, 3):
            started = cores(count)
            service = RecommendationService(path, k=5, history=history, exclude_seen=True)
            batches = self.mixed_batches(tiny_clients, service.num_items)
            runs.append(self.served(service, batches))
        assert self.workers(started)  # three cores: workers took groups
        (slots_1, cache_1), (slots_3, cache_3) = runs
        assert slots_1 == slots_3
        assert cache_1 == cache_3
        assert any(slot[-1] for slot in slots_1 if len(slot) == 7)  # cache hits
        assert {slot[0] for slot in slots_1 if len(slot) == 2} == {
            UnknownUserError, ValueError,
        }

    def test_score_item_matrix_is_bitwise_equal_on_one_and_three_cores(
        self, group_run, tiny_clients, cores
    ):
        trainer, _ = group_run
        blocks = []
        for count in (1, 3):
            started = cores(count)
            blocks.append(trainer.score_item_matrix(tiny_clients))
        assert self.workers(started)
        assert blocks[0].dtype == blocks[1].dtype
        assert blocks[0].tobytes() == blocks[1].tobytes()

    def test_first_failing_group_surfaces_after_every_thread_joined(
        self, checkpoints, cores, monkeypatch
    ):
        cores(3)
        service = RecommendationService(checkpoints["paths"]["v1"], k=5, cache_size=0)
        snap = service.snapshot
        first, *_, last = list(snap.users)  # the order groups are scored in
        raised = []

        def failing(*args, **kwargs):
            raised.append(ValueError("first group failed"))
            raise raised[-1]

        def failing_later(*args, **kwargs):  # later in group order: must not win
            raise RuntimeError("a later group failed too")

        monkeypatch.setattr(snap.models[first], "score_matrix", failing)
        monkeypatch.setattr(snap.models[last], "score_matrix", failing_later)
        batch = [QueryRequest(client.user_id) for client in checkpoints["clients"]]
        threads_before = threading.active_count()
        with pytest.raises(ValueError) as caught:
            service.query_batch(batch)
        assert caught.value is raised[0]
        assert threading.active_count() == threads_before

    def test_first_failing_group_of_an_evaluation_block_surfaces(
        self, group_run, tiny_clients, cores, monkeypatch
    ):
        trainer, _ = group_run
        cores(3)
        first, *_, last = trainer.groups
        raised = []

        def failing(*args, **kwargs):
            raised.append(ValueError("first group failed"))
            raise raised[-1]

        def failing_later(*args, **kwargs):
            raise RuntimeError("a later group failed too")

        monkeypatch.setattr(trainer.models[first], "score_matrix", failing)
        monkeypatch.setattr(trainer.models[last], "score_matrix", failing_later)
        threads_before = threading.active_count()
        with pytest.raises(ValueError) as caught:
            trainer.score_item_matrix(tiny_clients)
        assert caught.value is raised[0]
        assert threading.active_count() == threads_before

    def test_a_call_under_the_gate_starts_no_thread(self, checkpoints, cores, monkeypatch):
        started = cores(3)
        monkeypatch.setattr(parallel, "SERIAL_CELLS", 1 << 16)
        service = RecommendationService(checkpoints["paths"]["v1"], k=5, cache_size=0)
        clients = checkpoints["clients"]
        by_group = {}
        for client in clients:
            for group, table in service.snapshot.users.items():
                if table.find(np.array([client.user_id]))[1].any():
                    by_group.setdefault(group, client.user_id)
        pair = [QueryRequest(user) for user in list(by_group.values())[:2]]
        assert len(pair) * service.num_items < parallel.SERIAL_CELLS
        service.query_batch(pair)  # two groups, far below the gate
        assert not self.workers(started)
        monkeypatch.setattr(parallel, "SERIAL_CELLS", 0)
        service.query_batch(pair)
        assert self.workers(started)

    def test_every_top_k_runs_on_the_calling_thread(
        self, checkpoints, cores, monkeypatch
    ):
        # The lifecycle tracer wraps these names, and its span stacks are
        # per thread: a top-k on a worker would open a parentless span.
        import repro.eval.evaluator as evaluator_module
        import repro.serving.service as service_module
        from repro.eval.evaluator import Evaluator

        started = cores(3)
        selected_on = []
        for module in (service_module, evaluator_module):
            top_k = module.blocked_top_k

            def recording(scores, k, top_k=top_k):
                selected_on.append(threading.get_ident())
                return top_k(scores, k)

            monkeypatch.setattr(module, "blocked_top_k", recording)

        clients = checkpoints["clients"]
        service = RecommendationService(checkpoints["paths"]["v1"], k=5, cache_size=0)
        service.query_batch([QueryRequest(client.user_id) for client in clients])
        served_calls = len(selected_on)
        assert served_calls == len(service.snapshot.groups)
        trainer = HeteFedRec(
            service.num_items, clients, HeteFedRecConfig(seed=0, **CONFIG)
        )
        monkeypatch.setattr(evaluator_module, "BLOCK_SIZE", 16)
        Evaluator(clients, k=5).evaluate(trainer.score_item_matrix)
        assert len(selected_on) > served_calls
        assert self.workers(started)
        assert set(selected_on) == {threading.get_ident()}


# ----------------------------------------------------------------------
# HTTP front end (the production stack: ResilientService + coalescer)
# ----------------------------------------------------------------------
def http_stack(checkpoint, clock=None, **resilience):
    """``(server, front)``: what ``repro serve`` stands up, on a free port."""
    from repro.serving.http_api import ServingHTTPServer

    service = RecommendationService(checkpoint, k=5)
    kwargs = {} if clock is None else {"clock": clock, "sleep": clock.sleep}
    front = ResilientService(service, ResilienceConfig(**resilience), **kwargs)
    server = ServingHTTPServer(front, RequestCoalescer(front), ("127.0.0.1", 0))
    # A short poll interval keeps shutdown() (fixture teardown) quick.
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    ).start()
    return server, front


def http_call(server, method, path, body=None, headers=None):
    """One round trip on a fresh connection: ``(status, headers, json)``.

    Never raises on an error status — and fails loudly if the server
    drops the connection instead of answering.
    """
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
    try:
        conn.putrequest(method, path)
        headers = dict(headers or {})
        if body is not None:
            headers.setdefault("Content-Length", str(len(body)))
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, response.headers, json.loads(response.read())
    finally:
        conn.close()


def swap_body(payload) -> bytes:
    return json.dumps(payload).encode()


#: Every malformed request the door must answer with a 400 (never a
#: dropped connection, a hung handler or a health event).
MALFORMED = {
    "k=0": ("GET", "/v1/recommend?user={user}&k=0", None, None),
    "k=-2": ("GET", "/v1/recommend?user={user}&k=-2", None, None),
    "k=x": ("GET", "/v1/recommend?user={user}&k=x", None, None),
    "user=x": ("GET", "/v1/recommend?user=x", None, None),
    "no-user": ("GET", "/v1/recommend?k=3", None, None),
    "priority=x": ("GET", "/v1/recommend?user={user}&priority=x", None, None),
    "deadline=inf": ("GET", "/v1/recommend?user={user}&deadline_ms=inf", None, None),
    "deadline=nan": ("GET", "/v1/recommend?user={user}&deadline_ms=nan", None, None),
    "deadline=0": ("GET", "/v1/recommend?user={user}&deadline_ms=0", None, None),
    "deadline=-5": ("GET", "/v1/recommend?user={user}&deadline_ms=-5", None, None),
    "swap-list": ("POST", "/v1/swap", swap_body([]), None),
    "swap-null": ("POST", "/v1/swap", swap_body(None), None),
    "swap-string": ("POST", "/v1/swap", swap_body("x"), None),
    "swap-no-key": ("POST", "/v1/swap", swap_body({}), None),
    "swap-int-path": ("POST", "/v1/swap", swap_body({"checkpoint": 5}), None),
    "swap-null-path": ("POST", "/v1/swap", swap_body({"checkpoint": None}), None),
    "swap-nul-in-path": ("POST", "/v1/swap", swap_body({"checkpoint": "a\0b.npz"}), None),
    "swap-not-json": ("POST", "/v1/swap", b"{", None),
    "swap-empty": ("POST", "/v1/swap", b"", None),
    "length=-1": ("POST", "/v1/swap", None, {"Content-Length": "-1"}),
    "length=x": ("POST", "/v1/swap", None, {"Content-Length": "x"}),
    "length=huge": ("POST", "/v1/swap", None, {"Content-Length": str(10**9)}),
    "length-missing": ("POST", "/v1/swap", None, None),
}


class TestHTTP:
    @pytest.fixture()
    def server(self, checkpoints):
        server, _ = http_stack(
            checkpoints["paths"]["v1"], admission_capacity=2, max_waiting=0
        )
        yield server
        server.shutdown()
        server.server_close()

    def get(self, server, path):
        """Body of a GET that must succeed."""
        status, _, body = http_call(server, "GET", path)
        assert status == 200, body
        return body

    def test_healthz(self, server):
        body = self.get(server, "/healthz")
        assert body["status"] == "ok" and body["model_version"] == 1
        assert body["breaker"] == "closed" and body["active_tier_floor"] == "full"

    def test_recommend_roundtrip(self, server, checkpoints):
        user = checkpoints["clients"][0].user_id
        body = self.get(server, f"/v1/recommend?user={user}&k=3")
        assert len(body["items"]) == 3 and body["user"] == user
        assert body["tier"] == "full"
        reference = top_ids(checkpoints["expected"]["v1"][user], 3)
        assert body["items"] == reference.tolist()

    def test_reply_leaves_in_one_segment(self, server, checkpoints):
        """Headers and body go out as one buffered write.  Sent as two
        small segments, the body waits on the client's delayed ACK and
        every keep-alive round trip sits on a flat ~40 ms floor (Linux)."""
        user = checkpoints["clients"][0].user_id
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            round_trips = []
            for _ in range(30):
                start = time.perf_counter()
                conn.request("GET", f"/v1/recommend?user={user}&k=3")
                response = conn.getresponse()
                body = json.loads(response.read())
                round_trips.append(time.perf_counter() - start)
                assert response.status == 200 and len(body["items"]) == 3
        finally:
            conn.close()
        assert float(np.median(round_trips)) < 0.025

    def test_unknown_user_is_404(self, server):
        status, _, body = http_call(server, "GET", "/v1/recommend?user=999999")
        assert status == 404 and "999999" in body["error"]
        # A client error is not a health event.
        assert self.get(server, "/healthz")["status"] == "ok"

    def test_missing_user_param_is_400(self, server):
        status, _, _ = http_call(server, "GET", "/v1/recommend?k=3")
        assert status == 400

    def test_stats_includes_coalescer(self, server):
        body = self.get(server, "/v1/stats")
        assert "coalescer" in body and body["model_version"] == 1
        assert body["resilience"]["admission"]["capacity"] == 2

    def test_swap_and_mismatch(self, server, checkpoints, tmp_path):
        status, _, body = http_call(
            server, "POST", "/v1/swap",
            swap_body({"checkpoint": checkpoints["paths"]["v2"]}),
        )
        assert status == 200 and body == {"status": "swapped", "model_version": 2}
        # The guarded swap quarantines a mismatched candidate: offer a copy.
        mismatched = str(tmp_path / "mf.npz")
        shutil.copyfile(checkpoints["paths"]["mf"], mismatched)
        status, _, _ = http_call(
            server, "POST", "/v1/swap", swap_body({"checkpoint": mismatched})
        )
        assert status == 409
        assert os.path.exists(str(tmp_path / "mf.corrupt"))
        assert self.get(server, "/healthz")["model_version"] == 2

    def test_missing_checkpoint_is_400(self, server, tmp_path):
        status, _, body = http_call(
            server, "POST", "/v1/swap",
            swap_body({"checkpoint": str(tmp_path / "never.npz")}),
        )
        assert status == 400 and body["error"].startswith("checkpoint unreadable")

    def test_truncated_checkpoint_is_409_and_quarantined(
        self, server, checkpoints, tmp_path
    ):
        """A torn candidate is refused like any other: the door's one
        content error, not whatever the zip layer happened to raise."""
        torn = str(tmp_path / "torn.npz")
        with open(checkpoints["paths"]["v2"], "rb") as handle:
            blob = handle.read()
        with open(torn, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        status, _, body = http_call(
            server, "POST", "/v1/swap", swap_body({"checkpoint": torn})
        )
        assert status == 409 and "torn or corrupt" in body["error"]
        assert not os.path.exists(torn)
        with open(str(tmp_path / "torn.corrupt"), "rb") as handle:
            assert handle.read() == blob[: len(blob) // 2]
        user = checkpoints["clients"][0].user_id
        status, _, answer = http_call(server, "GET", f"/v1/recommend?user={user}")
        assert status == 200 and answer["model_version"] == 1

    def test_full_admission_queue_is_503_with_retry_after(self, server, checkpoints):
        user = checkpoints["clients"][0].user_id
        held = [server.front.try_admit() for _ in range(2)]  # capacity, no wait room
        status, headers, body = http_call(server, "GET", f"/v1/recommend?user={user}")
        assert status == 503 and "queue full" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        for ticket in held:
            server.front.admission.release(ticket)
        status, _, body = http_call(server, "GET", f"/v1/recommend?user={user}")
        assert status == 200 and body["tier"] == "full"

    def test_drain_is_503_with_retry_after(self, server, checkpoints):
        user = checkpoints["clients"][0].user_id
        server.front.drain()
        status, headers, body = http_call(server, "GET", f"/v1/recommend?user={user}")
        assert status == 503 and "draining" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        status, _, body = http_call(server, "GET", "/healthz")
        assert status == 503 and body["status"] == "draining"

    def test_expired_deadline_is_504_and_metered(self, server, checkpoints):
        user = checkpoints["clients"][0].user_id
        # A 0.1µs budget is spent before the coalescer can flush.
        status, _, body = http_call(
            server, "GET", f"/v1/recommend?user={user}&deadline_ms=0.0001"
        )
        assert status == 504 and "deadline" in body["error"]
        stats = self.get(server, "/v1/stats")["resilience"]
        assert stats["deadline_overruns"] == 1
        assert stats["admission"]["executing"] == 0  # the slot came back

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_request_is_400_and_harmless(self, server, checkpoints, case):
        users = [c.user_id for c in checkpoints["clients"]]
        method, path, body, headers = MALFORMED[case]
        status, _, reply = http_call(
            server, method, path.format(user=users[0]), body, headers
        )
        assert status == 400 and isinstance(reply["error"], str)
        # The server shrugged it off: healthy, nothing recorded as a model
        # failure, and the next well-formed request gets live scoring.
        status, _, health = http_call(server, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        window = server.front.stats()["resilience"]["health"]
        assert window["failures_in_window"] == 0
        status, _, answer = http_call(server, "GET", f"/v1/recommend?user={users[1]}")
        assert status == 200 and answer["tier"] == "full"
        assert server.front.admission.executing == 0

    def test_unknown_post_route_is_404(self, server):
        status, _, body = http_call(server, "POST", "/v1/nope", b"{}")
        assert status == 404 and "no route" in body["error"]


class TestPoisonedBatchOverHTTP:
    """``repro serve``'s own wiring and defaults (``max_batch=32``):
    callers asking for a user nobody has, beside callers asking for
    their own."""

    GOOD, BAD, REQUESTS = 8, 2, 25

    def test_a_bad_id_is_404_for_its_sender_only(self, checkpoints):
        server, _ = http_stack(checkpoints["paths"]["v1"])
        users = [c.user_id for c in checkpoints["clients"][: self.GOOD]]
        replies = {user: [] for user in users + [999_999 + i for i in range(self.BAD)]}
        start = threading.Barrier(len(replies))

        def client(user):
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
            try:
                start.wait(timeout=30)
                for _ in range(self.REQUESTS):
                    conn.request("GET", f"/v1/recommend?user={user}&k=3")
                    response = conn.getresponse()
                    replies[user].append((response.status, json.loads(response.read())))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(u,)) for u in replies]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            status, _, health = http_call(server, "GET", "/healthz")
            _, _, stats = http_call(server, "GET", "/v1/stats")
        finally:
            server.shutdown()
            server.server_close()
        assert (status, health["status"]) == (200, "ok")
        # The scenario happened: offenders did ride with strangers.
        flushes = stats["coalescer"]["size_flushes"] + stats["coalescer"]["deadline_flushes"]
        assert flushes < len(replies) * self.REQUESTS
        for user, answers in replies.items():
            assert len(answers) == self.REQUESTS
            if user in users:
                assert [code for code, _ in answers] == [200] * self.REQUESTS, user
                assert all(body["user"] == user for _, body in answers)
            else:
                assert [code for code, _ in answers] == [404] * self.REQUESTS
                assert all(str(user) in body["error"] for _, body in answers)
        # Delivered answers are counted, refusals are not.
        assert sum(stats["resilience"]["tiers"].values()) == self.GOOD * self.REQUESTS


class TestDrainAnswersAdmitted:
    """The graceful drain closes the coalescer only after the in-flight
    handlers are joined: a request admitted before the drain that
    reaches ``submit`` after ``shutdown()`` returned is still answered."""

    def test_request_admitted_before_drain_is_answered(self, checkpoints):
        server, front = http_stack(checkpoints["paths"]["v1"])
        user = checkpoints["clients"][0].user_id
        submit = server.coalescer.submit
        entered, proceed = threading.Event(), threading.Event()

        def late_submit(*args, **kwargs):
            entered.set()
            assert proceed.wait(30)
            return submit(*args, **kwargs)

        server.coalescer.submit = late_submit
        replies = []
        client = threading.Thread(target=lambda: replies.append(
            http_call(server, "GET", f"/v1/recommend?user={user}&k=3")
        ))
        client.start()
        assert entered.wait(30)  # admitted, not yet in the coalescer
        front.drain()
        server.shutdown()  # the accept loop is down; the handler is not
        proceed.set()
        closer = threading.Thread(target=server.server_close)
        closer.start()
        closer.join(timeout=30.0)
        client.join(timeout=30.0)
        assert not closer.is_alive() and not client.is_alive()
        assert len(replies) == 1, "the admitted request was dropped"
        status, _, body = replies[0]
        assert status == 200 and body["user"] == user
        with pytest.raises(RuntimeError, match="closed"):
            submit(user)  # the drain did close the coalescer


class TestOneAdmissionDriver:
    """``ResilientService.query`` and the HTTP path are the same driver:
    for the same scripted wait and the same scripted scoring time they
    feed the wait estimate the same ``service_seconds`` and meter the
    same overruns."""

    SCORING_S = 0.05
    WAIT_S = 0.30

    def drive(self, checkpoints, over_http: bool) -> dict:
        clock = ManualClock()
        server, front = http_stack(
            checkpoints["paths"]["v1"], clock=clock,
            admission_capacity=1, max_waiting=1,
        )
        users = [c.user_id for c in checkpoints["clients"]]
        inner = front.service
        score = inner.query_batch

        def slow(requests):
            clock.advance(self.SCORING_S)  # scoring costs scripted time
            return score(requests)

        inner.query_batch = slow
        outcomes = []

        def ask(user, deadline_ms):
            if over_http:
                status, _, _ = http_call(
                    server, "GET",
                    f"/v1/recommend?user={user}&deadline_ms={deadline_ms}",
                )
                outcomes.append(status)
                return
            try:
                front.query(user, deadline_ms=deadline_ms)
                outcomes.append(200)
            except DeadlineExceededError:
                outcomes.append(504)

        try:
            # 1. Waits WAIT_S behind a held slot, then scores in SCORING_S.
            holder = front.try_admit()
            waiter = threading.Thread(target=ask, args=(users[0], 1000.0))
            waiter.start()
            for _ in range(2000):
                if front.admission.waiting == 1:
                    break
                time.sleep(0.001)
            assert front.admission.waiting == 1
            clock.advance(self.WAIT_S)
            front.admission.release(holder)
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            # 2. Scores (SCORING_S) past a 10ms budget: one overrun.
            ask(users[1], 10.0)
            # 3. The budget runs out in the wait room: cancelled, not an overrun.
            holder = front.try_admit()
            ask(users[2], 100.0)
            front.admission.release(holder)
        finally:
            server.shutdown()
            server.server_close()
        stats = front.stats()["resilience"]
        return {
            "outcomes": outcomes,
            "ema_service_ms": round(stats["admission"]["ema_service_ms"], 6),
            "deadline_overruns": stats["deadline_overruns"],
            "wasted_ms": stats["wasted_ms"],
            "cancelled": stats["admission"]["cancelled"],
        }

    def test_query_and_http_meter_identically(self, checkpoints):
        in_process = self.drive(checkpoints, over_http=False)
        over_http = self.drive(checkpoints, over_http=True)
        assert in_process == over_http
        assert in_process["outcomes"] == [200, 504, 504]
        # service_seconds = SCORING_S both times, never WAIT_S + SCORING_S:
        # two EMA steps of 0.2 from the 10ms seed towards 50ms.
        assert in_process["ema_service_ms"] == pytest.approx(24.4)
        assert in_process["deadline_overruns"] == 1
        assert in_process["wasted_ms"] == pytest.approx(self.SCORING_S * 1000.0)
        assert in_process["cancelled"] == 1
