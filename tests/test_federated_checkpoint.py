"""Tests for checkpoint save/load and inference-model restoration.

Covers the versioned-manifest compatibility contract (every mismatch —
wrong arch, wrong dims, missing group, extra/missing users, wrong
dtype, wrong feature set, wrong format version — raises
:class:`CheckpointMismatchError` rather than silently truncating), the
dtype-persistence fix for deploy-side loading, and full-state
restoration of the RNG/progress sections.  The bitwise resume pins live
in ``tests/test_checkpoint_resume.py``.
"""

import json
import os
import struct
import time
import zipfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_trainer import tape_scores
from tape_models import logits

import repro.federated.checkpoint as checkpoint_module
from repro.compression.codecs import CompressionConfig
from repro.core import HeteFedRec, HeteFedRecConfig
from repro.federated.availability import AvailabilityConfig
from repro.robustness import AttackConfig, RobustAggregationConfig
from repro.api import load_model, user_embedding_from_checkpoint
from repro.federated.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint_impl as load_checkpoint,
    read_manifest,
    save_checkpoint_impl as save_checkpoint,
)

from malformed_checkpoints import (
    BAD_CLIENT_RNG,
    MALFORMED_CHECKPOINTS,
    MISSING_SECTIONS,
    forge,
    resume_state,
)


@pytest.fixture()
def trained(tiny_dataset, tiny_clients):
    config = HeteFedRecConfig(
        dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01, seed=0
    )
    trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
    trainer.run_epoch(1)
    return trainer


def fresh_trainer(tiny_dataset, tiny_clients, seed=123, **overrides):
    config = HeteFedRecConfig(
        dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01, seed=seed
    ).copy_with(**overrides)
    return HeteFedRec(tiny_dataset.num_items, tiny_clients, config)


class TestSaveLoad:
    def test_roundtrip_restores_everything(
        self, trained, tiny_dataset, tiny_clients, tmp_path
    ):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        other = fresh_trainer(tiny_dataset, tiny_clients)
        load_checkpoint(other, path)

        for group in trained.groups:
            a = trained.models[group].state_dict()
            b = other.models[group].state_dict()
            for key in a:
                assert np.array_equal(a[key], b[key]), (group, key)
        for user_id, runtime in trained.runtimes.items():
            assert np.array_equal(
                runtime.user_embedding, other.runtimes[user_id].user_embedding
            )

    def test_restored_trainer_scores_identically(
        self, trained, tiny_dataset, tiny_clients, tmp_path
    ):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        other = fresh_trainer(tiny_dataset, tiny_clients)
        load_checkpoint(other, path)
        client = tiny_clients[0]
        assert np.allclose(
            tape_scores(trained, client), tape_scores(other, client)
        )

    def test_meta_sidecar_written(self, trained, tmp_path):
        """One file: the manifest rides inside the ``.npz`` and nothing
        is written beside it (the ``.meta.json`` sidecar is gone)."""
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_save_creates_parent_directories(self, trained, tmp_path):
        """An autosave target in a not-yet-existing directory must not
        crash after a whole epoch of training."""
        path = str(tmp_path / "nested" / "dir" / "ckpt.npz")
        save_checkpoint(trained, path)
        assert os.path.exists(path)

    def test_full_state_sections_restored(
        self, trained, tiny_dataset, tiny_clients, tmp_path
    ):
        """Progress, history, meter and every RNG stream survive a load."""
        path = str(tmp_path / "ckpt.npz")
        trained._epochs_done = 1
        save_checkpoint(trained, path)
        other = fresh_trainer(tiny_dataset, tiny_clients)
        load_checkpoint(other, path)

        assert other.epochs_completed == 1
        assert other._round_counter == trained._round_counter
        assert other.meter.export_state() == trained.meter.export_state()
        assert other.history.export_records() == trained.history.export_records()
        # RNG streams replay identically: server-side draws...
        assert np.array_equal(
            trained._rng.permutation(16), other._rng.permutation(16)
        )
        assert np.array_equal(trained._ddr_rng.integers(0, 100, 8),
                              other._ddr_rng.integers(0, 100, 8))
        # ...and each client's private + sampler streams.
        user = tiny_clients[0].user_id
        assert np.array_equal(
            trained.runtimes[user].rng.normal(size=4),
            other.runtimes[user].rng.normal(size=4),
        )
        assert np.array_equal(
            trained.runtimes[user].sampler._rng.integers(0, 100, 8),
            other.runtimes[user].sampler._rng.integers(0, 100, 8),
        )

    def test_manifest_readable(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        meta = read_manifest(path)
        assert meta["format_version"] == checkpoint_module.FORMAT_VERSION
        assert meta["method"] == "hetefedrec"
        assert meta["arch"] == "ncf"
        assert meta["dtype"] == "float64"
        assert meta["dims"] == {"s": 4, "m": 6, "l": 8}


class TestUserTableLayout:
    """One ``(ids, values)`` pair per dim-group (since format v4), and
    the id arrays are the group assignment."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_per_group_arrays_are_the_live_tables(
        self, tiny_dataset, tiny_clients, tmp_path, dtype
    ):
        trainer = fresh_trainer(tiny_dataset, tiny_clients, seed=0, dtype=dtype)
        trainer.run_epoch(1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        with np.load(path) as archive:
            members = [key for key in archive.files if key.startswith("user")]
            assert sorted(members) == sorted(
                f"users/{group}/{part}"
                for group in trainer.groups
                for part in ("ids", "values")
            )
            for group, table in trainer.user_tables.items():
                ids, values = archive[f"users/{group}/ids"], archive[f"users/{group}/values"]
                assert ids.dtype == np.int64 and values.dtype == np.dtype(dtype)
                assert np.array_equal(ids, table.ids)
                assert np.array_equal(values, table.values)
                assert {int(u) for u in ids} == {
                    u for u, g in trainer.group_of.items() if g == group
                }

    def test_no_group_of_in_manifest_or_sidecar(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        assert "group_of" not in read_manifest(path)
        assert os.listdir(tmp_path) == ["ckpt.npz"]  # and no second manifest

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_is_refused_on_resume(
        self, trained, tiny_dataset, tiny_clients, tmp_path, case
    ):
        """The v3 and v4 layouts have no reader; every forged v5 shape is
        refused before any state moves."""
        good = str(tmp_path / "good.npz")
        save_checkpoint(trained, good)
        bad = forge(good, str(tmp_path / "bad.npz"), MALFORMED_CHECKPOINTS[case])
        other = fresh_trainer(tiny_dataset, tiny_clients)
        before = resume_state(other)
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(other, bad)
        assert resume_state(other) == before

    def test_v3_file_is_refused_by_serve(self, trained, tmp_path):
        from repro.api import serve

        good = str(tmp_path / "good.npz")
        save_checkpoint(trained, good)
        bad = forge(good, str(tmp_path / "v3.npz"), MALFORMED_CHECKPOINTS["v3_layout"])
        with pytest.raises(CheckpointMismatchError, match="format version 3"):
            serve(bad)


class TestResumeIsAllOrNothing:
    """A refused checkpoint leaves the trainer exactly as it was, and a
    v5 checkpoint must carry what a v5 writer always writes."""

    @pytest.mark.parametrize("section", sorted(MISSING_SECTIONS))
    def test_missing_section_is_refused_by_name(
        self, tiny_dataset, tiny_clients, tmp_path, section
    ):
        """At the parent: no ``residuals`` resumed with none of them, no
        ``straggler_ages`` with every eviction clock reset, no
        ``history`` / ``meter`` died with a bare ``KeyError`` part-way
        through the restore."""
        features = dict(
            availability=AvailabilityConfig(
                offline_rate=0.15, straggler_rate=0.3, seed=3
            ),
            compression=CompressionConfig(
                kind="topk", ratio=0.1, error_feedback=True
            ),
        )
        trainer = fresh_trainer(tiny_dataset, tiny_clients, seed=0, **features)
        trainer.fit()
        assert trainer._compressor.export_residuals()
        good = str(tmp_path / "good.npz")
        save_checkpoint(trainer, good)
        bad = forge(good, str(tmp_path / "bad.npz"), MISSING_SECTIONS[section])
        other = fresh_trainer(tiny_dataset, tiny_clients, **features)
        before = resume_state(other)
        with pytest.raises(CheckpointMismatchError, match=repr(section)):
            load_checkpoint(other, bad)
        assert resume_state(other) == before
        load_checkpoint(other, good)  # the untouched file still resumes
        assert resume_state(other) == resume_state(trainer)

    def test_dropped_client_rng_entry_leaves_the_trainer_untouched(
        self, trained, tiny_dataset, tiny_clients, tmp_path
    ):
        """Once the right error arrived after models and user tables had
        already been replaced.  The dropped row is the last user's."""
        good = str(tmp_path / "good.npz")
        save_checkpoint(trained, good)
        victim = max(client.user_id for client in tiny_clients)
        bad = forge(good, str(tmp_path / "bad.npz"), BAD_CLIENT_RNG["missing_row"])
        other = fresh_trainer(tiny_dataset, tiny_clients)
        before = resume_state(other)
        with pytest.raises(CheckpointMismatchError, match=f"client {victim}"):
            load_checkpoint(other, bad)
        assert resume_state(other) == before

    @pytest.mark.parametrize("case", sorted(BAD_CLIENT_RNG))
    def test_bad_client_rng_member_leaves_the_trainer_untouched(
        self, trained, tiny_dataset, tiny_clients, tmp_path, case
    ):
        """A missing, repeated or misshapen row, a wrong dtype or another
        recorded bit-generator kind: refused before any stream moves."""
        good = str(tmp_path / "good.npz")
        save_checkpoint(trained, good)
        bad = forge(good, str(tmp_path / "bad.npz"), BAD_CLIENT_RNG[case])
        other = fresh_trainer(tiny_dataset, tiny_clients)
        before = resume_state(other)
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(other, bad)
        assert resume_state(other) == before
        load_checkpoint(other, good)  # the untouched file still resumes
        assert resume_state(other) == resume_state(trained)


class TestFormatV5:
    """Members stored, not deflated; the manifest as UTF-8 bytes with no
    per-user section; the client streams in two ``uint64``/``int64``
    members; the same trainer saves to the same bytes."""

    def test_v4_file_is_refused_by_resume_and_serve(
        self, trained, tiny_dataset, tiny_clients, tmp_path
    ):
        from repro.api import serve

        good = str(tmp_path / "good.npz")
        save_checkpoint(trained, good)
        old = forge(
            good, str(tmp_path / "v4.npz"), MALFORMED_CHECKPOINTS["v4_layout"],
            savez=np.savez_compressed,
        )
        with pytest.raises(CheckpointMismatchError, match="format version 4"):
            serve(old)
        other = fresh_trainer(tiny_dataset, tiny_clients)
        before = resume_state(other)
        with pytest.raises(CheckpointMismatchError, match="format version 4"):
            load_checkpoint(other, old)
        assert resume_state(other) == before

    def test_members_are_stored_and_the_manifest_is_utf8_bytes(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as archive:
            manifest = archive["__manifest__"]
            ids, states = archive["client_rng/ids"], archive["client_rng/state"]
        assert manifest.dtype == np.uint8 and manifest.ndim == 1
        assert read_manifest(path) == json.loads(manifest.tobytes().decode("utf-8"))
        assert ids.tolist() == sorted(trained.runtimes)
        assert states.dtype == np.uint64 and states.shape == (len(ids), 2, 6)

    def test_manifest_has_no_client_rng_and_does_not_grow_with_users(
        self, tiny_dataset, tiny_clients, tmp_path
    ):
        sizes = []
        for count in (len(tiny_clients) // 2, len(tiny_clients)):
            config = HeteFedRecConfig(
                dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01, seed=0
            )
            trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients[:count], config)
            path = str(tmp_path / f"ckpt{count}.npz")
            save_checkpoint(trainer, path)
            meta = read_manifest(path)
            assert "client_rng" not in meta
            assert meta["client_rng_kind"] == "PCG64"
            with np.load(path) as archive:
                sizes.append(archive["__manifest__"].size)
        assert sizes[1] == sizes[0], sizes

    @pytest.mark.parametrize(
        "member",
        ["__manifest__", "model/l/item_embedding.weight", "users/l/values", "client_rng/state"],
    )
    def test_one_flipped_bit_in_a_stored_member_is_refused_at_both_doors(
        self, trained, tiny_dataset, tiny_clients, tmp_path, member
    ):
        """CRC-32 is the only integrity check on member bytes now that
        nothing is inflated: a flip in the middle of a member's data."""
        from repro.api import serve

        path = str(tmp_path / "good.npz")
        save_checkpoint(trained, path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member + ".npy")
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        position = info.header_offset + 30 + name_len + extra_len + info.compress_size // 2
        blob[position] ^= 0x10
        bad = str(tmp_path / "flipped.npz")
        with open(bad, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CheckpointMismatchError, match="torn or corrupt"):
            serve(bad)
        other = fresh_trainer(tiny_dataset, tiny_clients)
        before = resume_state(other)
        with pytest.raises(CheckpointMismatchError, match="torn or corrupt"):
            load_checkpoint(other, bad)
        assert resume_state(other) == before

    def test_saving_twice_seconds_apart_gives_identical_bytes(
        self, trained, tmp_path, monkeypatch
    ):
        """The premise of a content hash: nothing in the archive depends
        on when it was written (numpy stamps every entry 1980-01-01)."""
        first, second = str(tmp_path / "first.npz"), str(tmp_path / "second.npz")
        save_checkpoint(trained, first)
        later, localtime = time.time() + 400 * 86_400, time.localtime
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(
            time, "localtime", lambda secs=None: localtime(later if secs is None else secs)
        )
        save_checkpoint(trained, second)
        monkeypatch.undo()
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


class TestCheckpointDoorFuzz:
    """ROADMAP 9(2), both checkpoint doors: a damaged file is either
    refused at load with :class:`CheckpointMismatchError` — and a
    refused ``resume`` leaves the trainer untouched — or it behaves
    exactly as the pristine file does.  Never accepted and then crashing
    at query time, never half-restored, never another exception type."""

    LOAD_ERRORS = (CheckpointMismatchError,)

    @pytest.fixture(scope="class")
    def pristine(self, tiny_dataset, tiny_clients, tmp_path_factory):
        from repro.api import serve

        trainer = fresh_trainer(tiny_dataset, tiny_clients, seed=0)
        trainer.run_epoch(1)
        root = tmp_path_factory.mktemp("fuzz")
        path = str(root / "good.npz")
        save_checkpoint(trainer, path)
        users = [client.user_id for client in tiny_clients]
        with open(path, "rb") as handle:
            blob = handle.read()
        return {
            "path": path,
            "blob": blob,
            "meta": read_manifest(path),
            "users": users,
            "answers": self.answers(serve(path, cache_size=0), users),
            "restored": resume_state(trainer),
            "fresh": lambda: fresh_trainer(tiny_dataset, tiny_clients),
            "scratch": str(root / "damaged.npz"),
        }

    @staticmethod
    def answers(service, users):
        from repro.api import QueryRequest

        return [a.items.tolist() for a in service.query_batch([QueryRequest(u, 5) for u in users])]

    def check(self, pristine):
        from repro.api import resume, serve

        try:
            service = serve(pristine["scratch"], cache_size=0)
        except self.LOAD_ERRORS:
            pass
        else:
            # Accepted: it must answer, and answer what the untouched file does.
            assert self.answers(service, pristine["users"]) == pristine["answers"]

        trainer = pristine["fresh"]()
        before = resume_state(trainer)
        try:
            resume(trainer, pristine["scratch"])
        except self.LOAD_ERRORS:
            assert resume_state(trainer) == before
        else:
            assert resume_state(trainer) == pristine["restored"]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_truncated_or_bit_flipped_archive(self, pristine, data):
        blob = pristine["blob"]
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            position = data.draw(st.integers(0, len(blob) - 1), label="byte")
            flipped = blob[position] ^ (1 << data.draw(st.integers(0, 7), label="bit"))
            damaged = blob[:position] + bytes([flipped]) + blob[position + 1 :]
        with open(pristine["scratch"], "wb") as handle:
            handle.write(damaged)
        self.check(pristine)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_one_swapped_manifest_field(self, pristine, data):
        meta = pristine["meta"]
        field = data.draw(st.sampled_from(sorted(meta)), label="field")
        junk = st.one_of(
            st.none(), st.integers(-3, 99), st.text(max_size=4),
            st.sampled_from(["mf", "ncf", "lightgcn", "float32", "float64"]),
            st.lists(st.integers(0, 9), max_size=3),
            st.dictionaries(st.sampled_from(["s", "m", "l", "x"]), st.integers(0, 9), max_size=4),
            st.sampled_from([meta[key] for key in sorted(meta) if key != field]),
        )
        value = data.draw(junk, label="value")
        # The one swap no reader can see: all three architectures share
        # a parameter layout, so the manifest is the only record of which
        # scorer the weights belong to.  Another valid ``arch`` is a
        # different, well-formed checkpoint, not a malformed one.
        assume(not (field == "arch" and value in ("mf", "ncf", "lightgcn")))

        def swap(arrays, manifest):
            manifest[field] = value

        forge(pristine["path"], pristine["scratch"], swap)
        self.check(pristine)


class TestMismatch:
    """Every incompatibility raises; nothing ever silently truncates."""

    @pytest.fixture()
    def saved(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        return path

    def test_wrong_arch(self, saved, tiny_dataset, tiny_clients):
        other = fresh_trainer(tiny_dataset, tiny_clients, arch="mf")
        with pytest.raises(CheckpointMismatchError, match="arch"):
            load_checkpoint(other, saved)

    def test_wrong_dims(self, saved, tiny_dataset, tiny_clients):
        other = fresh_trainer(
            tiny_dataset, tiny_clients, dims={"s": 4, "m": 6, "l": 12}
        )
        with pytest.raises(CheckpointMismatchError, match="dims"):
            load_checkpoint(other, saved)

    def test_wrong_hidden(self, saved, tiny_dataset, tiny_clients):
        other = fresh_trainer(tiny_dataset, tiny_clients, hidden=(4, 4))
        with pytest.raises(CheckpointMismatchError, match="hidden"):
            load_checkpoint(other, saved)

    def test_missing_group(self, saved, tiny_dataset, tiny_clients):
        """A two-group trainer cannot absorb a three-group checkpoint."""
        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6}, ratios=(1, 1, 0), epochs=1, local_epochs=1
        )
        other = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(other, saved)

    def test_missing_users(self, saved, tiny_dataset, tiny_clients):
        """Trainer clients absent from the checkpoint must raise."""
        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1
        )
        other = HeteFedRec(tiny_dataset.num_items, tiny_clients[:-3], config)
        with pytest.raises(CheckpointMismatchError, match="group assignment"):
            load_checkpoint(other, saved)

    def test_extra_users(self, trained, tiny_dataset, tiny_clients, tmp_path):
        """Checkpoint users absent from the trainer must raise too."""
        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1
        )
        subset = HeteFedRec(tiny_dataset.num_items, tiny_clients[:-3], config)
        path = str(tmp_path / "subset.npz")
        save_checkpoint(subset, path)
        full = fresh_trainer(tiny_dataset, tiny_clients)
        with pytest.raises(CheckpointMismatchError, match="group assignment"):
            load_checkpoint(full, path)

    def test_reassigned_users(self, saved, trained, tiny_dataset, tiny_clients):
        """Same users, same data, two of them in each other's group."""
        group_of = dict(trained.group_of)
        small = next(u for u, g in group_of.items() if g == "s")
        large = next(u for u, g in group_of.items() if g == "l")
        group_of[small], group_of[large] = "l", "s"
        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01
        )
        other = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config, group_of=group_of
        )
        with pytest.raises(
            CheckpointMismatchError,
            match=rf"reassigned \[{min(small, large)}, {max(small, large)}\]",
        ):
            load_checkpoint(other, saved)

    def test_wrong_dtype(self, saved, tiny_dataset, tiny_clients):
        other = fresh_trainer(tiny_dataset, tiny_clients, dtype="float32")
        with pytest.raises(CheckpointMismatchError, match="dtype"):
            load_checkpoint(other, saved)

    def test_wrong_feature_set(self, saved, tiny_dataset, tiny_clients):
        """A checkpoint without availability state cannot seed a run
        that expects a straggler buffer."""
        other = fresh_trainer(
            tiny_dataset, tiny_clients,
            availability=AvailabilityConfig(offline_rate=0.1, straggler_rate=0.1),
        )
        with pytest.raises(CheckpointMismatchError, match="features"):
            load_checkpoint(other, saved)

    def test_wrong_privacy_setting(self, saved, tiny_dataset, tiny_clients):
        """Privacy protection draws client RNG per upload: enabling it on
        resume would silently change the stream, so it must raise."""
        from repro.federated.privacy import PrivacyConfig

        other = fresh_trainer(
            tiny_dataset, tiny_clients, privacy=PrivacyConfig(clip_norm=1.0)
        )
        with pytest.raises(CheckpointMismatchError, match="features"):
            load_checkpoint(other, saved)

    @pytest.mark.parametrize(
        "field, saved_as, resumed_as",
        [
            ("attack", AttackConfig(kind="noise"), AttackConfig(kind="signflip")),
            (
                "defense",
                RobustAggregationConfig(kind="clip"),
                RobustAggregationConfig(kind="krum"),
            ),
        ],
    )
    def test_wrong_attack_or_defense_kind(
        self, field, saved_as, resumed_as, tiny_dataset, tiny_clients, tmp_path
    ):
        """Poisoning and robust aggregation reshape every remaining
        round, and the method name no longer tells the runs apart: a
        resume under another attack or defense kind must raise."""
        path = str(tmp_path / f"{field}.npz")
        save_checkpoint(
            fresh_trainer(tiny_dataset, tiny_clients, **{field: saved_as}), path
        )
        other = fresh_trainer(tiny_dataset, tiny_clients, **{field: resumed_as})
        with pytest.raises(CheckpointMismatchError, match="features"):
            load_checkpoint(other, path)

    def test_wrong_training_hyperparameters(self, saved, tiny_dataset, tiny_clients):
        """lr / local_epochs / clients_per_round / negative_ratio shape
        every remaining epoch; resuming under different values raises."""
        for override in (
            {"lr": 0.1},
            {"local_epochs": 2},
            {"clients_per_round": 64},
            {"negative_ratio": 2},
        ):
            other = fresh_trainer(tiny_dataset, tiny_clients, **override)
            with pytest.raises(CheckpointMismatchError, match="training"):
                load_checkpoint(other, saved)

    def test_larger_epoch_budget_is_compatible(
        self, saved, tiny_dataset, tiny_clients
    ):
        """Extending the schedule is the point of resuming: not a mismatch."""
        other = fresh_trainer(tiny_dataset, tiny_clients, epochs=9)
        load_checkpoint(other, saved)

    def test_different_data_split(self, saved, tiny_dataset):
        """Same users, same counts, differently permuted train/test split
        (e.g. a different --seed at the CLI) must raise, not hybridise."""
        from repro.data.splitting import train_test_split_per_user

        reshuffled = train_test_split_per_user(tiny_dataset, seed=99)
        other = fresh_trainer(tiny_dataset, reshuffled)
        with pytest.raises(CheckpointMismatchError, match="data split"):
            load_checkpoint(other, saved)

    def test_wrong_method(self, saved, tiny_dataset, tiny_clients):
        from repro.baselines.direct import DirectAggregateTrainer

        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1
        )
        other = DirectAggregateTrainer(tiny_dataset.num_items, tiny_clients, config)
        with pytest.raises(CheckpointMismatchError, match="features"):
            load_checkpoint(other, saved)

    def test_unsupported_format_version(
        self, trained, tiny_dataset, tiny_clients, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "old.npz")
        monkeypatch.setattr(checkpoint_module, "FORMAT_VERSION", 1)
        save_checkpoint(trained, path)
        monkeypatch.undo()
        other = fresh_trainer(tiny_dataset, tiny_clients)
        with pytest.raises(CheckpointMismatchError, match="format version"):
            load_checkpoint(other, path)


class TestDtypePersistence:
    """The manifest records ``config.dtype``; deploy restores it."""

    @pytest.fixture()
    def float32_trained(self, tiny_dataset, tiny_clients):
        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1,
            lr=0.01, seed=0, dtype="float32",
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        trainer.run_epoch(1)
        return trainer

    def test_float32_run_deploys_as_float32(self, float32_trained, tmp_path):
        path = str(tmp_path / "f32.npz")
        save_checkpoint(float32_trained, path)
        model, meta = load_model(path, "l")
        assert meta["dtype"] == "float32"
        for _, param in model.named_parameters():
            assert param.data.dtype == np.float32
        assert np.array_equal(
            model.item_embedding.weight.data,
            float32_trained.models["l"].item_embedding.weight.data,
        )

    def test_served_item_table_is_copied_once(self):
        """Rebuilding a served model costs one copy of its item table, in
        the manifest dtype.  A detour through float64 and a state-dict
        rewrite of the same table made three (about 3× the table's bytes
        at peak)."""
        import tracemalloc

        from repro.models.factory import build_model

        state = build_model("ncf", 20_000, 16, rng=np.random.default_rng(0)).state_dict()
        archive = {f"model/l/{k}": v.astype(np.float32) for k, v in state.items()}
        meta = {
            "arch": "ncf", "num_items": 20_000, "dims": {"l": 16},
            "hidden": [8, 8], "seed": 0, "dtype": "float32",
        }
        table = archive["model/l/item_embedding.weight"]
        tracemalloc.start()
        try:
            model = checkpoint_module.inference_model(archive, meta, "l")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        served = model.item_embedding.weight.data
        assert served.dtype == np.float32
        np.testing.assert_array_equal(served, table)
        assert peak < 1.5 * table.nbytes, peak / table.nbytes

    def test_float32_roundtrip_into_float32_trainer(
        self, float32_trained, tiny_dataset, tiny_clients, tmp_path
    ):
        path = str(tmp_path / "f32.npz")
        save_checkpoint(float32_trained, path)
        other = fresh_trainer(tiny_dataset, tiny_clients, dtype="float32")
        load_checkpoint(other, path)
        for group in other.groups:
            for key, values in other.models[group].state_dict().items():
                assert values.dtype == np.float32, (group, key)


class TestInferenceModel:
    """``load_model`` and ``user_embedding_from_checkpoint`` read through
    serving's ``load_snapshot``."""

    def test_load_single_group(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        model, meta = load_model(path, "l")
        assert model.dim == 8
        assert meta["num_items"] == trained.num_items
        assert np.array_equal(
            model.item_embedding.weight.data,
            trained.models["l"].item_embedding.weight.data,
        )

    def test_unknown_group(self, trained, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        with pytest.raises(KeyError):
            load_model(path, "xl")

    def test_user_embedding_fetch(self, trained, tiny_clients, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        user = tiny_clients[0].user_id
        values = user_embedding_from_checkpoint(path, user)
        assert np.array_equal(values, trained.runtimes[user].user_embedding)
        with pytest.raises(KeyError):
            user_embedding_from_checkpoint(path, 10_000)

    def test_end_to_end_serving(self, trained, tiny_clients, tmp_path):
        """Deploy path: restore model + embedding, score a user."""
        from repro.autograd.tensor import Tensor, no_grad

        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trained, path)
        client = tiny_clients[0]
        group = trained.group_of[client.user_id]
        model, _ = load_model(path, group)
        embedding = user_embedding_from_checkpoint(path, client.user_id)
        with no_grad():
            scores = logits(
                model,
                Tensor(embedding),
                np.arange(trained.num_items),
                train_item_ids=client.train_items,
            )
        assert np.allclose(scores.data, tape_scores(trained, client))
