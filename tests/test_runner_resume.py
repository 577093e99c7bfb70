"""Preemption-tolerant grid workers: a killed spec resumes, not restarts.

Pins the PR contract for ``experiments/runner.py``: a worker killed
mid-run leaves a cache-keyed full-state checkpoint behind; the next
worker to pick the spec up restores it, trains only the remaining
epochs, and publishes a result bitwise-identical to an uninterrupted
run.  Stale or corrupt checkpoints are discarded, and a finished run
cleans its checkpoint up.
"""

import os
import struct
import zipfile
from dataclasses import asdict

import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import RunSpec, run_spec
from repro.federated.checkpoint import (
    CheckpointMismatchError,
    read_checkpoint,
    read_manifest,
    remove_checkpoint,
)
from repro.federated.trainer import FederatedTrainer
from repro.io import quarantine


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path / "cache"))
    yield


@pytest.fixture()
def epoch_recorder(monkeypatch):
    """Record every epoch actually trained, with an optional kill switch."""
    state = {"trained": [], "die_at": None}
    original = FederatedTrainer.run_epoch

    def wrapped(self, epoch):
        if state["die_at"] is not None and epoch == state["die_at"]:
            raise KeyboardInterrupt("simulated preemption")
        state["trained"].append(epoch)
        return original(self, epoch)

    monkeypatch.setattr(FederatedTrainer, "run_epoch", wrapped)
    return state


SPEC = RunSpec("ml", "hetefedrec", profile="smoke")


def checkpoint_path():
    return runner._spec_checkpoint_path(SPEC.key())


def flip_inside_member(path) -> bytes:
    """Damage ``path`` where only reading a member can notice: invert
    the middle byte of its largest member's stored bytes, which leaves
    every header intact and only the member's CRC-32 to object.
    Returns the damaged file's bytes."""
    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda member: member.compress_size)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    blob[start + info.compress_size // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(blob)
    return bytes(blob)


class TestWorkerResume:
    def test_killed_spec_resumes_from_checkpoint(self, epoch_recorder):
        truth = runner._train_spec(SPEC)  # clean, stateless ground truth

        epoch_recorder["die_at"] = 2
        with pytest.raises(KeyboardInterrupt):
            run_spec(SPEC)  # dies mid-schedule, after the epoch-1 autosave
        assert os.path.exists(checkpoint_path())
        assert runner._load_cached(SPEC.key()) is None

        epoch_recorder["die_at"] = None
        epoch_recorder["trained"].clear()
        result = run_spec(SPEC)
        # Only the remaining epoch trained (smoke profile = 2 epochs)...
        assert epoch_recorder["trained"] == [2]
        # ...yet the published result is the uninterrupted run's, exactly.
        assert asdict(result) == asdict(truth)
        # Completion cleans the checkpoint up and publishes the cache entry.
        assert not os.path.exists(checkpoint_path())
        assert runner._load_cached(SPEC.key()) is not None

    def test_corrupt_checkpoint_restarts_cleanly(self, epoch_recorder):
        truth = runner._train_spec(SPEC)
        epoch_recorder["trained"].clear()
        os.makedirs(runner.CACHE_DIR, exist_ok=True)
        with open(checkpoint_path(), "wb") as handle:
            handle.write(b"not a checkpoint")

        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_spec(SPEC)
        assert epoch_recorder["trained"] == [1, 2]  # full restart
        assert asdict(result) == asdict(truth)
        assert not os.path.exists(checkpoint_path())
        # The unreadable checkpoint is preserved for post-mortems, byte
        # for byte, under the quarantine name — never silently deleted.
        quarantine = checkpoint_path()[: -len(".npz")] + ".corrupt"
        assert os.path.exists(quarantine)
        with open(quarantine, "rb") as handle:
            assert handle.read() == b"not a checkpoint"

    def test_leftover_damaged_inside_a_member_restarts_cleanly(self, epoch_recorder):
        """Damage that surfaces only when a member is read once crashed
        the worker (then a ``zlib.error`` from the inflater, in no catch
        list); members are stored now and the CRC-32 check objects."""
        truth = runner._train_spec(SPEC)
        epoch_recorder["die_at"] = 2
        with pytest.raises(KeyboardInterrupt):
            run_spec(SPEC)
        damaged = flip_inside_member(checkpoint_path())
        with pytest.raises(CheckpointMismatchError, match="torn or corrupt") as refusal:
            read_checkpoint(checkpoint_path())
        assert isinstance(refusal.value.__cause__, zipfile.BadZipFile)
        assert "CRC" in str(refusal.value.__cause__)

        epoch_recorder["die_at"] = None
        epoch_recorder["trained"].clear()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_spec(SPEC)
        assert epoch_recorder["trained"] == [1, 2]  # full restart
        assert asdict(result) == asdict(truth)
        corpse = checkpoint_path()[: -len(".npz")] + ".corrupt"
        with open(corpse, "rb") as handle:
            assert handle.read() == damaged
        assert sorted(os.listdir(runner.CACHE_DIR)) == sorted(
            [os.path.basename(corpse), f"{SPEC.key()}.json"]
        )

    def test_a_quarantined_or_removed_checkpoint_leaves_no_manifest_behind(
        self, epoch_recorder
    ):
        """One file: at the parent the orphaned ``.meta.json`` sidecar
        kept answering ``read_manifest`` for an ``.npz`` that was gone."""
        epoch_recorder["die_at"] = 2
        with pytest.raises(KeyboardInterrupt):
            run_spec(SPEC)
        assert read_manifest(checkpoint_path())["progress"]["epochs_completed"] == 1
        corpse = quarantine(checkpoint_path())
        with pytest.raises(FileNotFoundError):
            read_manifest(checkpoint_path())
        assert os.listdir(runner.CACHE_DIR) == [os.path.basename(corpse)]
        os.replace(corpse, checkpoint_path())
        remove_checkpoint(checkpoint_path())
        assert os.listdir(runner.CACHE_DIR) == []
        remove_checkpoint(checkpoint_path())  # idempotent

    def test_checkpoint_outlives_a_failed_publish(
        self, epoch_recorder, monkeypatch
    ):
        """The checkpoint is deleted only after the cache entry lands: a
        kill between training and publishing must not lose the run."""

        def failing_store(key, result):
            raise KeyboardInterrupt("killed while publishing")

        monkeypatch.setattr(runner, "_store_cached", failing_store)
        with pytest.raises(KeyboardInterrupt):
            run_spec(SPEC)
        # The final-epoch autosave survives, so the next worker resumes
        # (fit is a no-op) instead of retraining from scratch.
        assert os.path.exists(checkpoint_path())
        monkeypatch.undo()
        epoch_recorder["trained"].clear()
        result = run_spec(SPEC)
        assert epoch_recorder["trained"] == []  # nothing retrained
        assert asdict(result) == asdict(runner._train_spec(SPEC))
        assert not os.path.exists(checkpoint_path())

    def test_stateless_runs_never_touch_checkpoints(self, epoch_recorder):
        runner._train_spec(SPEC)
        assert not os.path.isdir(runner.CACHE_DIR) or not os.listdir(
            runner.CACHE_DIR
        )

    def test_clear_cache_sweeps_orphaned_checkpoints(self, epoch_recorder):
        epoch_recorder["die_at"] = 2
        with pytest.raises(KeyboardInterrupt):
            run_spec(SPEC)
        assert os.path.exists(checkpoint_path())
        runner.clear_cache()
        assert os.listdir(runner.CACHE_DIR) == []
