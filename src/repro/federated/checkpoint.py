"""Checkpointing: persist and restore a federated training run, fully.

A checkpoint captures **everything that feeds the training stream**, so
the repo's bitwise-restart contract holds: *stop at epoch k, resume,
finish → bitwise-identical to the uninterrupted run* (pinned by
``tests/test_checkpoint_resume.py`` the same way
``tests/test_round_engine.py`` pins engine-vs-reference).  Beyond the
per-group public parameters and every client's private user embedding,
that means:

* server-optimiser first/second moments (FedAvgM / FedAdam / FedYogi);
* the trainer's permutation RNG and any subclass streams (HeteFedRec's
  KD/DDR generators), plus each client runtime's private RNG and
  negative-sampler stream (``bit_generator.state`` into the manifest);
* the :class:`~repro.federated.availability.StragglerBuffer`'s pending
  updates, sparse form preserved;
* per-client compression residuals (error feedback);
* the :class:`~repro.federated.communication.CommunicationMeter`, the
  training history, and the epoch/round counters;
* subclass extras through the ``_checkpoint_extra_state`` hook (the
  unlearning ledger, Standalone's per-client model copies).

Layout: one ``.npz`` holding all arrays *and* an embedded JSON manifest
(key ``__manifest__``), written atomically (:func:`repro.io.atomic_write`,
the same helper ``.repro_cache/`` uses) so a crash mid-save can never
leave a torn checkpoint; a human-readable ``.meta.json`` sidecar is
written alongside for inspection and single-group deploy tooling.

The manifest is versioned and validated on load:
:func:`load_checkpoint_impl` raises :class:`CheckpointMismatchError` when the
receiving trainer's architecture, dims, hidden sizes, catalogue size,
dtype, feature set (availability / secure-agg / server-optimiser /
compression / method) or group assignment does not match — never a
silent truncation.

Deploy-side, :func:`load_inference_model_impl` restores one group's model
for serving (in the dtype it was trained in) without reconstructing the
trainer.

Callers outside the package use the :mod:`repro.api` verbs
(``save_checkpoint`` / ``resume`` / ``load_model``); each verb has
exactly one implementation here, under its ``*_impl`` name.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.federated.payload import ClientUpdate, SparseRowDelta
from repro.io import atomic_write
from repro.models.factory import build_model

#: Manifest schema version; bump on layout changes.  Loading any other
#: version raises :class:`CheckpointMismatchError` — resume correctness
#: depends on every state section being present and understood.
#: Version 3 added the privacy accountant's state (``accounting``).
FORMAT_VERSION = 3


class CheckpointMismatchError(ValueError):
    """The checkpoint does not describe the trainer it is being loaded into."""


class UnknownGroupError(KeyError):
    """A dim-group name that the checkpoint's manifest does not carry.

    Subclasses :class:`KeyError` for backward compatibility with callers
    that caught the old bare ``KeyError``, but renders its message plain
    (``KeyError.__str__`` would wrap it in quotes) and always lists the
    valid groups.
    """

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.args[0] if self.args else ""


# ----------------------------------------------------------------------
# Path conventions (unchanged from the parameter-only format)
# ----------------------------------------------------------------------
def _npz_path(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


def _meta_path(path: str) -> str:
    return path + ".meta.json"


def checkpoint_files(path: str) -> Tuple[str, str]:
    """The ``(npz, sidecar)`` file pair a checkpoint at ``path`` occupies."""
    return _npz_path(path), _meta_path(path)


def remove_checkpoint(path: str) -> None:
    """Delete a checkpoint's files if present (idempotent)."""
    for name in checkpoint_files(path):
        try:
            os.remove(name)
        except FileNotFoundError:
            pass


def read_manifest(path: str) -> dict:
    """A checkpoint's manifest: the npz-embedded copy (authoritative),
    falling back to the ``.meta.json`` sidecar."""
    npz = _npz_path(path)
    if os.path.exists(npz):
        with np.load(npz) as archive:
            if "__manifest__" in archive.files:
                return json.loads(archive["__manifest__"].item())
    with open(_meta_path(path), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
def _flatten_states(trainer) -> Dict[str, np.ndarray]:
    """All public parameters under ``model/{group}/{param}`` keys, plus
    user embeddings under ``user/{id}``."""
    arrays: Dict[str, np.ndarray] = {}
    for group, model in trainer.models.items():
        for name, values in model.state_dict().items():
            arrays[f"model/{group}/{name}"] = values
    for user_id, runtime in trainer.runtimes.items():
        arrays[f"user/{user_id}"] = runtime.user_embedding
    return arrays


def _feature_signature(trainer) -> Dict[str, object]:
    """The stream-shaping feature set two trainers must agree on to share
    a checkpoint — method and every optional protocol component."""
    cfg = trainer.config
    return {
        "method": trainer.method_name,
        "secure_aggregation": cfg.secure_aggregation is not None,
        "server_optimizer": (
            cfg.server_optimizer.kind if cfg.server_optimizer is not None else None
        ),
        "availability": bool(
            cfg.availability is not None and cfg.availability.enabled
        ),
        "compression": (
            cfg.compression.kind
            if cfg.compression is not None and cfg.compression.kind != "none"
            else None
        ),
        "privacy": bool(cfg.privacy is not None and cfg.privacy.enabled),
    }


def _data_digest(trainer) -> str:
    """Fingerprint of every client's training split, in user order.

    The split itself is not stored in a checkpoint (clients own their
    data), so two trainers can only share one if they were built over
    the *same* per-user train items — a different split seed keeps the
    same users and counts but permutes which interactions train, which
    would silently break the bitwise-resume contract.  The config seed
    is deliberately not compared directly: identical data under a
    different seed label is a legitimate warm start (every RNG's live
    state is restored from the manifest anyway).
    """
    digest = hashlib.sha256()
    for user_id in sorted(trainer.runtimes):
        digest.update(str(user_id).encode())
        digest.update(
            np.ascontiguousarray(
                np.asarray(trainer.runtimes[user_id].data.train_items, dtype=np.int64)
            ).tobytes()
        )
    return digest.hexdigest()


def _training_signature(trainer) -> Dict[str, object]:
    """Hyper-parameters that shape every remaining epoch's stream.

    A resumed run training under different values would silently diverge
    from the interrupted one, so these are validated like the structural
    fields.  ``epochs`` is deliberately absent (extending the schedule is
    the point of resuming) and so is ``seed`` — every generator's live
    state is restored from the manifest, which supersedes it.
    """
    cfg = trainer.config
    return {
        "lr": float(cfg.lr),
        "local_epochs": int(cfg.local_epochs),
        "clients_per_round": int(cfg.clients_per_round),
        "negative_ratio": int(cfg.negative_ratio),
    }


def pack_delta(block, prefix: str, arrays: Dict[str, np.ndarray]) -> dict:
    """Serialise one sparse-or-dense block under ``prefix`` array keys.

    The single definition of the on-disk delta layout, shared by the
    straggler buffer, compression residuals and the unlearning ledger:
    a :class:`SparseRowDelta` keeps its sparse form (``{prefix}/rows`` +
    ``{prefix}/values``), anything else stores dense (``{prefix}/dense``).
    Returns the JSON record :func:`unpack_delta` needs back.
    """
    if isinstance(block, SparseRowDelta):
        arrays[f"{prefix}/rows"] = block.rows
        arrays[f"{prefix}/values"] = block.values
        return {"sparse": True, "num_rows": int(block.num_rows)}
    arrays[f"{prefix}/dense"] = np.asarray(block)
    return {"sparse": False}


def unpack_delta(record: dict, prefix: str, archive):
    """Inverse of :func:`pack_delta`."""
    if record["sparse"]:
        return SparseRowDelta(
            int(record["num_rows"]),
            archive[f"{prefix}/rows"],
            archive[f"{prefix}/values"],
        )
    return archive[f"{prefix}/dense"]


def _pack_updates(
    prefix: str, updates: List[ClientUpdate], arrays: Dict[str, np.ndarray]
) -> List[dict]:
    """Serialise a list of updates into ``arrays`` + JSON entries.

    Sparse embedding deltas stay sparse (``rows``/``values`` pair); head
    deltas pack per parameter.  Scalar fields travel in the manifest.
    """
    entries: List[dict] = []
    for i, update in enumerate(updates):
        entry = {
            "user_id": int(update.user_id),
            "group": update.group,
            "num_examples": int(update.num_examples),
            "train_loss": float(update.train_loss),
            "upload_size_override": (
                None
                if update.upload_size_override is None
                else float(update.upload_size_override)
            ),
        }
        entry.update(pack_delta(update.embedding_delta, f"{prefix}/{i}", arrays))
        for head_group, state in update.head_deltas.items():
            for name, values in state.items():
                arrays[f"{prefix}/{i}/head/{head_group}/{name}"] = values
        entries.append(entry)
    return entries


def _unpack_updates(prefix: str, entries: List[dict], archive) -> List[ClientUpdate]:
    """Inverse of :func:`_pack_updates`."""
    head_keys: Dict[int, List[str]] = {}
    marker = f"{prefix}/"
    for key in archive.files:
        if key.startswith(marker):
            index_str, _, rest = key[len(marker):].partition("/")
            if rest.startswith("head/"):
                head_keys.setdefault(int(index_str), []).append(key)
    updates: List[ClientUpdate] = []
    for i, entry in enumerate(entries):
        delta = unpack_delta(entry, f"{prefix}/{i}", archive)
        heads: Dict[str, Dict[str, np.ndarray]] = {}
        head_marker = f"{prefix}/{i}/head/"
        for key in head_keys.get(i, ()):
            head_group, _, name = key[len(head_marker):].partition("/")
            heads.setdefault(head_group, {})[name] = archive[key]
        updates.append(
            ClientUpdate(
                user_id=int(entry["user_id"]),
                group=entry["group"],
                embedding_delta=delta,
                head_deltas=heads,
                num_examples=int(entry["num_examples"]),
                train_loss=float(entry["train_loss"]),
                upload_size_override=entry["upload_size_override"],
            )
        )
    return updates


def _pack_residuals(items, arrays: Dict[str, np.ndarray]) -> List[dict]:
    """Serialise compressor error-feedback residuals (sparse preserved)."""
    entries: List[dict] = []
    for i, (user_id, key, residual) in enumerate(items):
        entry = {"user_id": int(user_id), "key": key}
        entry.update(pack_delta(residual, f"residual/{i}", arrays))
        entries.append(entry)
    return entries


def _unpack_residuals(entries: List[dict], archive):
    return [
        (
            int(entry["user_id"]),
            entry["key"],
            unpack_delta(entry, f"residual/{i}", archive),
        )
        for i, entry in enumerate(entries)
    ]


def _collect(trainer) -> Tuple[Dict[str, np.ndarray], dict]:
    """Everything a resume needs, as ``(npz arrays, JSON manifest)``."""
    arrays = _flatten_states(trainer)
    config = trainer.config
    meta = {
        "format_version": FORMAT_VERSION,
        "method": trainer.method_name,
        "arch": config.arch,
        "dims": {group: int(dim) for group, dim in config.dims.items()},
        "hidden": [int(width) for width in config.hidden],
        "num_items": int(trainer.num_items),
        "dtype": config.dtype,
        "seed": config.seed,
        "group_of": {str(user): group for user, group in trainer.group_of.items()},
        "features": _feature_signature(trainer),
        "training": _training_signature(trainer),
        "data_digest": _data_digest(trainer),
        "progress": {
            "epochs_completed": int(trainer._epochs_done),
            "round_counter": int(trainer._round_counter),
        },
        "rng": {
            name: generator.bit_generator.state
            for name, generator in trainer._checkpoint_rngs().items()
        },
        "client_rng": {
            str(user_id): {
                "rng": runtime.rng.bit_generator.state,
                "sampler": runtime.sampler._rng.bit_generator.state,
            }
            for user_id, runtime in trainer.runtimes.items()
        },
        "meter": trainer.meter.export_state(),
        "history": trainer.history.export_records(),
    }
    if trainer._accountant is not None:
        meta["accounting"] = trainer._accountant.export_state()
    if trainer._server_opt is not None:
        momentum, second = trainer._server_opt.export_moments()
        for key, values in momentum.items():
            arrays[f"sopt/m/{key}"] = values
        for key, values in second.items():
            arrays[f"sopt/v/{key}"] = values
    if trainer._straggler_buffer is not None:
        meta["straggler"] = _pack_updates(
            "straggler", trainer._straggler_buffer.export_pending(), arrays
        )
        # Eviction clocks ride along so a resumed run expires buffered
        # updates on the same round the uninterrupted run would have.
        meta["straggler_ages"] = trainer._straggler_buffer.export_ages()
    if trainer._compressor is not None:
        meta["residuals"] = _pack_residuals(
            trainer._compressor.export_residuals(), arrays
        )
    extra_arrays, extra_meta = trainer._checkpoint_extra_state()
    arrays.update(extra_arrays)
    meta["extra"] = extra_meta
    return arrays, meta


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
def save_checkpoint_impl(trainer, path: str) -> None:
    """Write a full-state checkpoint: ``path`` (.npz, manifest embedded)
    plus the ``path + '.meta.json'`` sidecar, both atomically."""
    arrays, meta = _collect(trainer)
    arrays["__manifest__"] = np.array(json.dumps(meta, sort_keys=True))
    atomic_write(
        _npz_path(path), lambda handle: np.savez_compressed(handle, **arrays), "wb"
    )
    atomic_write(
        _meta_path(path),
        lambda handle: json.dump(meta, handle, indent=2, sort_keys=True),
    )


def _validate(trainer, meta: dict) -> None:
    """Raise :class:`CheckpointMismatchError` unless ``meta`` describes a
    run this trainer can continue."""
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"unsupported checkpoint format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    config = trainer.config
    problems: List[str] = []

    def check(name: str, want, got) -> None:
        if want != got:
            problems.append(f"{name}: trainer={want!r} vs checkpoint={got!r}")

    check("arch", config.arch, meta.get("arch"))
    check(
        "dims",
        {group: int(dim) for group, dim in config.dims.items()},
        meta.get("dims"),
    )
    check("hidden", [int(width) for width in config.hidden], meta.get("hidden"))
    check("num_items", int(trainer.num_items), meta.get("num_items"))
    check("dtype", config.dtype, meta.get("dtype"))
    check("features", _feature_signature(trainer), meta.get("features"))
    check("training", _training_signature(trainer), meta.get("training"))
    check("data split", _data_digest(trainer), meta.get("data_digest"))

    want_groups = {str(user): group for user, group in trainer.group_of.items()}
    got_groups = meta.get("group_of") or {}
    if want_groups != got_groups:
        missing = sorted(set(want_groups) - set(got_groups), key=int)
        extra = sorted(set(got_groups) - set(want_groups), key=int)
        moved = sorted(
            (
                user
                for user in set(want_groups) & set(got_groups)
                if want_groups[user] != got_groups[user]
            ),
            key=int,
        )
        problems.append(
            "group assignment: "
            f"users missing from checkpoint {missing[:5]}, "
            f"extra in checkpoint {extra[:5]}, reassigned {moved[:5]}"
        )
    if problems:
        raise CheckpointMismatchError(
            "checkpoint incompatible with trainer: " + "; ".join(problems)
        )


def load_checkpoint_impl(trainer, path: str) -> None:
    """Restore a trainer to the checkpointed state, in place.

    The trainer must have been constructed with a compatible config (same
    arch/dims/hidden/catalogue/dtype, same feature set, same client→group
    assignment); anything else raises :class:`CheckpointMismatchError`
    rather than silently truncating.  After a successful load, calling
    :meth:`~repro.federated.trainer.FederatedTrainer.fit` continues the
    original run bitwise-identically.
    """
    meta = read_manifest(path)
    _validate(trainer, meta)
    with np.load(_npz_path(path)) as archive:

        # Public parameters and private user embeddings.
        for group, model in trainer.models.items():
            state = {}
            prefix = f"model/{group}/"
            for key in archive.files:
                if key.startswith(prefix):
                    state[key[len(prefix):]] = archive[key]
            if not state:
                raise CheckpointMismatchError(
                    f"checkpoint has no parameters for group {group!r}"
                )
            model.load_state_dict(state)
        for user_id, runtime in trainer.runtimes.items():
            key = f"user/{user_id}"
            if key not in archive.files:
                raise CheckpointMismatchError(
                    f"checkpoint has no embedding for user {user_id}"
                )
            runtime.commit_user_embedding(archive[key])

        # Progress counters.
        progress = meta["progress"]
        trainer._epochs_done = int(progress["epochs_completed"])
        trainer._round_counter = int(progress["round_counter"])

        # Server-side and per-client RNG streams.
        saved_rngs = meta["rng"]
        for name, generator in trainer._checkpoint_rngs().items():
            if name not in saved_rngs:
                raise CheckpointMismatchError(
                    f"checkpoint carries no RNG state for stream {name!r}"
                )
            generator.bit_generator.state = saved_rngs[name]
        client_rng = meta["client_rng"]
        for user_id, runtime in trainer.runtimes.items():
            states = client_rng.get(str(user_id))
            if states is None:
                raise CheckpointMismatchError(
                    f"checkpoint carries no RNG state for client {user_id}"
                )
            runtime.rng.bit_generator.state = states["rng"]
            runtime.sampler._rng.bit_generator.state = states["sampler"]

        # Accounting and history.
        trainer.meter.load_state(meta["meter"])
        trainer.history.restore_records(meta["history"])
        if trainer._accountant is not None and "accounting" in meta:
            trainer._accountant.load_state(meta["accounting"])

        # Optional protocol components (presence already validated via
        # the feature signature).
        if trainer._server_opt is not None:
            momentum: Dict[str, np.ndarray] = {}
            second: Dict[str, np.ndarray] = {}
            for key in archive.files:
                if key.startswith("sopt/m/"):
                    momentum[key[len("sopt/m/"):]] = archive[key]
                elif key.startswith("sopt/v/"):
                    second[key[len("sopt/v/"):]] = archive[key]
            trainer._server_opt.load_moments(momentum, second)
        if trainer._straggler_buffer is not None:
            trainer._straggler_buffer.restore_pending(
                _unpack_updates("straggler", meta.get("straggler", []), archive),
                ages=meta.get("straggler_ages"),
            )
        if trainer._compressor is not None:
            trainer._compressor.restore_residuals(
                _unpack_residuals(meta.get("residuals", []), archive)
            )

        trainer._restore_checkpoint_extra_state(archive, meta.get("extra", {}))


# ----------------------------------------------------------------------
# Deploy-side loading
# ----------------------------------------------------------------------
def checkpoint_groups(path: str) -> List[str]:
    """The dim-group names a checkpoint carries models for, sorted."""
    return sorted(read_manifest(path)["dims"])


def load_inference_model_impl(path: str, group: Optional[str] = None):
    """Rebuild one group's recommender from a checkpoint for serving.

    Returns ``(model, meta)``; score a user by passing their embedding
    (also in the checkpoint, under ``user/{id}``) to ``model.logits``.
    The model is rebuilt in the dtype it was trained in — the manifest
    records ``config.dtype``, so a float32 run deploys as float32.

    ``group`` may be omitted when the checkpoint carries exactly one
    group (the homogeneous baselines); with several groups, or with a
    name the manifest does not know, :class:`UnknownGroupError` names
    the valid choices instead of failing bare.
    """
    meta = read_manifest(path)
    groups = sorted(meta["dims"])
    if group is None:
        if len(groups) != 1:
            raise UnknownGroupError(
                f"checkpoint {path!r} holds models for groups {groups}; "
                "pass group=<name> to choose one"
            )
        group = groups[0]
    elif group not in meta["dims"]:
        raise UnknownGroupError(
            f"group {group!r} not in checkpoint {path!r} (valid groups: {groups})"
        )

    archive = np.load(_npz_path(path))
    model = build_model(
        meta["arch"],
        num_items=meta["num_items"],
        dim=meta["dims"][group],
        hidden=tuple(meta["hidden"]),
        rng=np.random.default_rng(meta["seed"]),
    )
    target = np.dtype(meta.get("dtype", "float64"))
    for param in model.parameters():
        param.data = param.data.astype(target)
    prefix = f"model/{group}/"
    state = {
        key[len(prefix):]: archive[key]
        for key in archive.files
        if key.startswith(prefix)
    }
    model.load_state_dict(state)
    return model, meta


def user_embedding_from_checkpoint(path: str, user_id: int) -> np.ndarray:
    """Fetch one user's private embedding from a checkpoint."""
    archive = np.load(_npz_path(path))
    key = f"user/{user_id}"
    if key not in archive.files:
        raise KeyError(f"no embedding stored for user {user_id}")
    return archive[key]


def load_user_embeddings(path: str) -> Dict[int, np.ndarray]:
    """Every user's private embedding from a checkpoint, keyed by id.

    The serving layer's warm-load: one archive pass instead of a
    :func:`user_embedding_from_checkpoint` round trip per user.
    """
    embeddings: Dict[int, np.ndarray] = {}
    with np.load(_npz_path(path)) as archive:
        for key in archive.files:
            if key.startswith("user/"):
                embeddings[int(key[len("user/"):])] = archive[key]
    return embeddings
