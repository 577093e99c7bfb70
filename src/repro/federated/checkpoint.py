"""Checkpointing: persist and restore a federated training run, fully.

A checkpoint captures **everything that feeds the training stream**, so
the repo's bitwise-restart contract holds: *stop at epoch k, resume,
finish → bitwise-identical to the uninterrupted run* (pinned by
``tests/test_checkpoint_resume.py`` the same way
``tests/test_round_engine.py`` pins engine-vs-reference).  Beyond the
per-group public parameters and every dim-group's table of private
user embeddings, that means:

* server-optimiser first/second moments (FedAvgM / FedAdam / FedYogi);
* the trainer's permutation RNG and any subclass streams (HeteFedRec's
  KD/DDR generators, ``bit_generator.state`` into the manifest), plus
  each client runtime's private RNG and negative-sampler stream (packed
  into the ``client_rng/…`` members);
* the :class:`~repro.federated.availability.StragglerBuffer`'s pending
  updates, sparse form preserved;
* per-client compression residuals (error feedback);
* the :class:`~repro.federated.communication.CommunicationMeter`, the
  training history, and the epoch/round counters;
* subclass extras through the ``_checkpoint_extra_state`` hook (the
  unlearning ledger, Standalone's per-client model copies).

Layout (format version 5): **one file** — an ``.npz`` of stored (not
deflated: float tables barely shrink) members, the JSON manifest among
them as UTF-8 ``uint8`` bytes (``__manifest__``), written atomically
(:func:`repro.io.atomic_write`, the same helper ``.repro_cache/`` uses)
so a crash mid-save can never leave a torn checkpoint.  Members are
``model/<group>/<param>``, ``users/<group>/ids`` +
``users/<group>/values`` (each dim-group's
:class:`~repro.federated.user_table.UserTable` — two members per group
however many users, and **the id arrays are the group assignment**: the
manifest carries no user→group map), ``client_rng/ids`` +
``client_rng/state`` (:func:`_pack_client_rngs`), and ``sopt/…``,
``straggler/…``, ``residual/…``, ``ledger/…``, ``standalone/…`` when
the feature is on.

One door, two outcomes.  :func:`read_checkpoint` is the only reader
(the package's one ``np.load`` of a checkpoint, every member read and
CRC-32-checked before it returns); it and everything built on it —
resume, :func:`read_manifest`, serving's ``load_snapshot`` / hot-swap
and the ``load_model`` verb over it — fail in exactly two ways:

* ``OSError`` **iff the file cannot be opened** (usually
  ``FileNotFoundError``: it may not have landed yet, callers may retry);
* :class:`CheckpointMismatchError` for everything about its *content*
  (:func:`refusing`): a torn or bit-flipped archive
  (``zipfile.BadZipFile`` / ``zlib.error`` / ``EOFError``, chained as
  ``__cause__``), an unparsable manifest, another format version, a
  section a v5 writer always writes but the manifest lacks, or a
  manifest that does not describe the receiving trainer — never a
  silent truncation, never a bare ``KeyError``.  Callers quarantine.

:func:`load_checkpoint_impl` is all-or-nothing: everything that can
refuse runs before the first write to the trainer.  Deploy-side,
:func:`inference_model` and :func:`load_user_tables` rebuild one
group's model and the user tables from the same arrays without
reconstructing the trainer: a load is one open and one manifest parse.

Callers outside the package use the :mod:`repro.api` verbs
(``save_checkpoint`` / ``resume`` / ``load_model``); each verb has
exactly one implementation here, under its ``*_impl`` name.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import zipfile
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.federated.payload import ClientUpdate, SparseRowDelta
from repro.federated.user_table import UserTable
from repro.io import atomic_write
from repro.models.factory import build_model

#: Manifest schema version; bump on layout changes.  Loading any other
#: version raises :class:`CheckpointMismatchError` — resume correctness
#: depends on every state section being present and understood.
#: Version 5 stores members undeflated, the manifest as UTF-8 bytes and
#: the client streams as ``uint64`` members.
FORMAT_VERSION = 5

#: The one bit-generator kind client streams are packed as.
CLIENT_RNG_KIND = "PCG64"
_WORD = (1 << 64) - 1


class CheckpointMismatchError(ValueError):
    """The checkpoint's content is refused: torn, malformed, or not
    describing the trainer or serving snapshot it is offered to."""


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
# The door: one path convention, one reader, one error type
# ----------------------------------------------------------------------
def _npz_path(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


def remove_checkpoint(path: str) -> None:
    """Delete a checkpoint's file if present (idempotent)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(_npz_path(path))


@contextlib.contextmanager
def refusing(path: str):
    """Whatever the body raises about checkpoint ``path``'s content
    leaves as :class:`CheckpointMismatchError`, chained and naming the
    file — the one place that decides what a bad checkpoint raises."""
    try:
        yield
    except CheckpointMismatchError:
        raise
    except Exception as error:  # noqa: BLE001 - the door: nothing untyped gets out
        torn = isinstance(error, (zipfile.BadZipFile, zlib.error, EOFError))
        raise CheckpointMismatchError(
            f"checkpoint {os.path.basename(path)} is "
            f"{'torn or corrupt' if torn else 'malformed'}: {error!r}"
        ) from error


def read_checkpoint(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(manifest, arrays)`` of the checkpoint at ``path`` — the only
    reader.  ``OSError`` iff the file cannot be opened; from there on
    everything is :func:`refusing`'s, and every member is read here in
    full (which checks its CRC-32, the only integrity check on member
    bytes), so a consumer can meet no I/O or decode failure afterwards."""
    try:
        handle = open(_npz_path(path), "rb")
    except ValueError as error:  # an embedded NUL: a name no file can have
        raise OSError(f"checkpoint path {path!r} cannot be opened: {error}") from error
    with handle, refusing(path), np.load(handle) as archive:
        arrays = {key: archive[key] for key in archive.files}
        # json.loads detects UTF-8 and UTF-32 alike, so an older file's
        # manifest (a UTF-32 string) still parses and is refused below
        # by the version it names.
        meta = json.loads(arrays.pop("__manifest__").tobytes())
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"unsupported checkpoint format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
    return meta, arrays


def read_manifest(path: str) -> dict:
    """A checkpoint's manifest, through the one reader."""
    return read_checkpoint(path)[0]


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
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
        "attack": cfg.attack.kind if cfg.attack is not None else None,
        "defense": cfg.defense.kind if cfg.defense is not None else None,
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


def members(archive, prefix: str) -> Dict[str, np.ndarray]:
    """The archive's arrays under ``prefix``, keyed by the rest of their name."""
    return {
        key[len(prefix):]: archive[key]
        for key in archive
        if key.startswith(prefix)
    }


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
    for key in archive:
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


def _pack_client_rngs(trainer, arrays: Dict[str, np.ndarray]) -> str:
    """Every client's private and sampler stream as ``client_rng/state``
    rows of ``uint64`` words, ``(users, 2, 6)`` — state and increment
    (128-bit: high word, low word), ``has_uint32``, ``uinteger`` —
    beside the user ids ``client_rng/ids``; returns the kind to record."""
    users = sorted(trainer.runtimes)
    words = []
    for user_id in users:
        runtime = trainer.runtimes[user_id]
        for generator in (runtime.rng, runtime.sampler._rng):
            state = generator.bit_generator.state
            if state["bit_generator"] != CLIENT_RNG_KIND:
                raise TypeError(f"client streams must be {CLIENT_RNG_KIND}, not {state['bit_generator']}")
            seq, inc = state["state"]["state"], state["state"]["inc"]
            words += [seq >> 64, seq & _WORD, inc >> 64, inc & _WORD, state["has_uint32"], state["uinteger"]]
    arrays["client_rng/ids"] = np.array(users, dtype=np.int64)
    arrays["client_rng/state"] = np.array(words, dtype=np.uint64).reshape(len(users), 2, 6)
    return CLIENT_RNG_KIND


def _client_rng_states(trainer, meta: dict, archive) -> List[tuple]:
    """``(generator, state)`` for both streams of every client of
    ``trainer``, unpacked from :func:`_pack_client_rngs`'s members.  A
    kind other than the one recorded, a misshapen member, or a client
    with no row or two is refused."""
    kind, ids, words = meta["client_rng_kind"], archive["client_rng/ids"], archive["client_rng/state"]
    shaped = ids.dtype == np.int64 and ids.ndim == 1 and words.dtype == np.uint64
    if kind != CLIENT_RNG_KIND or not shaped or words.shape != (len(ids), 2, 6):
        raise CheckpointMismatchError(
            f"checkpoint's client streams are not {CLIENT_RNG_KIND} rows: kind {kind!r}, "
            f"ids {ids.dtype}{ids.shape}, states {words.dtype}{words.shape}"
        )
    rows = dict(zip(ids.tolist(), words.tolist()))
    states = []
    for user_id, runtime in trainer.runtimes.items():
        if user_id not in rows:
            raise CheckpointMismatchError(f"checkpoint carries no RNG state for client {user_id}")
        for generator, w in zip((runtime.rng, runtime.sampler._rng), rows[user_id]):
            inner = {"state": w[0] << 64 | w[1], "inc": w[2] << 64 | w[3]}
            state = {"bit_generator": CLIENT_RNG_KIND, "state": inner, "has_uint32": w[4], "uinteger": w[5]}
            states.append((generator, state))
    if len(ids) != len(trainer.runtimes):  # each client has a row: more is a repeat or a stranger
        raise CheckpointMismatchError(
            f"checkpoint carries {len(ids)} client RNG rows for {len(trainer.runtimes)} clients"
        )
    return states


def _collect(trainer) -> Tuple[Dict[str, np.ndarray], dict]:
    """Everything a resume needs, as ``(npz arrays, JSON manifest)``."""
    arrays = {
        f"model/{group}/{name}": values
        for group, model in trainer.models.items()
        for name, values in model.state_dict().items()
    }
    for group, table in trainer.user_tables.items():
        arrays[f"users/{group}/ids"], arrays[f"users/{group}/values"] = table.ids, table.values
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
        "client_rng_kind": _pack_client_rngs(trainer, arrays),
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
        meta["residuals"] = [  # compressor error-feedback residuals, sparse kept
            {"user_id": int(user_id), "key": key, **pack_delta(residual, f"residual/{i}", arrays)}
            for i, (user_id, key, residual) in enumerate(trainer._compressor.export_residuals())
        ]
    extra_arrays, extra_meta = trainer._checkpoint_extra_state()
    arrays.update(extra_arrays)
    meta["extra"] = extra_meta
    return arrays, meta


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
def save_checkpoint_impl(trainer, path: str) -> None:
    """Write a full-state checkpoint: the one file ``path`` (.npz,
    manifest embedded), atomically."""
    arrays, meta = _collect(trainer)
    manifest = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays["__manifest__"] = np.frombuffer(manifest, dtype=np.uint8)
    atomic_write(_npz_path(path), lambda handle: np.savez(handle, **arrays), "wb")


def load_user_tables(archive, meta: dict) -> Dict[str, UserTable]:
    """Every dim-group's user table a checkpoint's arrays carry.

    The one reader of ``users/<group>/…``, for resume and serving alike.
    A group ``dims`` does not name or with half the pair, a matrix not
    ``(len(ids), dims[group])`` in the manifest's dtype, unsorted or
    duplicate ids, or an id in two groups raises
    :class:`CheckpointMismatchError` — at load, never at first use.
    """
    tables: Dict[str, UserTable] = {}
    stored = {key.split("/")[1] for key in archive if key.startswith("users/")}
    for group in sorted(stored):
        try:
            tables[group] = UserTable(
                archive[f"users/{group}/ids"],
                archive[f"users/{group}/values"],
                meta["dims"][group],
                np.dtype(meta["dtype"]),
            )
        except (KeyError, ValueError) as error:
            raise CheckpointMismatchError(
                f"checkpoint's user table for group {group!r} is invalid: {error}"
            ) from error
    if tables:
        ids, counts = np.unique(
            np.concatenate([table.ids for table in tables.values()]),
            return_counts=True,
        )
        if (counts > 1).any():
            raise CheckpointMismatchError(
                f"checkpoint holds user {int(ids[counts > 1][0])} in more than one group"
            )
    return tables


def _validate(trainer, meta: dict, tables: Dict[str, UserTable]) -> None:
    """Raise :class:`CheckpointMismatchError` unless ``meta`` and the
    stored user ``tables`` describe a run this trainer can continue."""
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

    # The stored id arrays are the checkpoint's group assignment.
    want_groups = {user: trainer.group_of[user] for user in trainer.runtimes}
    got_groups = {
        int(user): group for group, table in tables.items() for user in table.ids
    }
    if want_groups != got_groups:
        missing = sorted(set(want_groups) - set(got_groups))
        extra = sorted(set(got_groups) - set(want_groups))
        moved = sorted(
            user
            for user in set(want_groups) & set(got_groups)
            if want_groups[user] != got_groups[user]
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
    rather than silently truncating.  All-or-nothing: whatever can
    refuse runs before the first write, so a rejected checkpoint leaves
    the trainer as it was.  After a successful load,
    :meth:`~repro.federated.trainer.FederatedTrainer.fit` continues the
    original run bitwise-identically.
    """
    meta, arrays = read_checkpoint(path)
    with refusing(path):
        tables = load_user_tables(arrays, meta)
        _validate(trainer, meta, tables)
        epochs_done = int(meta["progress"]["epochs_completed"])
        round_counter = int(meta["progress"]["round_counter"])

        # Server-side and per-client RNG streams, as (generator, state).
        rng_states = []
        saved_rngs = meta["rng"]
        for name, generator in trainer._checkpoint_rngs().items():
            if name not in saved_rngs:
                raise CheckpointMismatchError(
                    f"checkpoint carries no RNG state for stream {name!r}"
                )
            rng_states.append((generator, saved_rngs[name]))
        rng_states += _client_rng_states(trainer, meta, arrays)
        scratch = {}
        for generator, state in rng_states:
            # A scratch bit generator of the same kind (one each: making
            # one seeds from the OS) takes the state first: junk raises
            # here, before a live stream moves.
            kind = type(generator.bit_generator)
            scratch[kind] = scratch.get(kind) or kind()
            scratch[kind].state = state

        # Everything else, as (bound loader, arguments).  The trainer's
        # feature signature equals the manifest's (validated above), so
        # a component the trainer has is a section this checkpoint's
        # writer wrote: each is a required read, its absence refused by
        # name (``KeyError('residuals')`` under :func:`refusing`).
        loads = [
            (trainer.meter.load_state, (meta["meter"],)),
            (trainer.history.restore_records, (meta["history"],)),
        ]
        for group, model in trainer.models.items():
            # Strict: a group without parameters is refused as missing them.
            loads.append((model.load_state_dict, (members(arrays, f"model/{group}/"),)))
        for group, table in tables.items():
            loads.append((trainer.user_tables[group].put, (table.ids, table.values)))
        if trainer._accountant is not None:
            loads.append((trainer._accountant.load_state, (meta["accounting"],)))
        if trainer._server_opt is not None:
            moments = members(arrays, "sopt/m/"), members(arrays, "sopt/v/")
            loads.append((trainer._server_opt.load_moments, moments))
        if trainer._straggler_buffer is not None:
            pending = _unpack_updates("straggler", meta["straggler"], arrays)
            loads.append((
                trainer._straggler_buffer.restore_pending,
                (pending, meta["straggler_ages"]),
            ))
        if trainer._compressor is not None:
            residuals = [
                (int(entry["user_id"]), entry["key"], unpack_delta(entry, f"residual/{i}", arrays))
                for i, entry in enumerate(meta["residuals"])
            ]
            loads.append((trainer._compressor.restore_residuals, (residuals,)))
        # Rehearsal: each loader first runs on a deep copy of its
        # component, raising whatever the live load would.
        for load, args in loads:
            load.__func__(copy.deepcopy(load.__self__), *args)

        # The last thing that may refuse and the first that writes (the
        # hook's own checks precede its own writes).
        trainer._restore_checkpoint_extra_state(arrays, meta["extra"])

    # Nothing below can refuse.
    trainer._epochs_done, trainer._round_counter = epochs_done, round_counter
    for generator, state in rng_states:
        generator.bit_generator.state = state
    for load, args in loads:
        load(*args)


# ----------------------------------------------------------------------
# Deploy-side loading
# ----------------------------------------------------------------------
def inference_model(archive, meta: dict, group: str):
    """One group's recommender rebuilt from a checkpoint's arrays, in
    the dtype the manifest records; its item table is the archive's own,
    copied once in that dtype, not drawn and then overwritten."""
    target = np.dtype(meta["dtype"])
    state = members(archive, f"model/{group}/")
    model = build_model(
        meta["arch"],
        num_items=meta["num_items"],
        dim=meta["dims"][group],
        hidden=tuple(meta["hidden"]),
        rng=np.random.default_rng(meta["seed"]),
        item_weight=state["item_embedding.weight"].astype(target, copy=False),
    )
    for param in model.parameters():
        param.data = param.data.astype(target, copy=False)
    # The table is loaded already: hand it back as itself (a no-op write)
    # so the state dict's name checks still see every member.
    state["item_embedding.weight"] = model.item_embedding.weight.data
    model.load_state_dict(state)
    return model
