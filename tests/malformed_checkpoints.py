"""Forged checkpoints for the door tests (not a test module).

``forge(src, dst, edit)`` copies checkpoint ``src`` to ``dst`` after
``edit(arrays, meta)`` rewrote its ``.npz`` members and manifest in
place — files a correct writer never produces — and writes them in the
v5 encoding (members stored, manifest as UTF-8 ``uint8`` bytes) unless
the edit stored a ``__manifest__`` of its own; ``resume_state(trainer)``
is what the resume door must leave untouched when it refuses one.  ``MALFORMED_CHECKPOINTS``
names the ones both doors (``load_checkpoint`` / ``serve``) must refuse
at load; ``MISSING_SECTIONS`` the resume-door cases — a v5 manifest
without a section its writer always writes (serving never reads them);
``BAD_CLIENT_RNG`` the client-stream members only resume reads.
"""

import json

import numpy as np

from repro.sim.async_server import TrainerBackend


def resume_state(trainer) -> dict:
    """Everything a resume may write, as one comparable value: a refused
    checkpoint must leave it equal to what it was before the call."""
    return {
        "digest": TrainerBackend(trainer).digest(),
        "rng": {
            name: generator.bit_generator.state
            for name, generator in trainer._checkpoint_rngs().items()
        },
        "client_rng": {
            user: (
                runtime.rng.bit_generator.state,
                runtime.sampler._rng.bit_generator.state,
            )
            for user, runtime in trainer.runtimes.items()
        },
        "meter": trainer.meter.export_state(),
        "history": trainer.history.export_records(),
        "progress": (trainer.epochs_completed, trainer._round_counter),
    }


def forge(src: str, dst: str, edit, savez=np.savez) -> str:
    with np.load(src) as archive:
        arrays = {key: archive[key] for key in archive.files if key != "__manifest__"}
        meta = json.loads(archive["__manifest__"].tobytes())
    edit(arrays, meta)
    manifest = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays.setdefault("__manifest__", np.frombuffer(manifest, dtype=np.uint8))
    with open(dst, "wb") as handle:
        savez(handle, **arrays)
    return dst


def _future_version(arrays, meta):
    meta["format_version"] = 99


def _v4_layout(arrays, meta):
    """What format v4 wrote: the client streams as ``bit_generator.state``
    dicts in the manifest's ``client_rng`` and the manifest as a 0-d
    UTF-32 string (forge it with ``np.savez_compressed`` for the exact
    v4 encoding)."""
    meta["format_version"] = 4
    kind = meta.pop("client_rng_kind")
    ids, words = arrays.pop("client_rng/ids"), arrays.pop("client_rng/state")
    meta["client_rng"] = {
        str(user): {
            stream: {
                "bit_generator": kind,
                "state": {"state": w[0] << 64 | w[1], "inc": w[2] << 64 | w[3]},
                "has_uint32": w[4],
                "uinteger": w[5],
            }
            for stream, w in zip(("rng", "sampler"), rows)
        }
        for user, rows in zip(ids.tolist(), words.tolist())
    }
    arrays["__manifest__"] = np.array(json.dumps(meta, sort_keys=True))


def _v3_layout(arrays, meta):
    """What PR 21 wrote: one ``user/<id>`` member per client and the
    assignment in the manifest's ``group_of``."""
    meta["format_version"] = 3
    meta["group_of"] = {}
    for group in list(meta["dims"]):
        ids = arrays.pop(f"users/{group}/ids")
        values = arrays.pop(f"users/{group}/values")
        for user, row in zip(ids, values):
            arrays[f"user/{int(user)}"] = row
            meta["group_of"][str(int(user))] = group


def _narrow_matrix(arrays, meta):
    arrays["users/m/values"] = arrays["users/m/values"][:, :-1]


def _missing_row(arrays, meta):
    arrays["users/m/values"] = arrays["users/m/values"][:-1]


def _wrong_dtype(arrays, meta):
    other = np.float32 if meta["dtype"] == "float64" else np.float64
    arrays["users/s/values"] = arrays["users/s/values"].astype(other)


def _unsorted_ids(arrays, meta):
    arrays["users/l/ids"] = arrays["users/l/ids"][::-1]


def _duplicate_ids(arrays, meta):
    ids = arrays["users/l/ids"].copy()
    ids[1] = ids[0]
    arrays["users/l/ids"] = ids


def _id_in_two_groups(arrays, meta):
    ids = arrays["users/m/ids"].copy()
    ids[0] = arrays["users/s/ids"][0]
    arrays["users/m/ids"] = np.sort(ids)


def _group_without_users(arrays, meta):
    del arrays["users/m/ids"], arrays["users/m/values"]


def _ids_without_values(arrays, meta):
    del arrays["users/m/values"]


MALFORMED_CHECKPOINTS = {
    "format_version_99": _future_version,
    "v3_layout": _v3_layout,
    "v4_layout": _v4_layout,
    "narrow_matrix": _narrow_matrix,
    "missing_row": _missing_row,
    "wrong_dtype": _wrong_dtype,
    "unsorted_ids": _unsorted_ids,
    "duplicate_ids": _duplicate_ids,
    "id_in_two_groups": _id_in_two_groups,
    "group_without_users": _group_without_users,
    "ids_without_values": _ids_without_values,
}


def _without(section):
    def edit(arrays, meta):
        del meta[section]

    return edit


#: Resume-door cases.  The source checkpoint must come from a run with
#: availability and error-feedback compression on, so ``features``
#: implies the first two; ``history`` and ``meter`` are unconditional.
MISSING_SECTIONS = {
    section: _without(section)
    for section in ("residuals", "straggler_ages", "history", "meter")
}


def _client_rng_edit(change):
    def edit(arrays, meta):
        ids, words = arrays["client_rng/ids"], arrays["client_rng/state"]
        arrays["client_rng/ids"], arrays["client_rng/state"] = change(ids, words)

    return edit


#: Resume-door cases: the client-stream members, each damaged one way.
#: ``missing_row`` drops the last user's row.
BAD_CLIENT_RNG = {
    "missing_row": _client_rng_edit(lambda ids, words: (ids[:-1], words[:-1])),
    "duplicated_row": _client_rng_edit(
        lambda ids, words: (np.append(ids, ids[-1]), np.concatenate([words, words[-1:]]))
    ),
    "misshapen_row": _client_rng_edit(lambda ids, words: (ids, words[:, :, :-1])),
    "wrong_dtype": _client_rng_edit(lambda ids, words: (ids, words.astype(np.int64))),
    "wrong_kind": lambda arrays, meta: meta.update(client_rng_kind="MT19937"),
}
