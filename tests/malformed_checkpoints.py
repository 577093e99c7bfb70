"""Forged checkpoints for the door tests (not a test module).

``forge(src, dst, edit)`` copies checkpoint ``src`` to ``dst`` after
``edit(arrays, meta)`` rewrote its ``.npz`` members and manifest in
place — files a correct writer never produces; ``resume_state(trainer)``
is what the resume door must leave untouched when it refuses one.  ``MALFORMED_CHECKPOINTS``
names the ones both doors (``load_checkpoint`` / ``serve``) must refuse
at load; ``MISSING_SECTIONS`` the resume-door cases — a v4 manifest
without a section its writer always writes (serving never reads them).
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


def forge(src: str, dst: str, edit) -> str:
    with np.load(src) as archive:
        arrays = {key: archive[key] for key in archive.files if key != "__manifest__"}
        meta = json.loads(archive["__manifest__"].item())
    edit(arrays, meta)
    arrays["__manifest__"] = np.array(json.dumps(meta, sort_keys=True))
    with open(dst, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return dst


def _future_version(arrays, meta):
    meta["format_version"] = 99


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
