"""Tests for ``repro.io``: what :func:`atomic_write` leaves on disk.

A checkpoint or ``.repro_cache/`` entry written atomically must carry
the mode a plain ``open()`` would have given it under the same umask —
``0o666`` less the umask — so a serving process running as another
user can read the trainer's deploy artefact.  (``mkstemp`` made every
such file ``0o600`` whatever the umask.)
"""

import os
import stat

import pytest

from repro.io import atomic_write


@pytest.fixture()
def umask():
    """Set the process umask for one test, restoring it afterwards."""
    previous = os.umask(0o022)
    yield os.umask
    os.umask(previous)


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize(
    "mask, expected", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_atomic_write_gives_the_mode_a_plain_open_gives(umask, tmp_path, mask, expected):
    umask(mask)
    atomic_write(str(tmp_path / "ckpt.npz"), lambda handle: handle.write(b"x"), "wb")
    with open(tmp_path / "plain.bin", "wb") as handle:
        handle.write(b"x")
    assert mode_of(tmp_path / "ckpt.npz") == mode_of(tmp_path / "plain.bin") == expected


def test_checkpoint_is_readable_by_others_under_umask_022(
    umask, tiny_dataset, tiny_clients, tmp_path
):
    from repro.api import HeteFedRec, HeteFedRecConfig, save_checkpoint

    umask(0o022)
    config = HeteFedRecConfig(dims={"s": 4, "m": 6, "l": 8}, epochs=1, seed=0)
    path = str(tmp_path / "out" / "ckpt.npz")
    save_checkpoint(HeteFedRec(tiny_dataset.num_items, tiny_clients, config), path)
    assert mode_of(path) == 0o644
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]  # no tmp left
