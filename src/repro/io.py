"""The two file-system disciplines every layer shares.

``.repro_cache/`` entries and checkpoints are read concurrently by grid
workers, the serving watcher and resumed runs, so nothing in this repo
writes them in place and nothing deletes a corrupt one:

* :func:`atomic_write` — tmp file in the target's own directory +
  ``os.replace``: readers see the old file or the new one, never a torn
  one.  The ``atomic-write`` lint rule allowlists exactly this helper.
* :func:`quarantine` — a corrupt or incompatible checkpoint moves aside
  as ``*.corrupt``: evidence is preserved for the post-mortem and the
  file can no longer be offered for resume or swap.
"""

from __future__ import annotations

import os
import secrets
from typing import IO, Callable, Optional


def atomic_write(path: str, write: Callable[[IO], None], mode: str = "w") -> None:
    """Write ``path`` by handing an open tmp-file handle to ``write``.

    The tmp file lives in ``path``'s directory (created if missing), so
    the final ``os.replace`` is a same-filesystem atomic rename even
    when the target sits on a different mount than the default tmp
    location.  It is created ``0o666`` less the umask (applied by the
    kernel), as a plain ``open()`` would be, so a serving process run as
    another user can read it.  Text modes are UTF-8.  On any failure the
    tmp file is removed and ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def quarantine(path: str) -> Optional[str]:
    """Move an unreadable checkpoint aside as ``*.corrupt``.

    ``foo.npz`` becomes ``foo.corrupt`` (overwriting any earlier
    quarantine of the same name: the newest corpse is the interesting
    one).  Returns the quarantine path, or ``None`` when the file had
    already vanished (a concurrent worker) and there was nothing to
    preserve.
    """
    stem = path[: -len(".npz")] if path.endswith(".npz") else path
    target = stem + ".corrupt"
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target
