"""Atomic file writes shared by every module that persists artifacts."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def temp_name(name: str) -> str:
    """The hidden name a write to the file ``name`` goes through first."""
    return f".{name}.{uuid.uuid4().hex}"


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory, then rename over.

    The temp file is created with mode 0666 less the umask, as ``open``
    creates a file, so the artifact gets the usual permissions. A failure to
    create the temp file is reported under the target's name, the one the
    caller gave.
    """
    path = Path(path)
    tmp = path.parent / temp_name(path.name)
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
