"""Atomic file writes shared by every module that persists artifacts, and
the one JSON POST every hosted-model client makes."""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

from . import records
from .errors import MalformedInputError


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


def post_json(url: str, body: dict, reply: type, error: type, what: str, timeout: float,
              headers: dict):
    """POST ``body`` as JSON, decode the reply as a ``reply`` record, and raise
    ``error`` for a status other than 200, an unreachable ``url`` or a malformed reply."""
    import http.client  # imported here: these add about a tenth to every command's start
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(url, json.dumps(body).encode("utf-8"), {
            "Content-Type": "application/json", **headers}, method="POST")
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, raw = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        status, raw = exc.code, b""
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise error(f"{what} endpoint unreachable: {exc}") from exc
    if status != 200:
        raise error(f"{what} endpoint returned HTTP {status}")
    try:
        return records.decode(reply, records.parse(raw, f"{url} reply"), f"{url} reply")
    except MalformedInputError as exc:
        raise error(f"malformed {what} response: {exc}") from exc
