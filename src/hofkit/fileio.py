"""Output files that appear whole or not at all.

Every file a command writes goes through ``atomic_open``: the content is
written to a temporary file in the target's directory, which then replaces
the target in one rename. A command that fails part way leaves the previous
file (or none) in place, never a truncated one.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["atomic_open"]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path`` for writing (``"w"`` as UTF-8 text or ``"wb"``), atomically.

    The file handle writes to ``.<name>.<pid>.tmp`` beside ``path``; when the
    block ends without an exception the temporary file replaces ``path``,
    otherwise it is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    # exclusive create: never truncate a temporary file some other writer owns
    fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
