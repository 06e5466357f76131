"""Output files that appear whole or not at all, and input that is not UTF-8.

Every file a command writes goes through ``atomic_open``: the content is
written to a temporary file in the target's directory, which then replaces
the target in one rename. A command that fails part way leaves the previous
file (or none) in place, never a truncated one. A reader of UTF-8 text runs
under ``utf8_line_errors``, so an invalid byte is reported with its line.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["atomic_open", "utf8_line_errors"]


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


@contextlib.contextmanager
def utf8_line_errors(path, error=ValueError, check_before=None):
    """Turn a ``UnicodeDecodeError`` while reading ``path`` into ``error`` naming the line.

    The decoder reports a position within the chunk it was decoding, so the
    file's bytes are read again to find the 1-based line of its first invalid
    byte. Only this error path reads them, so a valid file costs nothing more.
    A reader that decodes ahead of the lines it has checked passes
    ``check_before``: it is called with the text of the lines before that line
    and raises the first defect it finds there, so errors come in line order.
    """
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            if check_before is not None and line_start:
                check_before(data[:line_start].decode("utf-8"))
            line = data.count(b"\n", 0, line_start) + 1
            raise error(
                f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason}), line {line}"
            ) from None
        raise  # the file changed since the failed read
