"""Output files that appear whole or not at all, and input that is not UTF-8.

Every file a command writes goes through ``atomic_open``: the content is
written to a temporary file in the target's directory, which then replaces
the target in one rename. A command that fails part way leaves the previous
file (or none) in place, never a truncated one. A reader of UTF-8 text runs
under ``utf8_line_errors``, its one error path: an invalid byte is reported
with its line, and a reader's check puts every defect in line order.
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
def utf8_line_errors(path, error=ValueError, check=None):
    """Report the first defect, in line order, of a ``ValueError`` while reading ``path``.

    Only this error path reads the file's bytes again, so a valid file costs
    nothing more. A reader passes ``check`` where its parser decodes ahead of
    the rows it has checked or names no line: it raises the first defect of
    the text it is given, the lines above the first invalid byte, else the
    whole file. Where it finds none, the invalid byte is raised as ``error``
    naming its 1-based line, else the error as it was raised.
    """
    try:
        yield
    except ValueError:  # a UnicodeDecodeError is one
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            if check is not None and line_start:
                check(data[:line_start].decode("utf-8"))
            line = data.count(b"\n", 0, line_start) + 1
            raise error(
                f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason}), line {line}"
            ) from None
        if check is not None:
            check(text)
        raise  # no defect above it, or the file changed since the failed read
