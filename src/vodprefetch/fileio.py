"""Atomic text-file writes shared by every output writer."""

from __future__ import annotations

import os


def atomic_write(path: str | os.PathLike[str], text: str) -> None:
    """Write `text` to `path` via a temp file and rename.

    Readers either see the old content or the new content, never a
    partial file. The parent directory must already exist. When the
    write or the rename fails, the temp file is removed and the error
    re-raised, so the target keeps its old content.
    """
    target = os.fspath(path)
    tmp = f"{target}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass  # never created; the first error is the one to report
        raise
