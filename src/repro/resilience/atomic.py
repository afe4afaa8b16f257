"""Crash-safe file writes: write-temp + fsync + rename.

A plain ``path.write_text(...)`` truncates the destination before the new
bytes land, so a crash (or SIGKILL, or a full disk) between the truncate
and the final flush leaves a torn file — exactly the artifacts this
repository treats as load-bearing: ``--report`` run documents,
``--trace`` event streams, and the resilience journal.

:func:`atomic_write_text` closes that window: the new content is written to
a temporary file *in the destination directory* (same filesystem, so the
rename is atomic), fsynced to disk, and then moved over the destination
with ``os.replace``. At every instant the destination is either the old
complete file or the new complete file — never a prefix of either. On any
failure the temporary file is removed and the destination is untouched.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Union

#: Suffix pattern for in-flight temporaries; includes the pid so two
#: processes writing the same destination never clobber each other's temp.
_TMP_SUFFIX = ".tmp"


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory so the rename itself is durable.

    Some filesystems (and some CI sandboxes) refuse ``open(dir)`` or
    ``fsync`` on a directory fd; durability of the *rename* is then up to
    the OS, but the content fsync in :func:`atomic_write_text` still
    happened, so the worst case is the old complete file — never a torn
    one. Hence best-effort is sound here.
    """
    with contextlib.suppress(OSError):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Replace ``path``'s content with ``text`` atomically.

    The destination is never observable in a partially-written state: a
    crash before the final ``os.replace`` leaves the previous file intact
    (plus, at worst, an orphaned ``*.tmp-<pid>`` sibling); a crash after
    it leaves the complete new file.

    Raises:
        OSError: when the temporary cannot be written or the rename fails;
            the destination is left untouched in both cases.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}{_TMP_SUFFIX}-{os.getpid()}")
    try:
        with open(tmp, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_directory(target.parent)
