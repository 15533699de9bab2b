"""Files that readers see whole or not at all."""

from __future__ import annotations

import errno
import os
import secrets
from contextlib import contextmanager, suppress
from pathlib import Path


@contextmanager
def atomic_write(*paths: str | Path):
    """Yield one temporary path beside each of ``paths`` for the block to
    write; when it ends without an error, move them all into place with
    ``os.replace``, in the order given.  On an error, in the block or in a
    move, the temporary files still there are removed and the error names
    the path asked for.  A destination that is a directory fails before any
    move.  A path that is a symbolic link is written through: its target is
    replaced, and the link stays.  A reader finds each path whole, old or
    new, never part-written."""
    paths = [str(p) for p in paths]
    targets = [os.path.realpath(p) for p in paths]
    token = secrets.token_hex(6)
    # hidden, in the target's directory: os.replace needs one file system
    temps = [os.path.join(os.path.dirname(t), f".{os.path.basename(t)}.{token}.tmp")
             for t in targets]
    try:
        yield temps
        for path, target in zip(paths, targets):
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except OSError as exc:
        if exc.filename in temps:
            exc.filename, exc.filename2 = paths[temps.index(exc.filename)], None
        raise
    finally:
        for temp in temps:
            with suppress(OSError):
                os.unlink(temp)
