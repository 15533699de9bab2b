"""Files that readers see whole or not at all, the cache of parsed input
files, and the memo of input files' digests."""

from __future__ import annotations

import errno
import math
import os
import re
import secrets
import shutil
import stat
import time
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generic, Mapping, TypeVar

import numpy as np

T = TypeVar("T")


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


def cache_root() -> Path:
    """``$XDG_CACHE_HOME/lexlearn``, or ``~/.cache/lexlearn`` when that
    variable is unset or empty."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "lexlearn"


_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def _checked(digest: str | None) -> str | None:
    if digest is not None and not _SHA256_HEX.fullmatch(digest):
        raise ValueError(f"digest must be a sha256 hex digest, got {digest!r}")
    return digest


@dataclass(frozen=True)
class ParseCache(Generic[T]):
    """Parsed files kept by content, one ``<size>-<sha256>/`` directory
    entry per file under ``cache_root() / folder``.

    ``pack`` gives the arrays an entry stores for a parse, one plain
    ``<name>.npy`` file each, and ``unpack`` the parse back from them, or
    None when they do not hold one.  A read maps each file into memory
    rather than copies it, so a reader touches only the bytes it uses
    besides the check.  The ``crc32`` file holds one crc32 of ``version``,
    the sha256, each ``key`` string, and each array's name, dtype, shape
    and bytes, which every read checks: an entry of another version, digest
    or key, or with a file missing, short or changed, is a miss.  Entries
    are read with no pickle.

    ``rows.npy``, once :meth:`replace_rows` has written it, holds one more
    array, replaced whole and atomically and outside the crc32; a read gives
    it to ``unpack`` as ``"rows"``, mapped and unchecked, or leaves it out
    when it does not map."""

    folder: str
    version: int
    pack: Callable[[T], dict[str, np.ndarray]]
    unpack: Callable[[Mapping[str, np.ndarray]], T | None]

    def directory(self) -> Path:
        return cache_root() / self.folder

    def load(self, path: str | Path, parse: Callable[[], T | None],
             digest: Callable[[], str | None] | None, **key: str) -> T | None:
        """``parse()``, or the parse of a regular file read from the entry
        of its content.

        ``digest`` returns the sha256 hex digest of the file's bytes (None
        for none; a ``digest`` of None uses no cache).  It is called before
        the parse only when the cache holds an entry of the file's size, and
        otherwise after it, so a digest taken on another thread runs beside
        the parse of a file never seen.  An entry is written after a parse
        that returns other than None; a cache that cannot be written is left
        alone."""
        if digest is None:
            return parse()
        try:
            info = os.stat(path)
            folder = self.directory()
        except (OSError, RuntimeError):  # RuntimeError: no home directory
            return parse()
        if not stat.S_ISREG(info.st_mode):
            return parse()
        # named by size as well, so that a file of a size never cached is
        # parsed at once rather than after its digest
        if any(folder.glob(f"{info.st_size}-*")):
            sha = _checked(digest())
            value = None if sha is None else self.read(
                folder / f"{info.st_size}-{sha}", sha, **key)
            if value is not None:
                return value
        value = parse()
        if value is not None and (sha := _checked(digest())) is not None:
            self.write(folder / f"{info.st_size}-{sha}", sha, value, **key)
        return value

    def read(self, entry: Path, digest: str, **key: str) -> T | None:
        """The parse in ``entry``, or None for a miss."""
        try:
            names = sorted(name[:-4] for name in os.listdir(entry)
                           if name.endswith(".npy") and name != "rows.npy")
            data = {name: _mapped(entry / f"{name}.npy") for name in names}
            if (entry / "crc32").read_bytes() != b"%08x" % self._crc32(data, digest, key):
                return None
            try:
                data["rows"] = _mapped(entry / "rows.npy")
            except (OSError, ValueError):  # none, or one that does not map
                pass
            return self.unpack(data)
        # ValueError: a file that does not map, or is not C-ordered;
        # TypeError: an array of another shape where a number is stored
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def write(self, entry: Path, digest: str, value: T, **key: str) -> None:
        """Write ``entry`` for a parse, in place of one there, unless it
        would take more than half of the free space; an entry that cannot be
        written is left out.  Files named ``entry`` plus a suffix beside it,
        the zipped entries of earlier versions, are removed first."""
        arrays = {name: np.asarray(a, order="C")
                  for name, a in sorted(self.pack(value).items())}
        crc = self._crc32(arrays, digest, key)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            for old in entry.parent.glob(f"{entry.name}.*"):
                with suppress(OSError):
                    old.unlink()
            if shutil.disk_usage(entry.parent).free < 2 * sum(
                    a.nbytes for a in arrays.values()):
                return
            # written beside its place and renamed into it, so that a reader
            # finds it whole or not at all
            token = secrets.token_hex(6)
            temp, aside = (entry.with_name(f".{entry.name}.{token}.{end}")
                           for end in ("tmp", "old"))
            temp.mkdir()
            try:
                for name, a in arrays.items():
                    np.save(temp / f"{name}.npy", a)
                (temp / "crc32").write_bytes(b"%08x" % crc)
                if entry.exists():  # a directory is moved aside, not replaced
                    os.rename(entry, aside)
                os.rename(temp, entry)
            finally:
                shutil.rmtree(temp, ignore_errors=True)
                shutil.rmtree(aside, ignore_errors=True)
        except OSError:
            pass

    def replace_rows(self, path: str | Path, rows: np.ndarray,
                     digest: Callable[[], str | None]) -> None:
        """Write ``rows`` as the ``rows.npy`` of the entry of ``path``'s
        content, in place of the one there, unless it would take more than
        half of the free space; a file that cannot be stat'ed or has no
        digest, or an entry that is not there, is left out."""
        try:
            size = os.stat(path).st_size
            folder = self.directory()
        except (OSError, RuntimeError):  # RuntimeError: no home directory
            return
        if (sha := _checked(digest())) is None:
            return
        entry = folder / f"{size}-{sha}"
        try:
            if shutil.disk_usage(entry).free < 2 * rows.nbytes:
                return
            with atomic_write(entry / "rows.npy") as (temp,), open(temp, "wb") as handle:
                np.save(handle, rows)
        except OSError:
            pass

    def _crc32(self, arrays: Mapping[str, np.ndarray], digest: str,
               key: Mapping[str, str]) -> int:
        """The crc32 of an entry: of the version, the digest, the key
        strings, and each array's name, layout and bytes, in order."""
        crc = zlib.crc32(f"{self.version} {digest} {sorted(key.items())}".encode("utf-8"))
        for name, a in arrays.items():
            crc = zlib.crc32(f" {name} {a.dtype.descr} {a.shape}".encode("utf-8"), crc)
            crc = zlib.crc32(a, crc)
        return crc


def _mapped(path: Path) -> np.ndarray:
    """The array of a ``.npy`` file, mapped read-only; a ValueError for a
    file that does not hold one, or holds Python objects."""
    import mmap  # here, so that a command that reads no entry never loads it

    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran, dtype = read_header(handle)
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        offset = handle.tell()
    return np.frombuffer(buffer, dtype, math.prod(shape), offset).reshape(
        shape, order="F" if fortran else "C")


# how long before its hash starts a file's modification and change times
# must lie for its digest to be kept: a file system with coarse timestamps
# gives a file written again within one tick the same ones (git's "racy"
# files), and no tick is coarser than 2 s
DIGEST_SETTLE_NS = 2_000_000_000


class DigestMemo:
    """The sha256 of one input file, kept under ``cache_root() / "digests"``
    for the next command that reads the file unchanged.

    An entry is named by the regular file's ``st_dev``, ``st_ino``,
    ``st_size``, ``st_mtime_ns`` and ``st_ctime_ns`` (of a symbolic link's
    target) and holds the 64 hex digits of its sha256.  Creating a memo
    stats ``path`` (it never opens it) and reads its entry: ``digest`` is
    the digest kept for the file as it is, or None.  An entry that does not
    read back as a digest is a miss.  The memo is off where ``st_ctime`` is
    not the change time (off POSIX): there every file is a miss."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._started = time.time_ns()
        try:
            info = os.stat(path)
        except OSError:
            info = None
        self.regular = info is not None and stat.S_ISREG(info.st_mode)
        self._seen = info if self.regular and os.name == "posix" else None
        self._entry = None
        if self._seen is not None:
            with suppress(RuntimeError):  # no home directory
                self._entry = cache_root() / "digests" / _stat_name(info)
        self.digest = self._read()

    def _read(self) -> str | None:
        if self._entry is None:
            return None
        try:
            text = self._entry.read_text(encoding="ascii")
        except (OSError, ValueError):
            return None
        return text if _SHA256_HEX.fullmatch(text) else None

    def sha256(self, hash_file: Callable[[str], str]) -> str:
        """``digest``, or else ``hash_file(path)``, kept in an entry when the
        file stayed as the memo saw it while it was hashed and its times lie
        ``DIGEST_SETTLE_NS`` before the memo was made.  Writing an entry
        removes the others of the file's device and inode; a cache that
        cannot be written is left alone."""
        if self.digest is not None:
            return self.digest
        digest = hash_file(self.path)
        if self._entry is None or self._started - max(
                self._seen.st_mtime_ns, self._seen.st_ctime_ns) < DIGEST_SETTLE_NS:
            return digest
        try:
            if _stat_name(os.stat(self.path)) != self._entry.name:
                return digest
            folder = self._entry.parent
            folder.mkdir(parents=True, exist_ok=True)
            with atomic_write(self._entry) as (temp,):
                Path(temp).write_text(digest, encoding="ascii")
            for old in folder.glob(f"{self._seen.st_dev}-{self._seen.st_ino}-*"):
                if old != self._entry:
                    old.unlink(missing_ok=True)
        except OSError:
            pass
        return digest


def _stat_name(info: os.stat_result) -> str:
    return (f"{info.st_dev}-{info.st_ino}-{info.st_size}-"
            f"{info.st_mtime_ns}-{info.st_ctime_ns}")
