"""Files that readers see whole or not at all, the cache of parsed input
files, and the memo of input files' digests."""

from __future__ import annotations

import errno
import os
import re
import secrets
import shutil
import stat
import time
import zipfile
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
    """Parsed files kept by content, one ``<size>-<sha256>.npz`` entry per
    file under ``cache_root() / folder``.

    ``pack`` gives the arrays an entry stores for a parse, and ``unpack``
    the parse back from an open entry, or None when its arrays do not hold
    one.  An entry also stores ``version``, the sha256 and each ``key``
    string; an entry whose version, digest or keys differ is a miss, as is
    one that does not open or read back whole.  Entries are read with no
    pickle."""

    folder: str
    version: int
    pack: Callable[[T], dict[str, np.ndarray]]
    unpack: Callable[[Mapping[str, np.ndarray]], T | None]
    suffix = ".npz"  # of an entry's name

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
        if any(folder.glob(f"{info.st_size}-*{self.suffix}")):
            sha = _checked(digest())
            value = None if sha is None else self.read(
                folder / f"{info.st_size}-{sha}{self.suffix}", sha, **key)
            if value is not None:
                return value
        value = parse()
        if value is not None and (sha := _checked(digest())) is not None:
            self.write(folder / f"{info.st_size}-{sha}{self.suffix}", sha, value, **key)
        return value

    def read(self, entry: Path, digest: str, **key: str) -> T | None:
        """The parse in ``entry``, or None for a miss."""
        want = {"sha256": digest, **key}
        try:
            # opened here, so that an entry np.load refuses is closed too
            with open(entry, "rb") as handle, \
                    np.load(handle, allow_pickle=False) as data:
                if int(data["format_version"]) != self.version or any(
                        bytes(data[name]) != text.encode("utf-8")
                        for name, text in want.items()):
                    return None
                return self.unpack(data)
        # TypeError: an array of another shape where a number is stored
        except (OSError, ValueError, KeyError, EOFError, TypeError,
                zipfile.BadZipFile):
            return None

    def write(self, entry: Path, digest: str, value: T, **key: str) -> None:
        """Write ``entry`` for a parse, unless it would take more than half
        of the free space; an entry that cannot be written is left out."""
        payload = {
            "format_version": np.int64(self.version),
            **{name: _utf8(text) for name, text in {"sha256": digest, **key}.items()},
            **self.pack(value),
        }
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            size = sum(a.nbytes for a in payload.values())
            if shutil.disk_usage(entry.parent).free < 2 * size:
                return
            with atomic_write(entry) as (temp,), open(temp, "wb") as handle:
                np.savez(handle, **payload)
        except OSError:
            pass


class ArrayCache(ParseCache[T]):
    """Parsed files kept by content as a :class:`ParseCache` keeps them, but
    each entry a ``<size>-<sha256>/`` directory whose arrays a read maps
    into memory rather than copies, so that a reader touches only the bytes
    it uses.

    ``index.npy`` holds the arrays that ``pack`` gives, written once: the
    directory is written beside its place and renamed into it.  They are
    the fields of one structured value (so a field's bytes are at most
    numpy's limit on the size of one value, 2 GiB; a larger entry is not
    written), whose last field is a crc32 of the version, the digest, the
    layout and the bytes of the others.  A read maps it and checks the
    crc32: any changed byte makes the entry a miss.  ``rows.npy``, once
    :meth:`replace_rows` has written it, holds one more array, replaced
    whole and atomically; a read gives it to ``unpack`` as ``"rows"``,
    mapped and unchecked, or leaves it out when it does not map."""

    suffix = ""

    def read(self, entry: Path, digest: str, **key: str) -> T | None:
        try:
            index = np.load(entry / "index.npy", mmap_mode="r",
                            allow_pickle=False).view(np.ndarray)
            *names, last = index.dtype.names or ("",)
            if (index.shape != () or last != "crc32"
                    or int(index[last]) != self._crc32(index, digest)):
                return None
            data = {name: index[name] for name in names}
            try:
                data["rows"] = np.load(entry / "rows.npy", mmap_mode="r",
                                       allow_pickle=False).view(np.ndarray)
            except (OSError, ValueError):  # none, or one that does not map
                pass
            return self.unpack(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def write(self, entry: Path, digest: str, value: T, **key: str) -> None:
        """Write ``entry`` for a parse, unless it would take more than half
        of the free space, in place of a damaged one there; an entry that
        cannot be written is left out."""
        arrays = self.pack(value)
        try:
            index = np.zeros((), [(name, a.dtype, a.shape) for name, a in arrays.items()]
                             + [("crc32", "<u4")])
        except ValueError:  # over numpy's size limit
            return
        for name, a in arrays.items():
            index[name] = a
        index["crc32"] = self._crc32(index, digest)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            if shutil.disk_usage(entry.parent).free < 2 * index.nbytes:
                return
            token = secrets.token_hex(6)
            temp, aside = (entry.with_name(f".{entry.name}.{token}.{end}")
                           for end in ("tmp", "old"))
            temp.mkdir()
            try:
                np.save(temp / "index.npy", index)
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

    def _crc32(self, index: np.ndarray, digest: str) -> int:
        """The crc32 of an ``index.npy`` value: of the version, the digest,
        the layout and every byte before its own."""
        head = f"{self.version} {digest} {index.dtype.descr}".encode("utf-8")
        return zlib.crc32(index.reshape(1).view(np.uint8)[:-4], zlib.crc32(head))


def _utf8(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


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
