"""Setup shared by every test."""

import pytest

from lexlearn import _files


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    """Each test keeps every lexlearn cache entry under its own ``tmp_path``,
    so no test reads or writes the user's cache or sees another's entries.
    No input file settles for the digest memo, so every command hashes its
    inputs however long a test runs; the memo's own tests set the margin."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_files, "DIGEST_SETTLE_NS", float("inf"))
    return tmp_path / "cache" / "lexlearn"


@pytest.fixture
def vector_cache(cache_root):
    """Where full word-vector loads keep their entries."""
    return cache_root / "vectors"


@pytest.fixture
def users_cache(cache_root):
    """Where users loads keep their entries."""
    return cache_root / "users"


@pytest.fixture
def digest_memo(cache_root, monkeypatch):
    """Where the digest memo keeps its entries, with a settle margin of 0,
    so that a file written before a command is kept by it."""
    monkeypatch.setattr(_files, "DIGEST_SETTLE_NS", 0)
    return cache_root / "digests"
