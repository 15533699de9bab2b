"""Setup shared by every test."""

import pytest


@pytest.fixture(autouse=True)
def cache_root(tmp_path, monkeypatch):
    """Each test keeps every lexlearn cache entry under its own ``tmp_path``,
    so no test reads or writes the user's cache or sees another's entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "lexlearn"


@pytest.fixture
def vector_cache(cache_root):
    """Where full word-vector loads keep their entries."""
    return cache_root / "vectors"


@pytest.fixture
def users_cache(cache_root):
    """Where users loads keep their entries."""
    return cache_root / "users"
