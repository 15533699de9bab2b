"""Setup shared by every test."""

import pytest


@pytest.fixture(autouse=True)
def vector_cache(tmp_path, monkeypatch):
    """Each test keeps word-vector cache entries under its own ``tmp_path``,
    so no test reads or writes the user's cache or sees another's entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "lexlearn" / "vectors"
