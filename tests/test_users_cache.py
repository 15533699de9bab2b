"""The users loader's cache of parsed usage tables.

``load_user_corpora`` groups every user's tokens, keeps that usage table in
a cache entry named by the users file's size and sha256, and joins the
traits on every call.  Hypothesis draws users and traits tables and checks
the loader, uncached, cold and warm, against the filter-then-group
reference in ``_worlds``.  The CLI tests check that no byte of stdout,
stderr, the score file or its ``.prov`` depends on the cache.
"""

import csv
import dataclasses
import hashlib
import io
import os
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lexlearn import evaluation  # noqa: E402
from lexlearn.cli import main  # noqa: E402
from lexlearn.errors import LexlearnError  # noqa: E402
from lexlearn.evaluation import load_user_corpora  # noqa: E402

from _worlds import damage, entry_damages, filter_then_group_users  # noqa: E402


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def outcome(call, *args, **kwargs):
    """(the Users arrays or None, error type and text or None, warning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            users, error = call(*args, **kwargs), None
        except LexlearnError as exc:
            users, error = None, (type(exc), str(exc))
    if users is not None:
        users = (users.ids, users.traits.tobytes(), users.terms,
                 *((a.dtype.str, a.tobytes()) for a in (users.user, users.term,
                                                        users.count)))
    return users, error, [str(w.message) for w in caught]


TOKENS = ["great", "Great!", "(meh)", "MEH", "awful...", "--", "?!", "!!", "x2,",
          "café", "ÉCOLE", "'quoted'", "a-b", "日本", "٣", ""]
COUNTS = ["1", "2", "3", "7", "2.5", "1e3", "12345678901"]


@st.composite
def users_tables(draw):
    """A users table in either layout and a traits table, as rows of cells,
    with the delimiter they are written with."""
    uids = draw(st.lists(st.text("ab,\n\x00\"é ", max_size=3), min_size=1,
                         max_size=6, unique=True))
    pick = st.integers(0, len(uids) - 1)
    if draw(st.booleans()):  # the (user_id, text) layout
        header = ["user_id", "text"]
        cell = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
        rows = draw(st.lists(st.tuples(pick.map(uids.__getitem__), cell), max_size=20))
    else:
        header = ["user_id", "word", "count"]
        count = st.one_of(st.sampled_from(COUNTS),
                          st.sampled_from(["0", "-1", "x", "nan", "0.5", ""]))
        rows = draw(st.lists(st.tuples(pick.map(uids.__getitem__),
                                       st.sampled_from(TOKENS), count), max_size=20))
    scored = draw(st.lists(st.booleans(), min_size=len(uids), max_size=len(uids)))
    traits = [(uid, repr(draw(st.floats(-3, 3)))) for uid, s in zip(uids, scored) if s]
    delimiter = draw(st.sampled_from([",", "\t", ";"]))
    return [header, *rows], [["user_id", "t"], *traits], delimiter


def write_table(path, rows, delimiter):
    buffer = io.StringIO()
    csv.writer(buffer, delimiter=delimiter).writerows(rows)
    path.write_bytes(buffer.getvalue().encode("utf-8"))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(users_tables(), st.booleans())
@example(([["user_id", "text"], ["u", "great"], ["v", ""], ["w", "meh"],
           ["u", "great (meh)"], ["v", "--"]],
          [["user_id", "t"], ["u", "1.0"], ["v", "2.0"]], ","), True)
def test_grouping_first_gives_the_reference_users(tables, int64_keys):
    usage_rows, trait_rows, delimiter = tables
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(evaluation, "_INT32_KEYS", 0 if int64_keys else 2**31):
        usage, traits = Path(tmp) / "users.txt", Path(tmp) / "traits.txt"
        write_table(usage, usage_rows, delimiter)
        write_table(traits, trait_rows, delimiter)
        shutil.rmtree(evaluation._USAGE_CACHE.directory(), ignore_errors=True)
        args = (str(usage), str(traits), "t")
        want = outcome(filter_then_group_users, *args, delimiter=delimiter)
        assert outcome(load_user_corpora, *args, delimiter=delimiter) == want
        digest = sha(usage)
        cold = outcome(load_user_corpora, *args, delimiter=delimiter,
                       digest=lambda: digest)
        assert cold == want
        entries = list(evaluation._USAGE_CACHE.directory().glob("*"))
        if not entries:  # the parse failed
            assert want[1] is not None
            return
        with mock.patch.object(evaluation, "_parse_usage", side_effect=AssertionError):
            warm = outcome(load_user_corpora, *args, delimiter=delimiter,
                           digest=lambda: digest)
        assert warm == want


class TestUsersCache:
    """``eval extrinsic`` reads the users table from the cache entry of the
    users file's sha256 once one has been written."""

    USERS = ("user_id,text\nu1,great great meh\nu2,awful meh\nu3,Great!\n"
             "u4,awful awful\nu2,awful\nu5,meh\n")

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "lex.tsv").write_text(
            "word\taff\nawful\t1.0\nmeh\t2.0\ngreat\t3.0\n", encoding="utf-8")
        (tmp_path / "users.csv").write_text(self.USERS, encoding="utf-8")
        (tmp_path / "traits.csv").write_text(
            "user_id,t\nu1,3.0\nu2,1.5\nu3,2.5\nu4,1.0\n", encoding="utf-8")
        return tmp_path

    @pytest.fixture
    def extrinsic(self, files):
        """Run ``eval extrinsic``: (exit code, stdout, stderr, score file
        bytes, .prov bytes); ``out=False`` runs it with no score file."""

        def run(*extra, out=True):
            out_path = files / "scores.tsv"
            out_path.unlink(missing_ok=True)
            argv = ["eval", "extrinsic", "--lexicon", str(files / "lex.tsv"),
                    "--construct", "aff", "--users", str(files / "users.csv"),
                    "--traits", str(files / "traits.csv"), "--trait-column", "t",
                    "--seed", "0", *extra]
            if out:
                argv += ["--out", str(out_path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = main(argv)
            files_out = [p.read_bytes() if p.exists() else None
                         for p in (out_path, Path(f"{out_path}.prov"))]
            return rc, stdout.getvalue(), stderr.getvalue(), *files_out

        return run

    # the files of an entry
    FILES = ["count.npy", "crc32", "ids.npy", "ids_ends.npy", "term.npy",
             "terms.npy", "terms_ends.npy", "user.npy"]
    DAMAGES = entry_damages(FILES)

    @staticmethod
    def entries(cache):
        return sorted(cache.glob("*")) if cache.exists() else []

    @staticmethod
    def uncached(monkeypatch, files):
        """Point the cache at a path under a regular file: no entry can be
        read or written."""
        blocker = files / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))

    @pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
    def test_cold_warm_and_uncached_runs_match(self, extrinsic, files, monkeypatch,
                                               users_cache, out):
        cold = extrinsic(out=out)
        assert cold[0] == 0
        assert "u5" in cold[2]  # the missing-trait warning
        users = files / "users.csv"
        (entry,) = self.entries(users_cache)
        assert entry.name == f"{users.stat().st_size}-{sha(users)}"
        assert sorted(p.name for p in entry.iterdir()) == self.FILES
        with mock.patch.object(evaluation, "_parse_usage", side_effect=AssertionError):
            warm = extrinsic(out=out)
        self.uncached(monkeypatch, files)  # a cache that cannot be written
        assert cold == warm == extrinsic(out=out)

    @pytest.mark.parametrize("how", DAMAGES)
    def test_damaged_entry_is_a_miss_and_rewritten(self, extrinsic, users_cache, how):
        first = extrinsic()
        (entry,) = self.entries(users_cache)
        written = {name: (entry / name).read_bytes() for name in self.FILES}
        kind, names = self.DAMAGES[how]
        for name in names:
            damage(entry / name, kind)
        with mock.patch.object(evaluation, "_parse_usage",
                               wraps=evaluation._parse_usage) as parse:
            assert extrinsic() == first
        assert parse.called
        assert {name: (entry / name).read_bytes() for name in self.FILES} == written
        with mock.patch.object(evaluation, "_parse_usage", side_effect=AssertionError):
            assert extrinsic() == first

    def test_an_entry_of_the_zipped_layout_is_removed(self, extrinsic, files,
                                                      users_cache):
        # the entry that a version before wrote for the same content
        users_cache.mkdir(parents=True)
        users = files / "users.csv"
        old = users_cache / f"{users.stat().st_size}-{sha(users)}.npz"
        np.savez(old, format_version=np.int64(2), user=np.zeros(3, np.int32))
        first = extrinsic()
        assert self.entries(users_cache) == [old.with_suffix("")]
        with mock.patch.object(evaluation, "_parse_usage", side_effect=AssertionError):
            assert extrinsic() == first

    def test_entry_that_does_not_hold_a_table_is_a_miss(self, extrinsic, files,
                                                        users_cache):
        first = extrinsic()
        (entry,) = self.entries(users_cache)
        good = {p.stem: np.load(p) for p in entry.glob("*.npy")}
        digest = sha(files / "users.csv")
        bad = {
            "dtype": {"user": good["user"].astype(np.int64)},
            "length": {"count": good["count"][:-1]},
            "user-range": {"user": good["user"] + 5},
            "term-range": {"term": -good["term"] - 1},
            "offsets": {"ids_ends": good["ids_ends"][::-1].copy()},
            "blob": {"terms": good["terms"][:-1]},
        }

        def write(arrays):
            """Write ``arrays`` as the entry, with a checksum that holds, so
            that only they tell a read whether they hold a table; read it."""
            dataclasses.replace(evaluation._USAGE_CACHE, pack=lambda _: arrays).write(
                entry, digest, None, delimiter=",")
            return evaluation._USAGE_CACHE.read(entry, digest, delimiter=",")

        assert write(good) is not None
        for change in bad.values():
            assert write({**good, **change}) is None
            with mock.patch.object(evaluation, "_parse_usage",
                                   wraps=evaluation._parse_usage) as parse:
                assert extrinsic() == first
            assert parse.called

    @pytest.mark.parametrize("how", ["version", "delimiter"])
    def test_other_version_or_delimiter_is_a_miss(self, extrinsic, files, monkeypatch,
                                                  users_cache, how):
        if how == "version":
            first = extrinsic()
            monkeypatch.setattr(evaluation, "_USAGE_CACHE", dataclasses.replace(
                evaluation._USAGE_CACHE, version=evaluation._USAGE_CACHE.version + 1))
            run = extrinsic
        else:
            # one file read under either delimiter: "," reads users u1-u3,
            # ";" users v1-v3, each with other words
            (files / "users.csv").write_text(
                "user_id,text,x;user_id;text\nu1,great,x;v1;awful\n"
                "u2,meh,x;v2;great\nu3,awful,x;v3;meh\n", encoding="utf-8")
            (files / "traits.csv").write_text(
                "user_id,t,x;user_id;t\nu1,3,x;v1;1\nu2,2,x;v2;3\nu3,1,x;v3;2\n",
                encoding="utf-8")
            first = extrinsic("--delimiter", ",")
            assert "users=3" in first[1]

            def run():
                return extrinsic("--delimiter", ";")
        with mock.patch.object(evaluation, "_parse_usage",
                               wraps=evaluation._parse_usage) as parse:
            second = run()
        assert parse.called
        assert len(self.entries(users_cache)) == 1
        with mock.patch.object(evaluation, "_parse_usage", side_effect=AssertionError):
            assert run() == second  # the entry was rewritten under the new key
        self.uncached(monkeypatch, files)
        assert run() == second
        if how == "delimiter":
            assert second[3] != first[3] and "v1\t" in second[3].decode()

    def test_rewritten_users_file_never_reads_the_old_entry(self, extrinsic, files,
                                                            monkeypatch, users_cache):
        first = extrinsic()
        users = files / "users.csv"
        old = users.stat()
        # other words, the same size, the same modification time
        users.write_text(self.USERS.replace("great", "aw!ul"), encoding="utf-8")
        os.utime(users, ns=(old.st_atime_ns, old.st_mtime_ns))
        assert users.stat().st_size == old.st_size
        second = extrinsic()
        assert second[3] != first[3]
        assert len(self.entries(users_cache)) == 2
        self.uncached(monkeypatch, files)
        assert extrinsic() == second

    @pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
    def test_bad_users_row_fails_every_run_and_writes_no_entry(
            self, extrinsic, files, users_cache, out):
        (files / "users.csv").write_text(
            "user_id,word,count\nu1,great,2\nu2,meh,x\n", encoding="utf-8")
        first = extrinsic(out=out)
        assert first[0] == 1
        assert "stage 'load-users'" in first[2] and "line 3" in first[2]
        assert extrinsic(out=out) == first
        assert self.entries(users_cache) == []


def test_the_parse_an_entry_holds_is_pinned_to_the_format_version(tmp_path):
    # an entry holds the output of tokenize (through _TermIds), which lives
    # in corpus.py: a change to either parse must take a new version, or a
    # warm run would return the terms of the old one
    text = tmp_path / "text.csv"
    text.write_bytes('user_id,text\nu1,"Great!! (great) GREAT, café--"\n'
                     "u2,-- ?! !! x2 'quoted' a-b\nu3,\n"
                     "u1,ÉCOLE 日本 ٣ ...école...\nu2,Café great\n".encode("utf-8"))
    counts = tmp_path / "counts.csv"
    counts.write_bytes('user_id,word,count\n"a,b",Great!,2\n"n\nl",--,3\n'
                       '"a,b",great,1\nz,x,1\n'.encode("utf-8"))
    parsed = []
    for path in (text, counts):
        usage = evaluation._parse_usage(path, ",")
        parsed.append((usage.ids, usage.terms, usage.user.tolist(),
                       usage.term.tolist(), usage.count.tolist()))
    assert (evaluation._USAGE_CACHE.version, parsed) == (3, [
        (("u1", "u2"),
         ("great", "café", "--", "?!", "!!", "x2", "quoted", "a-b", "école",
          "日本", "٣"),
         [0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1],
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 0],
         [3, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1]),
        (("a,b", "n\nl", "z"), ("great", "--", "x"), [0, 1, 2], [0, 1, 2],
         [3, 3, 1]),
    ]), ("the users parse changed: give evaluation._USAGE_CACHE a new version "
         "and pin the new parse here")
