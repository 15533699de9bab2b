"""The digest memo: an input file that an earlier command hashed, and that
has not changed since, is not hashed again.

An entry under ``digests/`` is named by the file's device, inode, size and
modification and change times, and holds its sha256.  No byte of any
output, ``.prov`` or stdout depends on whether the memo held the digest.
"""

import argparse
import hashlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lexlearn import _files, cli
from lexlearn._files import DigestMemo
from lexlearn.cli import main

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="the memo trusts st_ctime only on POSIX")


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def input_sha256(path) -> str:
    """The digest of one input file, from the memo or hashed on this thread."""
    return DigestMemo(path).sha256(cli._file_sha256)


def no_hashing(path):
    raise AssertionError(f"{path} was hashed again")


@pytest.fixture
def world(tmp_path):
    """A corpus, a ``.vec`` file, a lexicon (also the gold ratings) and a
    users and traits file, all written before any command runs."""
    rng = np.random.default_rng(5)
    words = [f"w{i:02d}" for i in range(36)]
    vecs = {w: rng.standard_normal(6) for w in words}
    emb = tmp_path / "emb.vec"
    emb.write_text("".join(w + " " + " ".join(f"{x:.5f}" for x in vecs[w]) + "\n"
                           for w in words), encoding="utf-8")
    corpus = tmp_path / "corpus.csv"
    rows = []
    for _ in range(90):
        toks = [words[j] for j in rng.integers(0, len(words), 4)]
        rows.append(" ".join(toks) + f",{float(np.mean([vecs[w][0] for w in toks])):.5f}")
    corpus.write_text("text,empathy\n" + "\n".join(rows) + "\n", encoding="utf-8")
    lex = tmp_path / "lex.tsv"
    lex.write_text("word\tempathy\n" + "".join(
        f"{w}\t{vecs[w][0]:.4f}\n" for w in words), encoding="utf-8")
    users = tmp_path / "users.csv"
    users.write_text("user_id,text\n" + "".join(
        f"u{i},{words[i]} {words[(5 * i + 3) % len(words)]}\n" for i in range(12)),
        encoding="utf-8")
    traits = tmp_path / "traits.csv"
    traits.write_text("user_id,emp\n" + "".join(
        f"u{i},{(7 * i) % 5}\n" for i in range(12)), encoding="utf-8")
    net = ["--hidden", "4", "--epochs", "3"]
    out = ["--out", str(tmp_path / "out.tsv")]
    extrinsic = ["eval", "extrinsic", "--lexicon", str(lex), "--construct", "empathy",
                 "--users", str(users), "--traits", str(traits), "--trait-column", "emp"]
    commands = {
        "induce": ["induce", "--method", "mean-star", "--corpus", str(corpus),
                   "--construct", "empathy", *out],
        "induce-mlffn": ["induce", "--method", "mlffn", "--corpus", str(corpus),
                         "--construct", "empathy", "--embeddings", str(emb), *net, *out],
        "induce-mlffn-all": ["induce", "--method", "mlffn", "--corpus", str(corpus),
                             "--construct", "empathy", "--embeddings", str(emb),
                             "--rate-all-embedded", *net, *out],
        "eval-intrinsic": ["eval", "intrinsic", "--corpus", str(corpus),
                           "--gold", str(lex), "--construct", "empathy",
                           "--methods", "mean-star,mlffn", "--folds", "3",
                           "--embeddings", str(emb), *net, *out],
        "eval-extrinsic": [*extrinsic, *out],
        "eval-extrinsic-no-out": extrinsic,
        "cluster": ["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                    "--construct", "empathy", "--k", "3", "--knn", "5", *out],
        "describe": ["describe", "--lexicon", str(lex),
                     "--plot-data", str(tmp_path / "out.tsv")],
        "rescale": ["rescale", "--lexicon", str(lex), "--range", "0:1", *out],
    }
    return tmp_path, {name: argv + ["--seed", "2"] for name, argv in commands.items()}


def run(tmp_path, argv, capsys):
    """Exit code, stdout, stderr, and the output and ``.prov`` bytes."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    files = [tmp_path / "out.tsv", tmp_path / "out.tsv.prov"]
    outputs = [f.read_bytes() if f.exists() else None for f in files]
    for f in files:
        f.unlink(missing_ok=True)
    return code, captured.out, captured.err, outputs


def entries(folder: Path) -> list[Path]:
    return sorted(folder.iterdir()) if folder.exists() else []


INPUTS = {"induce": 1, "induce-mlffn": 2, "induce-mlffn-all": 2, "eval-intrinsic": 3,
          "eval-extrinsic": 3, "eval-extrinsic-no-out": 1, "cluster": 2,
          "describe": 1, "rescale": 1}


@pytest.mark.parametrize("command", list(INPUTS))
def test_second_run_hashes_nothing_and_writes_the_same_bytes(
        world, digest_memo, monkeypatch, capsys, command):
    tmp_path, commands = world
    first = run(tmp_path, commands[command], capsys)
    assert first[0] == 0, first[2]
    assert len(entries(digest_memo)) == INPUTS[command]
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    monkeypatch.setattr(cli, "_file_sha256", no_hashing)
    assert run(tmp_path, commands[command], capsys) == first
    assert [t.name for t in started] == []  # every input hit: no hash thread


def test_runs_without_a_writable_cache_write_the_same_bytes(
        world, digest_memo, monkeypatch, capsys):
    tmp_path, commands = world
    cold = run(tmp_path, commands["cluster"], capsys)
    warm = run(tmp_path, commands["cluster"], capsys)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    hashed = []
    real = cli._file_sha256
    monkeypatch.setattr(cli, "_file_sha256", lambda p: hashed.append(p) or real(p))
    assert run(tmp_path, commands["cluster"], capsys) == cold == warm
    assert run(tmp_path, commands["cluster"], capsys) == cold
    assert len(hashed) == 4  # two inputs, hashed by each run
    assert blocker.read_bytes() == b""


def test_in_place_rescale_on_a_hit_records_the_pre_run_digest(
        world, digest_memo, monkeypatch):
    tmp_path, commands = world
    lex = tmp_path / "lex.tsv"
    before = sha(lex)
    assert main(commands["describe"]) == 0  # keeps the lexicon's digest
    monkeypatch.setattr(cli, "_file_sha256", no_hashing)
    assert main(["rescale", "--lexicon", str(lex), "--range", "0:1",
                 "--out", str(lex), "--seed", "0"]) == 0
    assert sha(lex) != before
    prov = json.loads((tmp_path / "lex.tsv.prov").read_text(encoding="utf-8"))
    assert prov["inputs"] == {str(lex): before}


class TestEntries:
    """What the memo keeps, and when it keeps nothing."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("one two three\n", encoding="utf-8")
        return path

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The paths ``cli._file_sha256`` hashes, in order."""
        paths = []
        real = cli._file_sha256
        monkeypatch.setattr(cli, "_file_sha256",
                            lambda p: paths.append(Path(p)) or real(p))
        return paths

    def test_entry_is_named_by_the_stat_and_holds_the_digest(self, data, digest_memo,
                                                             hashed):
        assert input_sha256(str(data)) == sha(data)
        info = data.stat()
        (entry,) = entries(digest_memo)
        assert entry.name == (f"{info.st_dev}-{info.st_ino}-{info.st_size}-"
                              f"{info.st_mtime_ns}-{info.st_ctime_ns}")
        assert entry.read_text(encoding="ascii") == sha(data)
        assert DigestMemo(data).digest == sha(data)
        assert input_sha256(str(data)) == sha(data)
        assert hashed == [data]

    def test_rewrite_at_the_same_size_and_mtime_misses(self, data, digest_memo, hashed):
        input_sha256(str(data))
        old = data.stat()
        data.write_text("one two THREE\n", encoding="utf-8")
        os.utime(data, ns=(old.st_atime_ns, old.st_mtime_ns))
        assert (data.stat().st_size, data.stat().st_mtime_ns) == (old.st_size,
                                                                  old.st_mtime_ns)
        assert DigestMemo(data).digest is None
        assert input_sha256(str(data)) == sha(data)
        assert hashed == [data, data]
        # the new entry took the place of the old one of the same inode
        (entry,) = entries(digest_memo)
        assert entry.read_text(encoding="ascii") == sha(data)

    @pytest.mark.parametrize("recent", ["ctime", "mtime"])
    def test_file_changed_within_the_settle_margin_is_not_kept(
            self, data, digest_memo, monkeypatch, hashed, recent):
        if recent == "ctime":  # an old mtime, a ctime of now
            monkeypatch.setattr(_files, "DIGEST_SETTLE_NS", 3600 * 10 ** 9)
            os.utime(data, (time.time() - 7200, time.time() - 7200))
        else:  # a future mtime: it never lies before the hash
            os.utime(data, (time.time() + 3600, time.time() + 3600))
        assert input_sha256(str(data)) == sha(data)
        assert entries(digest_memo) == []
        assert input_sha256(str(data)) == sha(data)
        assert hashed == [data, data]

    def test_file_changed_while_hashed_is_not_kept(self, data, digest_memo,
                                                   monkeypatch):
        real = cli._file_sha256

        def appending(path):
            digest = real(path)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("four\n")
            return digest

        monkeypatch.setattr(cli, "_file_sha256", appending)
        input_sha256(str(data))
        assert entries(digest_memo) == []
        assert DigestMemo(data).digest is None

    def test_a_fifo_is_never_opened_nor_kept(self, tmp_path, digest_memo, hashed):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        memo = DigestMemo(fifo)  # would block here if it opened the FIFO
        assert not memo.regular and memo.digest is None
        # a command reads a FIFO once, with its load: its digest is null
        args = argparse.Namespace(command="describe", seed=None, plot_data=None)
        with cli._Run(args, [fifo]) as run:
            assert run.digest(fifo)() is None
        assert hashed == []
        assert entries(digest_memo) == []

    @pytest.mark.parametrize("damage", [b"", b"0" * 63, b"A" * 64, b"\xff" * 64,
                                        b"0" * 64 + b"\n"],
                             ids=["empty", "short", "upper", "binary", "newline"])
    def test_damaged_entry_is_a_miss_and_rewritten(self, data, digest_memo, hashed,
                                                   damage):
        input_sha256(str(data))
        (entry,) = entries(digest_memo)
        entry.write_bytes(damage)
        assert DigestMemo(data).digest is None
        assert input_sha256(str(data)) == sha(data)
        assert hashed == [data, data]
        assert entries(digest_memo) == [entry]
        assert entry.read_text(encoding="ascii") == sha(data)

    def test_entry_that_is_a_directory_is_a_miss(self, data, digest_memo, hashed):
        input_sha256(str(data))
        (entry,) = entries(digest_memo)
        entry.unlink()
        entry.mkdir()
        assert input_sha256(str(data)) == sha(data)
        assert hashed == [data, data]

    def test_symlinked_input_is_keyed_on_its_target(self, data, tmp_path, digest_memo,
                                                    hashed):
        link = tmp_path / "link.txt"
        link.symlink_to(data)
        assert input_sha256(str(link)) == sha(data)
        (entry,) = entries(digest_memo)
        assert entry.name.startswith(f"{data.stat().st_dev}-{data.stat().st_ino}-")
        assert DigestMemo(data).digest == sha(data)
        assert hashed == [link]

    def test_one_entry_per_inode(self, data, tmp_path, digest_memo, hashed):
        other = tmp_path / "other.txt"
        other.write_text("other\n", encoding="utf-8")
        for text in ("a\n", "bb\n", "ccc\n"):
            data.write_text(text, encoding="utf-8")
            assert input_sha256(str(data)) == sha(data)
            assert input_sha256(str(other)) == sha(other)
        assert len(entries(digest_memo)) == 2
        assert {e.read_text(encoding="ascii") for e in entries(digest_memo)} == {
            sha(data), sha(other)}
        assert hashed == [data, other, data, data]
