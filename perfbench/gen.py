"""Seeded input generation for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and writes plain files
into a directory; the same seed always gives byte-identical files.  The
program under test sees only the files named in a workload's commands.
What the benchmark needs to score the outputs (planted ratings, planted
cluster labels) is returned to the caller and never written next to the
inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CONSTRUCT = "empathy"
DIM = 300
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_DECIMALS = 4
_QMAX = 99999  # vector components are written as %.4f in [-9.9999, 9.9999]


def make_words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct lowercase pseudo-words of three syllables each."""
    base = len(SYLLABLES)
    if n > base ** 3:
        raise ValueError(f"cannot make {n} distinct words from {base ** 3}")
    codes = rng.choice(base ** 3, size=n, replace=False)
    return [
        SYLLABLES[c // base ** 2] + SYLLABLES[c // base % base] + SYLLABLES[c % base]
        for c in codes.tolist()
    ]


def zipf_probabilities(n: int, offset: float = 300.0) -> np.ndarray:
    """Word probabilities falling as 1 / (rank + offset): a long tail, but
    flat enough that every word of the vocabulary occurs."""
    p = 1.0 / (np.arange(n) + offset)
    return p / p.sum()


def quantize(vectors: np.ndarray) -> np.ndarray:
    """Round to the written precision, so the planted values match the file."""
    q = np.clip(np.rint(vectors * 10 ** _DECIMALS), -_QMAX, _QMAX)
    return q / 10 ** _DECIMALS


def write_vec(path: Path, words: list[str], vectors: np.ndarray) -> None:
    """Write a ``.vec`` text file with a ``count dim`` header line."""
    table = np.array(
        [f"{i / 10 ** _DECIMALS:.{_DECIMALS}f}" for i in range(-_QMAX, _QMAX + 1)],
        dtype=object,
    )
    codes = np.rint(vectors * 10 ** _DECIMALS).astype(np.int64) + _QMAX
    cells = table[codes].tolist()
    lines = [f"{len(words)} {vectors.shape[1]}"]
    lines.extend(w + " " + " ".join(row) for w, row in zip(words, cells))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_rows(path: Path, header: list[str], rows) -> None:
    sep = "\t" if path.suffix == ".tsv" else ","
    out = [sep.join(header)]
    out.extend(sep.join(row) for row in rows)
    path.write_bytes(("\n".join(out) + "\n").encode("utf-8"))


def _documents(rng, ratings: np.ndarray, p: np.ndarray, n_docs: int,
               length: tuple[int, int], noise: float):
    """Random word bags; each label is the mean planted rating of its tokens
    plus Gaussian noise.  Returns (token index arrays, labels)."""
    lengths = rng.integers(length[0], length[1] + 1, size=n_docs)
    tokens = rng.choice(len(p), size=int(lengths.sum()), p=p)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    labels = np.add.reduceat(ratings[tokens], starts) / lengths
    labels = labels + rng.normal(0.0, noise, size=n_docs)
    return np.split(tokens, starts[1:]), labels


def write_corpus(path: Path, words: list[str], docs, labels) -> None:
    write_rows(
        path,
        ["id", "text", CONSTRUCT],
        (
            [f"d{i:05d}", " ".join(words[t] for t in doc.tolist()), f"{y:.6f}"]
            for i, (doc, y) in enumerate(zip(docs, labels.tolist()))
        ),
    )


def write_lexicon(path: Path, words: list[str], ratings) -> None:
    write_rows(
        path, ["word", CONSTRUCT],
        ([w, repr(float(r))] for w, r in zip(words, ratings)),
    )


def gen_eval_bow(rng, out: Path, *, docs: int = 2000, vocab: int = 3000,
                 doc_len=(30, 70), users: int = 6000, user_rows: int = 4,
                 noise: float = 0.05) -> tuple[dict, dict]:
    """Corpus + gold lexicon for ``eval intrinsic``; users, traits and a
    planted lexicon for ``eval extrinsic``."""
    words = make_words(rng, vocab)
    ratings = rng.standard_normal(vocab)
    p = zipf_probabilities(vocab)
    doc_tokens, labels = _documents(rng, ratings, p, docs, doc_len, noise)
    write_corpus(out / "corpus.csv", words, doc_tokens, labels)
    write_lexicon(out / "gold.tsv", words, ratings)
    write_lexicon(out / "planted.tsv", words, ratings)
    user_tokens, row_means = _documents(
        rng, ratings, p, users * user_rows, doc_len, 0.0
    )
    user_ids = [f"u{u:05d}" for u in range(users)]
    write_rows(
        out / "users.csv", ["user_id", "text"],
        ([user_ids[i // user_rows], " ".join(words[t] for t in doc.tolist())]
         for i, doc in enumerate(user_tokens)),
    )
    traits = row_means.reshape(users, user_rows).mean(axis=1)
    traits = traits + rng.normal(0.0, noise, size=users)
    write_rows(
        out / "traits.csv", ["user_id", CONSTRUCT],
        ([u, f"{t:.6f}"] for u, t in zip(user_ids, traits.tolist())),
    )
    return {"users": users}, {
        "docs": docs,
        "tokens": sum(len(d) for d in doc_tokens),
        "vocab_words": vocab,
        "lexicon_words": vocab,
        "users": users,
        "user_tokens": sum(len(d) for d in user_tokens),
    }


def gen_induce_mlffn(rng, out: Path, *, docs: int = 2000, vocab: int = 3000,
                     lines: int = 50000, doc_len=(30, 70),
                     noise: float = 0.05) -> tuple[dict, dict]:
    """Corpus over an embedded vocabulary plus a ``.vec`` file of ``lines``
    words; ratings are linear in the vectors, so every embedded word has a
    planted rating the induced lexicon can be scored against."""
    words = make_words(rng, lines)
    vectors = quantize(0.1 * rng.standard_normal((lines, DIM)))
    planted = vectors @ rng.standard_normal(DIM)
    planted = (planted - planted.mean()) / planted.std()
    corpus_words = rng.permutation(lines)[:vocab]
    p = zipf_probabilities(vocab)
    doc_tokens, labels = _documents(rng, planted[corpus_words], p, docs, doc_len,
                                    noise)
    write_corpus(out / "corpus.csv", [words[i] for i in corpus_words.tolist()],
                 doc_tokens, labels)
    write_vec(out / "vectors.vec", words, vectors)
    return {"planted": dict(zip(words, planted.tolist()))}, {
        "docs": docs,
        "tokens": sum(len(d) for d in doc_tokens),
        "vocab_words": vocab,
        "vec_lines": lines,
    }


def _blocks(rng, words: list[str], n_blocks: int, jitter: float, pair: float,
            shared: float):
    """Planted blocks: each block has its own direction plus a part shared
    with its partner block (``pair``) and a part shared by all (``shared``).
    Partners sit at opposite rating poles, so the edges between them are
    negative.  ``jitter`` is per-word noise; it keeps the kNN graph
    connected, as a real embedding neighbourhood is."""
    n_basis = n_blocks + n_blocks // 2 + 1
    basis = np.linalg.qr(rng.standard_normal((DIM, n_basis)))[0].T
    blocks = np.arange(n_blocks)
    dirs = basis[blocks] + pair * basis[n_blocks + blocks // 2] + shared * basis[-1]
    labels = np.arange(len(words)) % n_blocks
    rng.shuffle(labels)
    pole = np.where(labels % 2 == 0, 1.0, 5.0)
    vectors = dirs[labels] + jitter * rng.standard_normal((len(words), DIM))
    ratings = pole + rng.uniform(-0.05, 0.05, size=len(words))
    return quantize(0.3 * vectors), ratings, labels


def gen_cluster(rng, out: Path, *, lines: int = 50000, small: int = 250,
                small_k: int = 50, large: int = 1500,
                large_k: int = 8) -> tuple[dict, dict]:
    """One ``.vec`` file holding two planted-block lexica and filler words."""
    words = make_words(rng, lines)
    order = rng.permutation(lines)
    vectors = quantize(0.1 * rng.standard_normal((lines, DIM)))
    oracle = {}
    lexicon_words = {}
    # (jitter, pair, shared): the 5-word blocks of the small lexicon are kept
    # tight so that 50 clusters are recoverable at all; the large lexicon has
    # enough jitter that its 4 partner pairs join into one connected graph
    # (the Lanczos path fails on a graph split into groups, see README.md).
    for name, rows, k, shape in (
        ("small", order[:small], small_k, (0.1, 0.3, 0.5)),
        ("large", order[small:small + large], large_k, (0.17, 0.7, 1.0)),
    ):
        lex_words = [words[i] for i in rows.tolist()]
        vecs, ratings, labels = _blocks(rng, lex_words, k, *shape)
        vectors[rows] = vecs
        write_lexicon(out / f"lexicon_{name}.tsv", lex_words, ratings)
        oracle[name] = dict(zip(lex_words, labels.tolist()))
        lexicon_words[name] = len(lex_words)
    write_vec(out / "vectors.vec", words, vectors)
    return oracle, {"vec_lines": lines, "lexicon_words": lexicon_words}


GENERATORS = {
    "eval-bow": gen_eval_bow,
    "induce-mlffn": gen_induce_mlffn,
    "cluster": gen_cluster,
}


def generate(workload: str, seed: int, out: Path, **sizes) -> tuple[dict, dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``out``.

    Returns (oracle, sizes): what the benchmark scores outputs against, and
    the input sizes, counts from the generator plus the bytes of each file.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    oracle, info = GENERATORS[workload](rng, out, **sizes)
    info["file_bytes"] = {
        f.name: f.stat().st_size for f in sorted(out.iterdir()) if f.is_file()
    }
    return oracle, info
