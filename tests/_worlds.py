"""Synthetic worlds shared by the unit and acceptance tests.

Each generator plants a known word-rating structure and derives document
labels from it, so the planted ratings serve as the oracle for whatever a
learning method recovers.  ``damage`` breaks a parse-cache file.
"""

import warnings
from collections import defaultdict
from itertools import compress, count

import numpy as np

from lexlearn.clustering import EDGE_DTYPE
from lexlearn.corpus import Document, _parse_number, _read_table, build_corpus
from lexlearn.embeddings import EmbeddingTable
from lexlearn.errors import DataError, RowError
from lexlearn.evaluation import Users, _TermIds
from lexlearn.induction import Lexicon
from lexlearn.neural import _backward, _forward_batch, _mse, _weight_penalty


def embedding_table(vectors):
    """EmbeddingTable over a word -> vector dict, one row per word in dict
    order."""
    return EmbeddingTable(
        tuple(vectors), np.array(list(vectors.values()), dtype=np.float32)
    )


def lexicon(entries, constructs=("aff",), provenance=None):
    """Lexicon over a word -> rating (or ratings row) dict."""
    words = sorted(entries)
    ratings = np.array([np.atleast_1d(entries[w]) for w in words], dtype=np.float64)
    return Lexicon(tuple(constructs), tuple(words),
                   ratings.reshape(len(words), len(constructs)), provenance or {})


def ratings_of(lex, construct):
    """Word -> rating dict of one construct column, as Python floats."""
    return dict(zip(lex.words, lex.values(construct).tolist()))


def edge_array(edges):
    """SignedGraph edge array from (i, j, w) triples."""
    return np.array(list(edges), dtype=EDGE_DTYPE)


def linear_world(seed, n_words=100, dim=100, n_docs=1000, words_per_doc=10,
                 noise=0.1, n_heldout=0, scale=1.0, link=None):
    """Planted linear world: rating(w) = scale * u . vec(w).

    Documents are random word bags; the label is the mean planted rating of
    the document's tokens, optionally passed through ``link``, plus Gaussian
    noise.  Held-out words get embeddings and planted ratings but never
    appear in any document.

    Returns (corpus, table, gold, planted_ratings, heldout_words).
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i:04d}" for i in range(n_words + n_heldout)]
    vecs = {w: rng.standard_normal(dim).astype(np.float32) for w in words}
    u = rng.standard_normal(dim) / np.sqrt(dim)
    planted = {
        w: float(np.asarray(vecs[w], dtype=np.float64) @ u) * scale for w in words
    }
    docs = []
    for i in range(n_docs):
        toks = tuple(words[j] for j in rng.integers(0, n_words, words_per_doc))
        mean_rating = float(np.mean([planted[t] for t in toks]))
        label = link(mean_rating) if link is not None else mean_rating
        label = float(label + rng.normal(0.0, noise))
        docs.append(Document(f"d{i:05d}", toks, {"aff": label}))
    corpus = build_corpus(docs, ["aff"])
    table = embedding_table(vecs)
    gold = lexicon({w: planted[w] for w in words[:n_words]})
    return corpus, table, gold, planted, words[n_words:]


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def random_corpus(rng, max_docs=100, max_vocab=200, constructs=("aff",)):
    """Random small corpus with arbitrary labels (for exact-oracle checks)."""
    n_docs = int(rng.integers(2, max_docs + 1))
    vocab_size = int(rng.integers(3, max_vocab + 1))
    words = [f"w{i:03d}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(1, 12))
        toks = tuple(words[j] for j in rng.integers(0, vocab_size, length))
        ratings = {c: float(rng.normal(4.0, 2.0)) for c in constructs}
        docs.append(Document(f"d{i:04d}", toks, ratings))
    return build_corpus(docs, list(constructs))


def planted_block_lexicon(seed, per_block=40, dim=30, jitter=0.05,
                          low=1.0, high=5.0):
    """Four word blocks: two embedding directions x two rating poles.

    Blocks sharing a direction but sitting at opposite rating poles force
    negative edges once the rating gap exceeds rho, so recovering the four
    blocks genuinely requires the signed objective.

    Returns (lexicon, table, block_labels).
    """
    rng = np.random.default_rng(seed)
    dirs = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
    vecs, entries, labels = {}, {}, {}
    layout = [(0, 0, low), (1, 0, high), (2, 1, low), (3, 1, high)]
    for block, d, rating in layout:
        for i in range(per_block):
            w = f"b{block}w{i:03d}"
            vecs[w] = (dirs[d] + jitter * rng.standard_normal(dim)).astype(np.float32)
            entries[w] = rating + rng.uniform(-jitter, jitter)
            labels[w] = block
    return lexicon(entries), embedding_table(vecs), labels


def write_split_world(directory, n_words=800, groups=4, dim=50, seed=1):
    """A world whose kNN graph falls apart into ``groups`` components: each
    word lies near one of ``groups`` random unit directions (jitter 0.03,
    scaled by 0.3), and every group holds words at both rating poles, 1 and
    5.  Writes ``lex.tsv`` (construct ``aff``) and ``v.vec`` under
    ``directory`` and returns their paths."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((groups, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    index = np.arange(n_words)
    vectors = 0.3 * (dirs[index % groups]
                     + 0.03 * rng.standard_normal((n_words, dim)))
    ratings = np.where(index % (2 * groups) < groups, 1.0, 5.0)
    ratings += rng.uniform(-0.05, 0.05, n_words)
    lex, vec = directory / "lex.tsv", directory / "v.vec"
    vec.write_text("".join(f"s{i:04d} " + " ".join(f"{x:.5f}" for x in row) + "\n"
                           for i, row in enumerate(vectors)), encoding="utf-8")
    lex.write_text("word\taff\n" + "".join(f"s{i:04d}\t{float(r)!r}\n"
                                           for i, r in enumerate(ratings)),
                   encoding="utf-8")
    return lex, vec


def adjusted_rand_index(a, b):
    """Standard ARI between two label sequences."""
    from collections import Counter

    pairs = Counter(zip(a, b))
    same_both = sum(v * (v - 1) / 2 for v in pairs.values())
    sa = sum(v * (v - 1) / 2 for v in Counter(a).values())
    sb = sum(v * (v - 1) / 2 for v in Counter(b).values())
    total = len(a) * (len(a) - 1) / 2
    expected = sa * sb / total
    max_index = (sa + sb) / 2
    return (same_both - expected) / (max_index - expected)


def brute_force_mean_star(corpus, construct):
    """Independent recomputation of per-word label means, straight from the
    documents (no inverted index), summing in ascending document order."""
    docs = corpus.documents
    out = {}
    for i, doc in enumerate(docs):
        for w in set(doc.tokens):
            out.setdefault(w, []).append(i)
    result = {}
    for w, doc_ids in out.items():
        total = 0.0
        for i in sorted(doc_ids):
            total += docs[i].ratings[construct]
        result[w] = total / len(doc_ids)
    return result


def brute_force_mean_binary(corpus, construct, ties="high"):
    """Independent median split + per-word binary means."""
    docs = corpus.documents
    labels = [doc.ratings[construct] for doc in docs]
    ordered = sorted(labels)
    n = len(ordered)
    if n % 2 == 1:
        med = ordered[n // 2]
    else:
        med = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    if ties == "high":
        binary = [1.0 if v >= med else 0.0 for v in labels]
    else:
        binary = [1.0 if v > med else 0.0 for v in labels]
    membership = {}
    for i, doc in enumerate(docs):
        for w in set(doc.tokens):
            membership.setdefault(w, []).append(i)
    result = {}
    for w, doc_ids in membership.items():
        total = 0.0
        for i in sorted(doc_ids):
            total += binary[i]
        result[w] = total / len(doc_ids)
    return result


def gradient_check(net, x, y, n_coords=1000, h=1e-5, rng=None, l2=0.0):
    """Max relative error between backprop and central finite differences.

    Dropout must be off (inference-mode forward is used on both sides).
    Samples ``n_coords`` random parameter coordinates, or checks all of them
    when the net is small enough.
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if rng is None:
        rng = np.random.default_rng(0)
    pred, cache = _forward_batch(net, X, False, None)
    d_out = 2.0 * (pred - Y) / pred.size
    gw, gb = _backward(net, cache, d_out, l2)
    analytic = gw + gb
    params = net.weights + net.biases

    def loss():
        out, _ = _forward_batch(net, X, False, None)
        return _mse(out, Y) + _weight_penalty(net, l2)

    total = sum(p.size for p in params)
    n_coords = min(n_coords, total)
    flat_choice = rng.choice(total, size=n_coords, replace=False)
    offsets = np.cumsum([0] + [p.size for p in params])
    worst = 0.0
    for flat in flat_choice:
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        local = int(flat - offsets[which])
        param = params[which]
        orig = param.flat[local]
        param.flat[local] = orig + h
        up = loss()
        param.flat[local] = orig - h
        down = loss()
        param.flat[local] = orig
        numeric = (up - down) / (2.0 * h)
        exact = analytic[which].flat[local]
        scale = max(abs(exact), abs(numeric), 1e-8)
        worst = max(worst, abs(exact - numeric) / scale)
    return worst


def filter_then_group_users(usage_path, traits_path, trait_column, *, delimiter=None):
    """The users loader that reads the traits before it groups: it drops the
    tokens of users with no trait, then keys the kept tokens by (kept user,
    term) and groups them with one stable sort.  ``load_user_corpora``
    groups every user's tokens first and drops users afterwards; the two
    must give the same ``Users`` arrays."""
    owners = defaultdict(count().__next__)  # user id -> index, first seen first
    term_ids = _TermIds()
    tokens, owner, sizes, counts, totals = [], [], [], [], {}
    for line, cells in _read_table(
        usage_path, delimiter, ("user_id", "text"), ("user_id", "word", "count")
    ):
        u = owners[cells[0]]
        owner.append(u)
        if len(cells) == 2:
            row = list(map(term_ids.__getitem__, cells[1].lower().split()))
            tokens += row
            sizes.append(len(row))
            continue
        value = int(_parse_number(cells[2], "count", usage_path, line))
        if value <= 0:
            raise RowError(f"{usage_path}: line {line}: count must be positive")
        totals[u] = total = totals.get(u, 0) + value
        if total > 2**53:
            raise RowError(f"{usage_path}: line {line}: the counts of user "
                           f"{cells[0]!r} sum past 2**53")
        tokens.append(term_ids[cells[1].lower()])
        sizes.append(1)
        counts.append(value)
    if not owners:
        raise DataError(f"{usage_path}: no user rows found")
    traits = {
        uid: _parse_number(cell, trait_column, traits_path, line)
        for line, (uid, cell) in _read_table(
            traits_path, delimiter, ("user_id", trait_column)
        )
    }
    uids = list(owners)
    row_user, row_size = np.array(owner, np.intp), np.array(sizes, np.int64)
    used = np.bincount(row_user, row_size, minlength=len(uids)) > 0
    missing = [uid for uid in compress(uids, used.tolist()) if uid not in traits]
    if missing:
        warnings.warn(
            f"{len(missing)} user(s) have no trait score and were dropped: "
            f"{missing[:10]}",
            stacklevel=2,
        )
    keep = used & np.array([uid in traits for uid in uids], bool)
    if not keep.any():
        raise DataError("no user has both word counts and a trait score")
    ids = tuple(compress(uids, keep.tolist()))
    kept = np.repeat(keep[row_user], row_size)
    token = np.array(tokens, np.int64)[kept]
    weight = np.array(counts, np.float64)[kept] if counts else None
    width = len(term_ids.terms)
    index = np.cumsum(keep) - 1  # user -> kept user
    keys = np.repeat(index[row_user], row_size)[kept] * width + token
    perm = np.argsort(keys, kind="stable")
    keys = keys[perm]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    if weight is not None:
        sums = np.add.reduceat(weight[perm], start)
    else:
        sums = np.diff(np.r_[start, len(keys)]).astype(np.float64)
    order = np.argsort(perm[start])  # entries by their first token
    user, term = np.divmod(keys[start[order]], width)
    return Users(ids, np.array([traits[uid] for uid in ids], np.float64),
                 tuple(term_ids.terms), user.astype(np.int32),
                 term.astype(np.int32), sums[order])


CACHE_DAMAGE = ["truncated", "flipped", "garbage", "missing"]


def entry_damages(files, every=("truncated", "garbage")):
    """The ways to damage a cache entry of ``files``, by name, each as its
    :func:`damage` and the files it is done to: each of ``every`` to every
    file, and each of ``CACHE_DAMAGE`` to one file, named ``<damage>-<the
    file's stem>``."""
    return {**{how: (how, files) for how in every},
            **{f"{how}-{name.removesuffix('.npy')}": (how, [name])
               for name in files for how in CACHE_DAMAGE}}


def damage(path, how):
    """Damage a cache entry's file by one of ``CACHE_DAMAGE``: cut to half
    its bytes, the lowest bit of its last byte flipped, other bytes, or
    removed.  The file is unlinked first, never changed in place, so that no
    array mapped from it changes under a reader."""
    data = path.read_bytes()
    path.unlink()
    if how != "missing":
        path.write_bytes({"truncated": data[:len(data) // 2],
                          "flipped": data[:-1] + bytes([data[-1] ^ 0x01]),
                          "garbage": b"not an npy array\n" * 40}[how])
