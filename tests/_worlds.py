"""Synthetic worlds shared by the unit and acceptance tests.

Each generator plants a known word-rating structure and derives document
labels from it, so the planted ratings serve as the oracle for whatever a
learning method recovers.
"""

import numpy as np

from lexlearn.clustering import EDGE_DTYPE
from lexlearn.corpus import Document, GoldWordLexicon, build_corpus
from lexlearn.embeddings import EmbeddingTable
from lexlearn.induction import Lexicon


def embedding_table(vectors):
    """EmbeddingTable over a word -> vector dict, one row per word in dict
    order."""
    return EmbeddingTable(
        tuple(vectors), np.array(list(vectors.values()), dtype=np.float32)
    )


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
    gold = GoldWordLexicon(("aff",), {w: (planted[w],) for w in words[:n_words]})
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
    words, vecs, entries, labels = [], {}, {}, {}
    layout = [(0, 0, low), (1, 0, high), (2, 1, low), (3, 1, high)]
    for block, d, rating in layout:
        for i in range(per_block):
            w = f"b{block}w{i:03d}"
            words.append(w)
            vecs[w] = (dirs[d] + jitter * rng.standard_normal(dim)).astype(np.float32)
            entries[w] = np.array([rating + rng.uniform(-jitter, jitter)])
            labels[w] = block
    lex = Lexicon(("aff",), {w: entries[w] for w in words})
    return lex, embedding_table(vecs), labels


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
    out = {}
    for i, doc in enumerate(corpus.documents):
        for w in set(doc.tokens):
            out.setdefault(w, []).append(i)
    result = {}
    for w, doc_ids in out.items():
        total = 0.0
        for i in sorted(doc_ids):
            total += corpus.documents[i].ratings[construct]
        result[w] = total / len(doc_ids)
    return result


def brute_force_mean_binary(corpus, construct, ties="high"):
    """Independent median split + per-word binary means."""
    labels = [doc.ratings[construct] for doc in corpus.documents]
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
    for i, doc in enumerate(corpus.documents):
        for w in set(doc.tokens):
            membership.setdefault(w, []).append(i)
    result = {}
    for w, doc_ids in membership.items():
        total = 0.0
        for i in sorted(doc_ids):
            total += binary[i]
        result[w] = total / len(doc_ids)
    return result
