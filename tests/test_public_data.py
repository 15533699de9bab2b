"""Optional acceptance criterion 9: checks against the public datasets.

These tests run only when ``LEXLEARN_DATA_DIR`` points at a directory
containing the public files (see the skip reasons and README for names);
everything is skipped otherwise.  Expected runtime with data present is
dominated by the embedding load and stays under half an hour.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from lexlearn.corpus import load_corpus
from lexlearn.embeddings import load_embeddings
from lexlearn.evaluation import eval_intrinsic, load_gold_lexicon
from lexlearn.induction import Lexicon, MethodSpec, load_lexicon
from lexlearn.neural import NetConfig
from lexlearn.numerics import pearson

DATA_DIR = os.environ.get("LEXLEARN_DATA_DIR")

EMOBANK = "emobank.csv"            # id, split, V, A, D, text
WARRINER = "warriner.csv"          # Word, V.Mean.Sum, A.Mean.Sum, D.Mean.Sum
EMBEDDINGS = "crawl-300d-2M-subword.vec"
EMPATHY_LEXICON = "empathy_lexicon.tsv"   # word, empathy, distress
REACTIONS = "messages.csv"         # essay, empathy, distress


def data_path(name):
    if DATA_DIR is None:
        pytest.skip("LEXLEARN_DATA_DIR not set; public-data criterion skipped")
    path = Path(DATA_DIR) / name
    if not path.exists():
        pytest.skip(f"{name} not found in LEXLEARN_DATA_DIR")
    return str(path)


@pytest.mark.slow
def test_criterion_9_intrinsic_valence_brackets():
    """MLFFN valence mean_r within 0.10 of 0.64 and above mean_star, which
    must sit within 0.10 of 0.39."""
    emobank = data_path(EMOBANK)
    warriner = data_path(WARRINER)
    vec_file = data_path(EMBEDDINGS)
    corpus = load_corpus(emobank, "text", ["V", "A", "D"], id_column="id")
    gold = load_gold_lexicon(
        warriner, "Word", ["V.Mean.Sum", "A.Mean.Sum", "D.Mean.Sum"]
    )
    # the same three norms under the corpus's construct names V, A and D
    gold = Lexicon(corpus.constructs, gold.words, gold.ratings)
    keep = set(corpus.vocab) | set(gold.words)
    table = load_embeddings(vec_file, restrict_to=keep)

    star = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "V",
                          folds=10, seed=0)
    assert abs(star.mean_r - 0.39) <= 0.10, f"mean_star V mean_r={star.mean_r}"

    cfg = NetConfig(input_dim=table.dim, output_dim=1, seed=0)
    spec = MethodSpec("mlffn", net=cfg, table=table)
    net = eval_intrinsic(corpus, gold, spec, "V", folds=10, seed=0)
    assert abs(net.mean_r - 0.64) <= 0.10, f"mlffn V mean_r={net.mean_r}"
    assert net.mean_r > star.mean_r
    print(f"[acceptance] criterion  9 PASS: valence mean_star={star.mean_r:.3f} "
          f"mlffn={net.mean_r:.3f}")


@pytest.mark.slow
def test_criterion_9_released_lexicon_correlation():
    """The released empathy/distress word ratings correlate at ~0.51."""
    lex = load_lexicon(data_path(EMPATHY_LEXICON))
    r = pearson(lex.values("empathy"), lex.values("distress"))
    assert abs(r - 0.51) <= 0.02, f"inter-construct r={r}"
    print(f"[acceptance] criterion  9 PASS: empathy/distress r={r:.3f}")


@pytest.mark.slow
def test_released_lexicon_cluster_poles_qualitative():
    """Clustering the released lexicon surfaces the familiar poles: a grief
    cluster at the high-empathy end, hedging words at the low-distress end.
    Qualitative containment only, not exact membership."""
    from lexlearn.clustering import cluster as run_cluster

    lex = load_lexicon(data_path(EMPATHY_LEXICON))
    vec_file = data_path(EMBEDDINGS)
    table = load_embeddings(vec_file, restrict_to=set(lex.entries))
    result = run_cluster(lex, "empathy", table, k=50, knn=20, seed=0)
    top = max(range(result.k), key=lambda c: result.cluster_means[c])
    top_words = {w for w, _ in result.clusters[top][:30]}
    grief_like = {"grieve", "grieving", "loss", "prayers", "grief",
                  "heartbroken", "condolences", "mourning"}
    assert top_words & grief_like, f"high-empathy pole was {sorted(top_words)[:10]}"

    result_d = run_cluster(lex, "distress", table, k=50, knn=20, seed=0)
    low = min(range(result_d.k), key=lambda c: result_d.cluster_means[c])
    low_words = {w for w, _ in result_d.clusters[low][:30]}
    hedging = {"dunno", "guessing", "guess", "probably", "maybe", "assume",
               "assuming", "bet", "clue"}
    assert low_words & hedging, f"low-distress pole was {sorted(low_words)[:10]}"


@pytest.mark.slow
def test_reactions_corpus_row_count():
    """The public empathy/distress reaction corpus loads to 1860 documents."""
    corpus = load_corpus(data_path(REACTIONS), "essay", ["empathy", "distress"])
    assert len(corpus) + corpus.report.dropped_empty == 1860
    assert corpus.constructs == ("empathy", "distress")
    labels = np.array([d.ratings["empathy"] for d in corpus.documents])
    assert labels.min() >= 1.0 and labels.max() <= 7.0
