"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ``[acceptance] criterion N PASS/FAIL`` line (run
pytest with ``-s`` or ``-rA`` to see them).  Criterion 9 needs public data
files and lives in test_public_data.py, skipping when the files are absent.
"""

import dataclasses
import hashlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lexlearn.cli import main as cli_main
from lexlearn.clustering import build_signed_graph, cluster, signed_laplacian
from lexlearn.induction import (
    MethodSpec,
    fit_mean_binary,
    fit_mean_star,
    fit_mlffn,
    fit_regression_weights,
    rescale_log_minmax,
)
from lexlearn.evaluation import eval_intrinsic
from lexlearn.neural import (
    NetConfig,
    forward_batch,
    init_net,
    train,
)
from lexlearn.numerics import pearson, ridge_fit, sym_eig_smallest

from _worlds import (
    adjusted_rand_index,
    brute_force_mean_binary,
    brute_force_mean_star,
    gradient_check,
    lexicon,
    linear_world,
    planted_block_lexicon,
    random_corpus,
    ratings_of,
    sigmoid,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {name}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {name}")


def test_criterion_1_exact_oracle_equivalence():
    with criterion(1, "mean_star / mean_binary match brute force exactly"):
        start = time.perf_counter()
        rng = np.random.default_rng(20250801)
        for _ in range(20):
            corpus = random_corpus(rng, max_docs=100, max_vocab=200)
            star = ratings_of(fit_mean_star(corpus, "aff"), "aff")
            assert star == brute_force_mean_star(corpus, "aff")
            labels = {d.ratings["aff"] for d in corpus.documents}
            if len(labels) >= 2:
                binary = ratings_of(fit_mean_binary(corpus, "aff"), "aff")
                assert binary == brute_force_mean_binary(corpus, "aff")
        assert time.perf_counter() - start < 5.0


def test_criterion_2_ridge_correctness():
    with criterion(2, "ridge matches brute-force least squares, stationary"):
        start = time.perf_counter()
        rng = np.random.default_rng(20250802)
        for trial in range(5):
            n, p = 60, 6
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + 0.5 * rng.standard_normal(n) + 2.0
            model = ridge_fit(X, y, 0.0)
            ref, *_ = np.linalg.lstsq(np.column_stack([np.ones(n), X]), y, rcond=None)
            assert np.max(np.abs(model.coefficients - ref[1:])) < 1e-6
            assert abs(model.intercept - ref[0]) < 1e-6
            for lam in (0.0, 0.1, 1.0, 10.0):
                m = ridge_fit(X, y, lam)
                resid = y - m.predict(X)
                grad0 = -2.0 * resid.sum()
                grad = -2.0 * X.T @ resid + 2.0 * lam * m.coefficients
                assert max(abs(grad0), float(np.max(np.abs(grad)))) < 1e-6
        assert time.perf_counter() - start < 5.0


def test_criterion_3_neural_gradients():
    with criterion(3, "backprop vs central differences on 300-256-128-1 net"):
        start = time.perf_counter()
        rng = np.random.default_rng(20250803)
        cfg = NetConfig(input_dim=300, output_dim=1, hidden_sizes=(256, 128),
                        dropout_input=0.0, dropout_hidden=0.0, seed=0)
        net = init_net(cfg, rng)
        x = rng.standard_normal((4, 300))
        y = rng.standard_normal((4, 1))
        worst = gradient_check(net, x, y, n_coords=1200, rng=rng)
        assert worst < 1e-4
        assert time.perf_counter() - start < 30.0


def test_criterion_4_early_stopping_exact():
    with criterion(4, "plateau halts at best_epoch + patience, best restored"):
        # all-zero inputs and targets: the prediction is the output bias
        # chain, gradients vanish, and validation MSE is exactly 0 forever
        cfg = NetConfig(input_dim=4, output_dim=1, hidden_sizes=(6,),
                        dropout_input=0.0, dropout_hidden=0.0, l2=0.0,
                        seed=99, patience=20, max_epochs=200)
        net, log = train(cfg, np.zeros((50, 4)), np.zeros((50, 1)))
        assert log.best_epoch == 1
        assert log.stopped_epoch == log.best_epoch + cfg.patience
        assert log.best_val == min(log.val_loss)
        # the returned snapshot reproduces the logged best validation loss
        rng = np.random.default_rng(cfg.seed)
        perm = rng.permutation(50)
        n_val = max(1, int(round(cfg.validation_fraction * 50)))
        val = np.zeros((n_val, 4))
        pred = forward_batch(net, val)
        assert float(np.mean(pred**2)) == log.best_val


RECOVERY_NET = NetConfig(input_dim=100, output_dim=1, hidden_sizes=(64,),
                         dropout_input=0.0, dropout_hidden=0.0, l2=1e-3,
                         max_epochs=120, patience=20, seed=0)


def test_criterion_5_synthetic_recovery():
    with criterion(5, "10-fold recovery of the planted linear world"):
        start = time.perf_counter()
        corpus, table, gold, planted, heldout = linear_world(
            20250805, n_words=100, dim=100, n_docs=1000, words_per_doc=10,
            noise=0.1, n_heldout=100,
        )
        star = eval_intrinsic(corpus, gold, MethodSpec("mean_star"), "aff",
                              folds=10, seed=1)
        assert star.mean_r >= 0.9
        spec = MethodSpec("mlffn", net=RECOVERY_NET, table=table)
        net_report = eval_intrinsic(corpus, gold, spec, "aff", folds=10, seed=1)
        assert net_report.mean_r >= 0.9

        # words absent from every document: only the net can rate them
        lex, _ = fit_mlffn(corpus, ["aff"], table, RECOVERY_NET,
                           rate_all_embedded=True)
        pred = [lex.entries[w][0] for w in heldout]
        ref = [planted[w] for w in heldout]
        assert pearson(pred, ref) >= 0.7
        for other in (
            fit_mean_star(corpus, "aff"),
            fit_mean_binary(corpus, "aff"),
            fit_regression_weights(corpus, "aff", 1.0),
        ):
            assert not set(heldout) & set(other.entries)  # zero coverage
        assert time.perf_counter() - start < 300.0


def test_criterion_6_method_ordering_nonlinear_world():
    with criterion(6, "net outranks the counting and ridge methods >= 4/5 seeds"):
        wins = 0
        for seed in range(5):
            corpus, table, gold, _, _ = linear_world(
                seed, n_words=250, dim=30, n_docs=300, words_per_doc=6,
                noise=0.05, scale=3.0, link=sigmoid,
            )
            cfg = dataclasses.replace(RECOVERY_NET, input_dim=30,
                                      hidden_sizes=(32,), max_epochs=150,
                                      seed=seed)
            results = {}
            for kind in ("mean_star", "mean_binary", "regression_weights", "mlffn"):
                spec = (MethodSpec(kind, net=cfg, table=table)
                        if kind == "mlffn" else MethodSpec(kind))
                results[kind] = eval_intrinsic(corpus, gold, spec, "aff",
                                               folds=5, seed=seed).mean_r
            if all(
                results["mlffn"] > results[k]
                for k in ("mean_star", "mean_binary", "regression_weights")
            ):
                wins += 1
        assert wins >= 4, f"strict ordering held in only {wins}/5 seeds"


def test_criterion_7_clustering_recovery():
    with criterion(7, "planted 4-block signed lexicon recovered, Laplacian PSD"):
        start = time.perf_counter()
        for seed in range(5):
            lex, table, labels = planted_block_lexicon(seed, per_block=40)
            graph = build_signed_graph(lex, "aff", table, knn=20)
            lap = signed_laplacian(graph)
            smallest, _ = sym_eig_smallest(lap, 1)
            assert smallest[0] >= -1e-8
            result = cluster(lex, "aff", table, 4, knn=20, seed=seed)
            words = sorted(lex.entries)
            truth = [labels[w] for w in words]
            pred = [result.assignment[w] for w in words]
            assert adjusted_rand_index(truth, pred) >= 0.9
        assert time.perf_counter() - start < 60.0


def test_criterion_8_rescaling_contract():
    with criterion(8, "log min-max maps min->1, max->7 exactly, ranks kept"):
        rng = np.random.default_rng(20250808)
        for _ in range(100):
            size = int(rng.integers(2, 60))
            values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4), size)
            lex = lexicon({f"w{i}": v for i, v in enumerate(values)}, ("v",))
            out = rescale_log_minmax(lex, 1.0, 7.0)
            got = np.array([out.entries[f"w{i}"][0] for i in range(size)])
            assert abs(got.min() - 1.0) <= 1e-12
            assert abs(got.max() - 7.0) <= 1e-12
            assert np.array_equal(np.argsort(values, kind="stable"),
                                  np.argsort(got, kind="stable"))


def test_criterion_10_full_pipeline_determinism(tmp_path, vector_cache):
    with criterion(10, "induce mlffn + cluster reruns are byte-identical"):
        rng = np.random.default_rng(20250810)
        words = [f"w{i:02d}" for i in range(40)]
        vecs = {w: rng.standard_normal(12) for w in words}
        u = rng.standard_normal(12) / np.sqrt(12)
        emb = tmp_path / "emb.vec"
        with open(emb, "w", encoding="utf-8") as f:
            for w in words:
                f.write(w + " " + " ".join(f"{x:.6f}" for x in vecs[w]) + "\n")
        corpus = tmp_path / "corpus.csv"
        with open(corpus, "w", encoding="utf-8") as f:
            f.write("text,aff\n")
            for _ in range(90):
                toks = [words[j] for j in rng.integers(0, 40, 6)]
                label = float(np.mean([vecs[w] @ u for w in toks]))
                f.write(" ".join(toks) + f",{label:.5f}\n")

        def run():
            lex = tmp_path / "lex.tsv"
            clusters = tmp_path / "clusters.tsv"
            assert cli_main(["induce", "--method", "mlffn", "--corpus", str(corpus),
                             "--construct", "aff", "--embeddings", str(emb),
                             "--rate-all-embedded",
                             "--rescale", "1:7", "--seed", "11", "--hidden", "12",
                             "--epochs", "25", "--dropout-input", "0",
                             "--dropout-hidden", "0", "--out", str(lex)]) == 0
            assert cli_main(["cluster", "--lexicon", str(lex), "--embeddings",
                             str(emb), "--construct", "aff", "--k", "3",
                             "--knn", "6", "--seed", "11",
                             "--out", str(clusters)]) == 0
            digest = {}
            for p in (lex, clusters, lex.with_suffix(".tsv.prov"),
                      clusters.with_suffix(".tsv.prov")):
                digest[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            return digest

        first = run()
        # the rerun reads the vectors from the cache entry the first run wrote
        (entry,) = vector_cache.iterdir()
        written = entry.stat().st_ino
        assert run() == first
        assert entry.stat().st_ino == written
