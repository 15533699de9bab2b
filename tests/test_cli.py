"""End-to-end command-line behavior: flags, files, exit codes, provenance."""

import hashlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lexlearn import cli, numerics
from lexlearn.cli import main
from lexlearn.clustering import build_signed_graph
from lexlearn.corpus import corpus_fingerprint, load_corpus
from lexlearn.embeddings import load_embeddings
from lexlearn.induction import load_lexicon, save_lexicon

from _worlds import planted_block_lexicon

VECTOR_COUNTERS = ("vectors_loaded", "skipped_vector_lines")


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def toy(tmp_path):
    corpus = tmp_path / "toy.csv"
    corpus.write_text(
        "text,empathy\nsad story,6.0\nsad joke,2.0\n", encoding="utf-8"
    )
    return corpus


@pytest.fixture
def synth(tmp_path):
    """Small linear world on disk: corpus CSV + embeddings .vec."""
    rng = np.random.default_rng(17)
    words = [f"w{i:02d}" for i in range(30)]
    vecs = {w: rng.standard_normal(8) for w in words}
    u = rng.standard_normal(8) / np.sqrt(8)
    emb = tmp_path / "emb.vec"
    with open(emb, "w", encoding="utf-8") as f:
        f.write("30 8\n")
        for w in words:
            f.write(w + " " + " ".join(f"{x:.6f}" for x in vecs[w]) + "\n")
    corpus = tmp_path / "synth.csv"
    with open(corpus, "w", encoding="utf-8") as f:
        f.write("text,empathy,distress\n")
        for i in range(80):
            toks = [words[j] for j in rng.integers(0, 30, 5)]
            e = float(np.mean([vecs[w] @ u for w in toks]))
            f.write(" ".join(toks) + f",{e:.5f},{-e:.5f}\n")
    return corpus, emb


class TestInduce:
    def test_mean_star_toy(self, toy, tmp_path):
        out = tmp_path / "lex.tsv"
        rc = main(["induce", "--method", "mean-star", "--corpus", str(toy),
                   "--construct", "empathy", "--out", str(out), "--seed", "1"])
        assert rc == 0
        lex = load_lexicon(out)
        assert len(lex) == 3
        assert lex.ratings_for("empathy") == {"sad": 4.0, "story": 6.0, "joke": 2.0}
        assert (tmp_path / "lex.tsv.prov").exists()

    def test_mlffn_with_rescale_hits_endpoints(self, synth, tmp_path):
        corpus, emb = synth
        out = tmp_path / "lex.tsv"
        rc = main(["induce", "--method", "mlffn", "--corpus", str(corpus),
                   "--constructs", "empathy,distress", "--embeddings", str(emb),
                   "--rescale", "1:7", "--seed", "7", "--hidden", "8",
                   "--epochs", "25", "--dropout-input", "0",
                   "--dropout-hidden", "0", "--out", str(out)])
        assert rc == 0
        lex = load_lexicon(out)
        assert lex.constructs == ("empathy", "distress")
        for construct in lex.constructs:
            values = lex.values(construct)
            assert values.min() == 1.0
            assert values.max() == 7.0

    def test_rerun_is_byte_identical(self, synth, tmp_path):
        corpus, emb = synth
        out = tmp_path / "lex.tsv"
        args = ["induce", "--method", "mlffn", "--corpus", str(corpus),
                "--construct", "empathy", "--embeddings", str(emb),
                "--seed", "3", "--hidden", "8", "--epochs", "20",
                "--dropout-input", "0", "--dropout-hidden", "0",
                "--out", str(out)]
        assert main(args) == 0
        first = sha(out), sha(tmp_path / "lex.tsv.prov")
        assert main(args) == 0
        assert (sha(out), sha(tmp_path / "lex.tsv.prov")) == first

    def test_mlffn_without_embeddings_is_usage_error(self, toy, tmp_path):
        rc = main(["induce", "--method", "mlffn", "--corpus", str(toy),
                   "--construct", "empathy", "--out", str(tmp_path / "x.tsv")])
        assert rc == 2

    def test_missing_corpus_file_is_data_error(self, tmp_path):
        rc = main(["induce", "--method", "mean-star",
                   "--corpus", str(tmp_path / "nope.csv"),
                   "--construct", "empathy", "--out", str(tmp_path / "x.tsv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "method", ["mean-star", "mean-binary", "regression-weights"]
    )
    def test_empty_vocabulary_fails_at_fit(self, toy, tmp_path, capsys, method):
        out = tmp_path / "lex.tsv"
        rc = main(["induce", "--method", method, "--corpus", str(toy),
                   "--construct", "empathy", "--min-df", "5", "--seed", "1",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "stage 'fit'" in err and "vocabulary is empty" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "lex.tsv.prov").exists()

    def test_unknown_flag_is_usage_error(self, toy, tmp_path):
        rc = main(["induce", "--bogus"])
        assert rc == 2

    def test_provenance_records_flags_and_fingerprints(self, toy, tmp_path):
        out = tmp_path / "lex.tsv"
        main(["induce", "--method", "mean-star", "--corpus", str(toy),
              "--construct", "empathy", "--out", str(out), "--seed", "9"])
        prov = json.loads((tmp_path / "lex.tsv.prov").read_text())
        assert prov["seed"] == 9
        assert prov["command"] == "induce"
        assert str(toy) in prov["inputs"]
        assert len(prov["inputs"][str(toy)]) == 64

    def test_multi_construct_counting_method(self, synth, tmp_path):
        corpus, _ = synth
        out = tmp_path / "lex.tsv"
        rc = main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                   "--constructs", "empathy,distress", "--out", str(out),
                   "--seed", "1"])
        assert rc == 0
        lex = load_lexicon(out)
        assert lex.constructs == ("empathy", "distress")
        emp = lex.values("empathy")
        dis = lex.values("distress")
        assert np.allclose(emp, -dis)  # the synth world plants distress = -empathy
        single = tmp_path / "empathy.tsv"
        main(["induce", "--method", "mean-star", "--corpus", str(corpus),
              "--construct", "empathy", "--out", str(single), "--seed", "1"])
        assert np.array_equal(emp, load_lexicon(single).values("empathy"))

    @pytest.mark.parametrize("command", [
        ["induce", "--method", "mean-star"],
        ["eval", "intrinsic", "--gold", "gold.tsv", "--methods", "mean-star"],
    ], ids=["induce", "eval-intrinsic"])
    def test_repeated_construct_is_usage_error(self, synth, tmp_path, capsys,
                                               command):
        corpus, _ = synth
        out = tmp_path / "out.tsv"
        rc = main(command + ["--corpus", str(corpus), "--constructs",
                             "empathy,empathy", "--out", str(out), "--seed", "1"])
        assert rc == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_joint_multi_output_training(self, synth, tmp_path):
        corpus, emb = synth
        out = tmp_path / "lex.tsv"
        rc = main(["induce", "--method", "mlffn", "--corpus", str(corpus),
                   "--constructs", "empathy,distress", "--embeddings", str(emb),
                   "--joint", "--seed", "2", "--hidden", "8", "--epochs", "15",
                   "--dropout-input", "0", "--dropout-hidden", "0",
                   "--out", str(out)])
        assert rc == 0
        assert load_lexicon(out).constructs == ("empathy", "distress")

    @pytest.mark.parametrize("constructs,argv", [
        (["empathy", "distress"], ["--method", "mean-star"]),
        (["empathy"], ["--method", "mlffn", "--hidden", "8", "--epochs", "3"]),
    ], ids=["per-construct", "one-fit"])
    def test_each_fit_provenance_holds_the_corpus_fingerprint(self, synth, tmp_path,
                                                              constructs, argv):
        corpus, emb = synth
        out = tmp_path / "lex.tsv"
        assert main(["induce", *argv, "--constructs", ",".join(constructs),
                     "--corpus", str(corpus), "--embeddings", str(emb),
                     "--seed", "1", "--out", str(out)]) == 0
        prov = json.loads((tmp_path / "lex.tsv.prov").read_text())
        lexicon = prov["notes"]["lexicon"]
        fingerprint = corpus_fingerprint(load_corpus(corpus, "text", constructs))
        parts = lexicon.get("per_construct", [lexicon])
        assert [p["corpus_fingerprint"] for p in parts] == [fingerprint] * len(parts)

    def test_rate_all_embedded_extends_vocabulary(self, synth, tmp_path):
        corpus, emb = synth
        # shrink the corpus so some embedded words never occur in it
        small = tmp_path / "small.csv"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        small.write_text("\n".join(lines[:11]) + "\n", encoding="utf-8")
        base, wide = tmp_path / "base.tsv", tmp_path / "wide.tsv"
        common = ["--method", "mlffn", "--corpus", str(small),
                  "--construct", "empathy", "--embeddings", str(emb),
                  "--seed", "3", "--hidden", "8", "--epochs", "10",
                  "--dropout-input", "0", "--dropout-hidden", "0"]
        assert main(["induce", *common, "--out", str(base)]) == 0
        assert main(["induce", *common, "--rate-all-embedded",
                     "--out", str(wide)]) == 0
        assert len(load_lexicon(wide)) == 30  # the full embedding vocabulary
        assert len(load_lexicon(base)) < 30

    def test_config_file_supplies_defaults_flags_override(self, toy, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("method=mean-binary\nseed=5\n", encoding="utf-8")
        out = tmp_path / "lex.tsv"
        rc = main(["induce", "--config", str(cfg), "--corpus", str(toy),
                   "--construct", "empathy", "--method", "mean-star",
                   "--out", str(out)])
        assert rc == 0
        prov = json.loads((tmp_path / "lex.tsv.prov").read_text())
        assert prov["flags"]["method"] == "mean-star"  # explicit flag wins
        assert prov["seed"] == 5  # config default applies

    def test_config_equals_form(self, toy, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed=42\n", encoding="utf-8")
        out = tmp_path / "lex.tsv"
        rc = main(["induce", f"--config={cfg}", "--corpus", str(toy),
                   "--construct", "empathy", "--method", "mean-star",
                   "--out", str(out)])
        assert rc == 0
        prov = json.loads((tmp_path / "lex.tsv.prov").read_text())
        assert prov["seed"] == 42


class TestEval:
    def test_intrinsic_prints_folds_and_mean(self, synth, tmp_path, capsys):
        corpus, emb = synth
        gold = tmp_path / "gold.tsv"
        lex = tmp_path / "probe.tsv"
        assert main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                     "--construct", "empathy", "--out", str(lex), "--seed", "0"]) == 0
        probe = load_lexicon(lex)
        with open(gold, "w", encoding="utf-8") as f:
            f.write("word\tempathy\n")
            for w, r in probe.ratings_for("empathy").items():
                f.write(f"{w}\t{r}\n")
        capsys.readouterr()
        rc = main(["eval", "intrinsic", "--corpus", str(corpus), "--gold", str(gold),
                   "--construct", "empathy", "--methods", "mean-star,mean-binary",
                   "--folds", "4", "--seed", "2",
                   "--out", str(tmp_path / "report.tsv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-fold r:" in out
        assert "mean_r=" in out
        assert "method" in out  # comparison table header
        report = (tmp_path / "report.tsv").read_text().splitlines()
        assert report[0] == "method\tconstruct\tfolds\tmean_r\tsd_r\tcoverage"
        assert len(report) == 3

    def test_all_four_methods_in_one_invocation(self, synth, tmp_path, capsys):
        corpus, emb = synth
        gold = tmp_path / "gold.tsv"
        lex = tmp_path / "probe.tsv"
        assert main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                     "--construct", "empathy", "--out", str(lex), "--seed", "0"]) == 0
        probe = load_lexicon(lex)
        with open(gold, "w", encoding="utf-8") as f:
            f.write("word\tempathy\n")
            for w, r in probe.ratings_for("empathy").items():
                f.write(f"{w}\t{r}\n")
        capsys.readouterr()
        rc = main(["eval", "intrinsic", "--corpus", str(corpus), "--gold", str(gold),
                   "--construct", "empathy", "--methods", "all", "--folds", "3",
                   "--embeddings", str(emb), "--hidden", "8", "--epochs", "10",
                   "--dropout-input", "0", "--dropout-hidden", "0", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        for flag in ("mean-star", "mean-binary", "regression-weights", "mlffn"):
            assert flag in out

    def test_more_folds_than_documents_fails_at_eval(self, synth, tmp_path, capsys):
        corpus, _ = synth
        gold = tmp_path / "gold.tsv"
        assert main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                     "--construct", "empathy", "--out", str(gold), "--seed", "0"]) == 0
        out = tmp_path / "report.tsv"
        rc = main(["eval", "intrinsic", "--corpus", str(corpus), "--gold", str(gold),
                   "--construct", "empathy", "--methods", "mean-star",
                   "--folds", "81", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "stage 'eval'" in err and "exceeds document count 80" in err
        assert not out.exists()

    def test_extrinsic_monotone_toy(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\taff\ngreat\t7.0\nmeh\t4.0\nawful\t1.0\n", encoding="utf-8"
        )
        users = tmp_path / "users.csv"
        users.write_text(
            "user_id,word,count\nu1,great,3\nu2,meh,2\nu3,awful,4\n",
            encoding="utf-8",
        )
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,emp\nu1,7\nu2,4\nu3,1\n", encoding="utf-8")
        rc = main(["eval", "extrinsic", "--lexicon", str(lex), "--construct", "aff",
                   "--users", str(users), "--traits", str(traits),
                   "--trait-column", "emp", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r=1.0000" in out

    def test_extrinsic_sum_past_the_float_range_exits_0(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\taff\ngreat\t7.0\nmeh\t4.0\nawful\t1e308\n",
                       encoding="utf-8")
        users = tmp_path / "users.csv"
        users.write_text("user_id,word,count\na,awful,2\nb,meh,1\nc,great,1\n",
                         encoding="utf-8")
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,emp\na,1\nb,2\nc,3\n", encoding="utf-8")
        rc = main(["eval", "extrinsic", "--lexicon", str(lex), "--construct", "aff",
                   "--users", str(users), "--traits", str(traits),
                   "--trait-column", "emp", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "r=-0.8660" in out

    def test_extrinsic_nan_trait_fails_at_load_users(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\taff\ngreat\t7.0\nmeh\t4.0\nawful\t1.0\n", encoding="utf-8"
        )
        users = tmp_path / "users.csv"
        users.write_text(
            "user_id,word,count\nu1,great,3\nu2,meh,2\nu3,awful,4\n",
            encoding="utf-8",
        )
        traits = tmp_path / "traits.csv"
        traits.write_text("user_id,emp\nu1,7\nu2,nan\nu3,1\n", encoding="utf-8")
        out = tmp_path / "scores.tsv"
        rc = main(["eval", "extrinsic", "--lexicon", str(lex), "--construct", "aff",
                   "--users", str(users), "--traits", str(traits),
                   "--trait-column", "emp", "--seed", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "stage 'load-users'" in captured.err
        assert "line 3" in captured.err and "non-finite" in captured.err
        assert "Traceback" not in captured.err
        assert "r=nan" not in captured.out
        assert not out.exists()


class TestClusterCommand:
    def test_planted_poles_previewed(self, synth, tmp_path, capsys):
        corpus, emb = synth
        lex = tmp_path / "lex.tsv"
        assert main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                     "--construct", "empathy", "--out", str(lex), "--seed", "0"]) == 0
        capsys.readouterr()
        out = tmp_path / "clusters.tsv"
        rc = main(["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                   "--construct", "empathy", "--k", "2", "--knn", "5",
                   "--seed", "4", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "highest empathy cluster" in text
        assert "lowest empathy cluster" in text
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "cluster_id\tword\trating\tcluster_mean_rating\tmanual_label"

    def test_normalized_and_unclipped_variants_run(self, synth, tmp_path):
        corpus, emb = synth
        lex = tmp_path / "lex.tsv"
        main(["induce", "--method", "mean-star", "--corpus", str(corpus),
              "--construct", "empathy", "--out", str(lex), "--seed", "0"])
        rc = main(["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                   "--construct", "empathy", "--k", "2", "--knn", "5",
                   "--normalized", "--no-clip", "--seed", "1",
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 0

    def test_k_over_word_count_is_usage_error(self, synth, tmp_path):
        corpus, emb = synth
        lex = tmp_path / "lex.tsv"
        main(["induce", "--method", "mean-star", "--corpus", str(corpus),
              "--construct", "empathy", "--out", str(lex), "--seed", "0"])
        rc = main(["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                   "--construct", "empathy", "--k", "999",
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 2

    def test_overflowing_rating_fails_at_cluster_stage(self, synth, tmp_path, capsys):
        # finite ratings whose gaps overflow make the Laplacian non-finite
        _, emb = synth
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\tempathy\n" + "".join(f"w{i:02d}\t{i / 10}\n" for i in range(28))
            + "w28\t-1e308\nw29\t1e308\n",
            encoding="utf-8",
        )
        out = tmp_path / "c.tsv"
        rc = main(["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                   "--construct", "empathy", "--k", "2", "--knn", "5",
                   "--rho", "1", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "stage 'cluster'" in err and "non-finite" in err
        assert not out.exists()

    def test_provenance_counts_graph_and_eigensolve(self, synth, tmp_path):
        corpus, emb = synth
        lex = tmp_path / "lex.tsv"
        main(["induce", "--method", "mean-star", "--corpus", str(corpus),
              "--construct", "empathy", "--out", str(lex), "--seed", "0"])
        out = tmp_path / "c.tsv"
        assert main(["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                     "--construct", "empathy", "--k", "2", "--knn", "5",
                     "--seed", "4", "--out", str(out)]) == 0
        metrics = json.loads((tmp_path / "c.tsv.prov").read_text())["notes"]["metrics"]
        graph = build_signed_graph(load_lexicon(lex), "empathy",
                                   load_embeddings(emb), knn=5)
        assert metrics.pop("eigen_worst_residual") <= 1e-8
        assert metrics == {
            "vectors_loaded": 30, "skipped_vector_lines": 0,
            "edges": len(graph.edges),
            "negative_edges": int((graph.edges["w"] < 0).sum()),
            "eigensolver": "eigh", "eigen_iterations": 0,
        }

    @pytest.fixture
    def planted(self, tmp_path):
        """600 words in 4 planted blocks: at --k 4 the eigensolve is above
        the eigh cutoff and takes the LOBPCG path."""
        lex, table, _ = planted_block_lexicon(3, per_block=150)
        assert len(lex) >= numerics.EIGH_CUTOFF * (4 + numerics.LOBPCG_GUARD)
        lex_path, emb = tmp_path / "planted.tsv", tmp_path / "planted.vec"
        save_lexicon(lex, lex_path, provenance=False)
        emb.write_text("".join(
            word + " " + " ".join(repr(float(x)) for x in table.matrix([word])[0])
            + "\n" for word in lex.words), encoding="utf-8")
        return ["cluster", "--lexicon", str(lex_path), "--embeddings", str(emb),
                "--construct", "aff", "--k", "4", "--seed", "2"]

    def test_lobpcg_run_is_counted_and_rerun_byte_identical(self, planted, tmp_path):
        digests = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            assert main(planted + ["--out", str(out)]) == 0
            prov = json.loads(out.with_suffix(".tsv.prov").read_text())
            metrics = prov["notes"]["metrics"]
            assert metrics["eigensolver"] == "lobpcg"
            assert metrics["eigen_iterations"] > 0
            assert metrics["eigen_worst_residual"] <= 1e-8
            prov["flags"].pop("out")
            digests.append((out.read_bytes(), prov))
        assert digests[0] == digests[1]

    def test_unconverged_eigensolve_fails_at_cluster_stage(self, planted, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(numerics, "LOBPCG_ITERATIONS", 1)
        out = tmp_path / "c.tsv"
        rc = main(planted + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "stage 'cluster'" in err
        assert "after 1 iterations" in err and "residual" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_construct_names_available(self, synth, tmp_path, capsys):
        corpus, emb = synth
        lex = tmp_path / "lex.tsv"
        main(["induce", "--method", "mean-star", "--corpus", str(corpus),
              "--construct", "empathy", "--out", str(lex), "--seed", "0"])
        rc = main(["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                   "--construct", "distress", "--k", "2",
                   "--out", str(tmp_path / "c.tsv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "empathy" in err


class TestVectorCounters:
    """The loader's counters go into ``.prov`` under ``notes.metrics``."""

    @staticmethod
    def make_world(synth, tmp_path, bad_line, copies=1):
        # the synth vectors ``copies`` times over (a repeated word keeps its
        # vector), 120 words no lexicon holds, then ``bad_line``
        corpus, emb = synth
        lines = emb.read_text(encoding="utf-8").splitlines()[1:]
        vec = tmp_path / "big.vec"
        vec.write_text("\n".join(
            lines * copies + [f"f{i} " + " ".join(["0.5"] * 8) for i in range(120)]
            + [bad_line]) + "\n", encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        assert main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                     "--construct", "empathy", "--out", str(lex), "--seed", "0"]) == 0
        return corpus, vec, lex

    @pytest.fixture
    def world(self, synth, tmp_path):
        # the short line is of a word no lexicon or corpus holds
        return self.make_world(synth, tmp_path, "short 1 2")

    @staticmethod
    def cluster(vec, lex, out, capsys):
        capsys.readouterr()
        assert main(["cluster", "--lexicon", str(lex), "--embeddings", str(vec),
                     "--construct", "empathy", "--k", "2", "--knn", "5",
                     "--seed", "4", "--out", str(out)]) == 0
        return capsys.readouterr().out.replace(str(out), "OUT")

    def test_cluster_loads_only_lexicon_words(self, world, tmp_path, monkeypatch,
                                              capsys):
        _, vec, lex = world
        restricted = self.cluster(vec, lex, tmp_path / "r.tsv", capsys)
        monkeypatch.setattr(cli, "load_embeddings",
                            lambda path, restrict_to=None: load_embeddings(path))
        full = self.cluster(vec, lex, tmp_path / "f.tsv", capsys)
        assert restricted == full
        assert (tmp_path / "r.tsv").read_bytes() == (tmp_path / "f.tsv").read_bytes()
        provs = [json.loads((tmp_path / f"{n}.tsv.prov").read_text(encoding="utf-8"))
                 for n in "rf"]
        # past the first record a restricted load neither checks nor counts
        # the lines of words it does not keep, such as the short line
        metrics = [p["notes"].pop("metrics") for p in provs]
        assert [{key: m.pop(key) for key in VECTOR_COUNTERS} for m in metrics] == [
            {"vectors_loaded": 30, "skipped_vector_lines": 0},
            {"vectors_loaded": 150, "skipped_vector_lines": 1},
        ]
        assert metrics[0] == metrics[1]  # the graph and eigensolve counters
        for p in provs:
            p["flags"].pop("out")
        assert provs[0] == provs[1]

    @pytest.mark.parametrize("command", ["induce", "intrinsic"])
    def test_corpus_commands_load_only_corpus_terms(self, world, tmp_path,
                                                    monkeypatch, capsys, command):
        corpus, vec, lex = world
        net = ["--embeddings", str(vec), "--hidden", "8", "--epochs", "5",
               "--seed", "3"]
        argv = {
            "induce": ["induce", "--method", "mlffn", "--corpus", str(corpus),
                       "--construct", "empathy", *net],
            "intrinsic": ["eval", "intrinsic", "--corpus", str(corpus), "--gold",
                          str(lex), "--construct", "empathy", "--methods", "all",
                          "--folds", "3", *net],
        }[command]

        def run(name):
            out = tmp_path / f"{name}.tsv"
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 0
            prov = json.loads((tmp_path / f"{name}.tsv.prov").read_text())
            prov["flags"].pop("out")
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            return out.read_bytes(), stdout, prov

        restricted = run("r")
        monkeypatch.setattr(cli, "load_embeddings",
                            lambda path, restrict_to=None: load_embeddings(path))
        full = run("f")
        # only the loader's counts differ: the short line is not the
        # restricted load's to count
        assert [r[2]["notes"].pop("metrics") for r in (restricted, full)] == [
            {"vectors_loaded": 30, "skipped_vector_lines": 0},
            {"vectors_loaded": 150, "skipped_vector_lines": 1},
        ]
        assert restricted == full

    def test_corpus_without_vectors_fails_at_load_embeddings(self, world, tmp_path,
                                                             capsys):
        corpus, vec, _ = world
        other = tmp_path / "other.csv"
        other.write_text("text,empathy\nzz yy,1.0\nyy xx,2.0\n", encoding="utf-8")
        rc = main(["induce", "--method", "mlffn", "--corpus", str(other),
                   "--construct", "empathy", "--embeddings", str(vec),
                   "--seed", "1", "--out", str(tmp_path / "o.tsv")])
        assert rc == 1
        assert "stage 'load-embeddings'" in capsys.readouterr().err

    def test_lexicon_without_vectors_fails_at_load_embeddings(self, world, tmp_path,
                                                              capsys):
        _, vec, _ = world
        lex = tmp_path / "other.tsv"
        lex.write_text("word\tempathy\nzz\t1.0\nyy\t2.0\n", encoding="utf-8")
        rc = main(["cluster", "--lexicon", str(lex), "--embeddings", str(vec),
                   "--construct", "empathy", "--k", "2",
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 1
        assert "stage 'load-embeddings'" in capsys.readouterr().err

    def test_counters_recorded_and_reruns_byte_identical(self, world, tmp_path,
                                                         capsys):
        corpus, vec, lex = world
        gold = tmp_path / "gold.tsv"
        gold.write_text("word\tempathy\n" + "".join(
            f"{w}\t{r}\n" for w, r in load_lexicon(lex).ratings_for("empathy").items()
        ), encoding="utf-8")
        net = ["--embeddings", str(vec), "--hidden", "8", "--epochs", "5",
               "--seed", "3"]
        outs = {
            "induce": (["induce", "--method", "mlffn", "--corpus", str(corpus),
                        "--construct", "empathy", *net], 30),
            "eval": (["eval", "intrinsic", "--corpus", str(corpus), "--gold",
                      str(gold), "--construct", "empathy", "--methods", "mlffn",
                      "--folds", "3", *net], 30),
        }
        runs = []
        for _ in range(2):
            digests = {}
            for name, (argv, loaded) in outs.items():
                out = tmp_path / f"{name}.tsv"
                assert main(argv + ["--out", str(out)]) == 0
                prov = json.loads((tmp_path / f"{name}.tsv.prov").read_text())
                assert prov["notes"]["metrics"] == {
                    "vectors_loaded": loaded, "skipped_vector_lines": 0}
                digests[name] = sha(tmp_path / f"{name}.tsv.prov")
            self.cluster(vec, lex, tmp_path / "c.tsv", capsys)
            digests["cluster"] = sha(tmp_path / "c.tsv.prov")
            runs.append(digests)
        assert runs[0] == runs[1]

    def test_bad_line_of_a_kept_word_is_counted(self, synth, tmp_path, capsys):
        # four copies make 120 kept lines, so one bad one is within the budget
        corpus, vec, lex = self.make_world(synth, tmp_path, "w07 1 2", copies=4)
        self.cluster(vec, lex, tmp_path / "c.tsv", capsys)
        assert main(["induce", "--method", "mlffn", "--corpus", str(corpus),
                     "--construct", "empathy", "--embeddings", str(vec),
                     "--hidden", "8", "--epochs", "5", "--seed", "3",
                     "--out", str(tmp_path / "i.tsv")]) == 0
        for name in "ci":
            prov = json.loads((tmp_path / f"{name}.tsv.prov").read_text())
            metrics = prov["notes"]["metrics"]
            assert {key: metrics[key] for key in VECTOR_COUNTERS} == {
                "vectors_loaded": 30, "skipped_vector_lines": 1}


class TestDescribeAndRescale:
    def test_describe_rescaled_lexicon(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\tempathy\n" + "".join(
                f"w{i}\t{1 + 6 * i / 19}\n" for i in range(20)
            ),
            encoding="utf-8",
        )
        rc = main(["describe", "--lexicon", str(lex)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "min: 1.0000" in out
        assert "max: 7.0000" in out
        assert "histogram (20 bins)" in out
        assert "pairwise pearson" not in out  # single construct

    def test_describe_two_constructs_prints_matrix(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        lines = ["word\ta\tb"]
        for i in range(30):
            x = rng.normal()
            lines.append(f"w{i}\t{x}\t{x + rng.normal() * 0.1}")
        lex = tmp_path / "lex.tsv"
        lex.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["describe", "--lexicon", str(lex)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pairwise pearson" in out

    @staticmethod
    def pearson_table(out):
        lines = out.split("pairwise pearson:\n")[1].splitlines()
        return [line.split() for line in lines]

    def test_pearson_columns_stay_apart_for_short_names(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        lines = ["word\tV\tA\tD"]
        for i in range(30):
            x = rng.normal()
            lines.append(f"w{i}\t{x}\t{-x + rng.normal()}\t{rng.normal()}")
        lex = tmp_path / "lex.tsv"
        lex.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["describe", "--lexicon", str(lex)]) == 0
        header, *rows = self.pearson_table(capsys.readouterr().out)
        assert header == ["V", "A", "D"]
        assert [row[0] for row in rows] == header
        matrix = np.array([[float(cell) for cell in row[1:]] for row in rows])
        assert np.array_equal(np.diag(matrix), np.ones(3))
        assert (matrix < 0).any()

    def test_constant_construct_has_no_pearson(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\tvalence\tarousal\nx\t1.0\t4.0\ny\t2.0\t4.0\n"
                       "z\t3.0\t4.0\n", encoding="utf-8")
        assert main(["describe", "--lexicon", str(lex)]) == 0
        assert self.pearson_table(capsys.readouterr().out) == [
            ["valence", "arousal"],
            ["valence", "1.000", "n/a"],
            ["arousal", "n/a", "1.000"],
        ]

    def test_constant_whose_mean_rounds_away_has_no_pearson(self, tmp_path, capsys):
        # the mean of three 0.1 is 0.1 + 1.4e-17; the cell read 0.000
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\tvalence\tarousal\nx\t1.0\t0.1\ny\t2.0\t0.1\n"
                       "z\t3.0\t0.1\n", encoding="utf-8")
        assert main(["describe", "--lexicon", str(lex)]) == 0
        assert self.pearson_table(capsys.readouterr().out)[1:] == [
            ["valence", "1.000", "n/a"],
            ["arousal", "n/a", "1.000"],
        ]

    def test_unbinnable_range_fails_at_a_stage(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\tvalence\nx\t-1.7e308\ny\t1.7e308\n",
                       encoding="utf-8")
        bins = tmp_path / "bins.tsv"
        rc = main(["describe", "--lexicon", str(lex), "--plot-data", str(bins)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "stage 'histogram'" in err and "'valence'" in err
        assert not bins.exists()

    @pytest.mark.parametrize("ratings", [
        ("281474976710656.0",), ("-1.7e308",), ("1.0", "1.0000000000000002"),
    ], ids=["constant-2**48", "constant-min", "one-ulp"])
    def test_ranges_too_narrow_for_their_magnitude_still_bin(self, tmp_path, ratings):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\tvalence\n" + "".join(
            f"w{i}\t{r}\n" for i, r in enumerate(ratings)), encoding="utf-8")
        bins = tmp_path / "bins.tsv"
        assert main(["describe", "--lexicon", str(lex), "--plot-data", str(bins)]) == 0
        rows = [r.split("\t") for r in bins.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 20
        assert sum(int(r[4]) for r in rows) == len(ratings)
        edges = [float(r[2]) for r in rows] + [float(rows[-1][3])]
        assert edges == sorted(edges)
        values = [float(r) for r in ratings]
        assert edges[0] <= min(values) <= max(values) <= edges[-1]

    @pytest.mark.parametrize("ratings,stats", [
        (("1e308", "1.5e308"), "min: 1.0000e+308  max: 1.5000e+308  mean: 1.2500e+308"),
        (("-1.7e308",), "min: -1.7000e+308  max: -1.7000e+308  mean: -1.7000e+308"),
        (("-1e15", "1e15"), "min: -1000000000000000.0000  max: 1000000000000000.0000"
                            "  mean: 0.0000"),
    ], ids=["sum-overflows", "one-word-min", "fixed-point-below-1e16"])
    def test_huge_ratings_print_finite_short_stats(self, tmp_path, capsys, ratings,
                                                   stats):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\ta\n" + "".join(
            f"w{i}\t{r}\n" for i, r in enumerate(ratings)), encoding="utf-8")
        assert main(["describe", "--lexicon", str(lex)]) == 0
        out = capsys.readouterr().out
        assert f"  count: {len(ratings)}  {stats}  sd: " in out
        assert max(map(len, out.splitlines())) < 120  # was 986 at -1.7e308

    @pytest.mark.parametrize("command,ratings,warning", [
        (["rescale", "--range", "1:7"], ("2.0", "2.0"),
         "rescale: all 'a' ratings equal; assigning midpoint"),
        (["describe"], ("1e308", "1.5e308"), "overflow encountered"),
    ], ids=["rescale-midpoint", "describe-overflow"])
    def test_warnings_print_one_line_naming_the_command(self, tmp_path, capsys,
                                                        monkeypatch, command,
                                                        ratings, warning):
        if command[0] == "describe":
            # describe's own statistics no longer overflow; a numpy warning
            # raised inside its load stage takes the same path to stderr
            def load_overflowing(path):
                np.float64(1e308) * 10
                return load_lexicon(path)

            monkeypatch.setattr(cli, "load_lexicon", load_overflowing)
        lex = tmp_path / "lex.tsv"
        lex.write_text(f"word\ta\nx\t{ratings[0]}\ny\t{ratings[1]}\n",
                       encoding="utf-8")
        out = ["--out", str(tmp_path / "o.tsv"), "--seed", "0"] \
            if command[0] == "rescale" else []
        assert main(command + ["--lexicon", str(lex)] + out) == 0
        err = capsys.readouterr().err
        assert f"lexlearn {command[0]}: warning: {warning}" in err
        assert "cli.py:" not in err and "return fn(" not in err

    def test_sd_whose_sum_of_squares_overflows_is_finite(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\ta\nx\t1e308\ny\t1.5e308\n", encoding="utf-8")
        assert main(["describe", "--lexicon", str(lex)]) == 0
        captured = capsys.readouterr()
        assert "mean: 1.2500e+308  sd: 3.5355e+307\n" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["rescale", "--range", "1:7"],
        ["induce", "--method", "mean-star", "--rescale", "1:7"],
    ], ids=["rescale", "induce"])
    def test_ratings_spanning_past_float64_fail_at_rescale(self, tmp_path, capsys,
                                                           argv):
        # the middle word came out rated 1.0, after three numpy warnings
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\ta\nx\t-1.7e308\ny\t0\nz\t1.7e308\n",
                       encoding="utf-8")
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("text,a\nx,-1.7e308\ny,0\nz,1.7e308\n", encoding="utf-8")
        inputs = ["--corpus", str(corpus), "--construct", "a"] \
            if argv[0] == "induce" else ["--lexicon", str(lex)]
        out = tmp_path / "o.tsv"
        rc = main(argv + inputs + ["--out", str(out), "--seed", "0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [
            f"lexlearn {argv[0]}: stage 'rescale': rescale: 'a' ratings from "
            f"-1.7e+308 to 1.7e+308 span more than a float64 holds"
        ]
        assert not out.exists()

    def test_row_order_does_not_change_the_rescale_output(self, tmp_path):
        rows = [f"w{i:02d}\t{float(np.sin(i))!r}\t{float(i)!r}\n" for i in range(30)]
        shuffled = [rows[i] for i in np.random.default_rng(5).permutation(30)]
        outputs = []
        for name, order in (("sorted", rows), ("shuffled", shuffled)):
            lex = tmp_path / f"{name}.tsv"
            lex.write_text("word\ta\tb\n" + "".join(order), encoding="utf-8")
            assert load_lexicon(lex).words == tuple(f"w{i:02d}" for i in range(30))
            out = tmp_path / f"{name}_out.tsv"
            assert main(["rescale", "--lexicon", str(lex), "--range", "1:7",
                         "--out", str(out), "--seed", "0"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_plot_data_dump(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\ta\n" + "".join(f"w{i}\t{float(i)}\n" for i in range(25)),
            encoding="utf-8",
        )
        bins = tmp_path / "bins.tsv"
        rc = main(["describe", "--lexicon", str(lex), "--plot-data", str(bins)])
        assert rc == 0
        rows = bins.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "construct\tbin\tlo\thi\tcount"
        assert len(rows) == 21
        counts = [int(r.split("\t")[4]) for r in rows[1:]]
        assert sum(counts) == 25

    def test_rescale_subcommand(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\ta\n" + "".join(f"w{i}\t{float(i)}\n" for i in range(10)),
            encoding="utf-8",
        )
        out = tmp_path / "scaled.tsv"
        rc = main(["rescale", "--lexicon", str(lex), "--range", "1:7",
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        scaled = load_lexicon(out)
        values = scaled.values("a")
        assert values.min() == 1.0 and values.max() == 7.0

    def test_bad_range_is_usage_error(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\ta\nw0\t1.0\nw1\t2.0\n", encoding="utf-8")
        rc = main(["rescale", "--lexicon", str(lex), "--range", "7:1",
                   "--out", str(tmp_path / "o.tsv"), "--seed", "0"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["rescale", "--range", "0:inf"],
        ["rescale", "--range=-1e308:1e308"],  # hi - lo overflows
        ["induce", "--method", "mean-star", "--rescale", "0:inf"],
    ], ids=["rescale-inf", "rescale-overflow", "induce-inf"])
    def test_non_finite_range_is_usage_error(self, toy, tmp_path, capsys, argv):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\ta\nw0\t1.0\nw1\t2.0\nw2\t3.0\n", encoding="utf-8")
        inputs = ["--corpus", str(toy), "--construct", "empathy"] \
            if argv[0] == "induce" else ["--lexicon", str(lex)]
        out = tmp_path / "o.tsv"
        rc = main(argv + inputs + ["--out", str(out), "--seed", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "usage:" in err and "finite" in err
        assert not out.exists()


BAD_FLAG_VALUES = [
    ("induce", "--hidden", "0"),
    ("induce", "--hidden", "x"),
    ("induce", "--hidden", ","),
    ("cluster", "--knn", "0"),
    ("cluster", "--knn", "-1"),
    ("cluster", "--k", "1"),
    ("cluster", "--top", "0"),
    ("intrinsic", "--folds", "1"),
    ("intrinsic", "--min-df", "0"),
    ("induce", "--min-df", "0"),
    ("induce", "--batch-size", "0"),
    ("induce", "--epochs", "0"),
    ("induce", "--patience", "0"),
    ("induce", "--epochs", "ten"),
    ("induce", "--dropout-input", "1.5"),
    ("induce", "--dropout-input", "-0.1"),
    ("induce", "--dropout-hidden", "1"),
    ("induce", "--val-fraction", "0"),
    ("induce", "--ridge-lambda", "-1"),
    ("induce", "--ridge-lambda", "inf"),
    ("intrinsic", "--ridge-lambda", "inf"),
    ("induce", "--lr", "0"),
    ("induce", "--lr", "-1"),
    ("induce", "--lr", "inf"),
    ("induce", "--lr", "nan"),
    ("induce", "--l2", "-1"),
    ("induce", "--l2", "inf"),
    ("induce", "--l2", "nan"),
    ("cluster", "--rho", "0"),
    ("cluster", "--rho", "-1"),
    ("cluster", "--rho", "inf"),
    ("cluster", "--rho", "nan"),
]


class TestFlagRanges:
    @pytest.fixture
    def commands(self, synth, tmp_path):
        corpus, emb = synth
        ratings = "word\tempathy\n" + "".join(
            f"w{i:02d}\t{i / 10}\n" for i in range(30)
        )
        lex = tmp_path / "lex.tsv"  # also serves as the gold word ratings
        lex.write_text(ratings, encoding="utf-8")
        return {
            "cluster": ["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                        "--construct", "empathy", "--k", "2", "--knn", "5"],
            "intrinsic": ["eval", "intrinsic", "--corpus", str(corpus),
                          "--gold", str(lex), "--construct", "empathy",
                          "--methods", "mean-star", "--folds", "3"],
            "induce": ["induce", "--method", "mlffn", "--corpus", str(corpus),
                       "--construct", "empathy", "--embeddings", str(emb),
                       "--hidden", "4", "--epochs", "2"],
        }

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", BAD_FLAG_VALUES)
    def test_out_of_range_value_is_usage_error(self, commands, tmp_path, capsys,
                                               command, flag, value, via_config):
        argv = commands[command] + ["--seed", "1", "--out", str(tmp_path / "o.tsv")]
        if via_config:
            cfg = tmp_path / "run.conf"
            cfg.write_text(f"{flag[2:].replace('-', '_')}={value}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        else:
            argv += [flag, value]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "usage:" in err
        assert f"argument {flag}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.tsv").exists()

    @pytest.mark.parametrize("command,flags", [
        ("intrinsic", ["--methods", ","]),
        ("intrinsic", ["--methods", "mean-star,mean-star"]),
        ("intrinsic", ["--methods", "mlffn"]),  # without --embeddings
        ("intrinsic", ["--hidden", "x"]),
        ("induce", ["--hidden", "0"]),
        ("induce", ["--hidden", ","]),
    ], ids=["methods-empty", "methods-repeat", "mlffn-no-vectors", "intrinsic-hidden",
            "induce-hidden-zero", "induce-hidden-empty"])
    def test_usage_error_exits_2_before_reading_inputs(self, tmp_path, capsys,
                                                       command, flags):
        # no input file exists: a usage error must come first
        out = tmp_path / "o.tsv"
        argv = {
            "intrinsic": ["eval", "intrinsic", "--gold", str(tmp_path / "nope.tsv"),
                          "--methods", "mean-star"],
            "induce": ["induce", "--method", "mean-star"],
        }[command]
        rc = main(argv + ["--corpus", str(tmp_path / "nope.csv"),
                          "--construct", "empathy", "--seed", "1",
                          "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert "usage:" in err and "stage" not in err
        assert not out.exists()


# (case id, command, file, fault, stage, line named in the message or None);
# the fault is the file's new bytes, a (line, bytes) replacement, or None to
# delete the file
BAD_TABLES = [
    ("users-short-text-row", "extrinsic", "users.csv",
     b"user_id,text\nu1,w01 w02\nu2\nu3,w04\n", "load-users", 3),
    ("users-short-count-row", "extrinsic", "users.csv",
     b"user_id,word,count\nu1,w01,2\nu2,w03\nu3,w04,1\n", "load-users", 3),
    ("traits-short-row", "extrinsic", "traits.csv",
     b"user_id,emp\nu1,7\nu2\nu3,1\n", "load-users", 3),
    ("corpus-not-utf8", "intrinsic", "corpus.csv",
     (5, b"w01 caf\xe9,1.0,-1.0"), "load-corpus", 5),
    ("gold-not-utf8", "intrinsic", "gold.tsv", (4, b"caf\xe9\t0.5"), "load-gold", 4),
    ("trait-nan", "extrinsic", "traits.csv",
     b"user_id,emp\nu1,7\nu2,nan\nu3,1\n", "load-users", 3),
    ("trait-inf", "extrinsic", "traits.csv",
     b"user_id,emp\nu1,7\nu2,4\nu3,inf\n", "load-users", 4),
    ("count-inf", "extrinsic", "users.csv",
     b"user_id,word,count\nu1,w01,2\nu2,w03,inf\nu3,w04,1\n", "load-users", 3),
    ("lexicon-nan-describe", "describe", "lex.tsv", (7, b"w05\tnan"),
     "load-lexicon", 7),
    ("lexicon-nan-cluster", "cluster", "lex.tsv", (7, b"w05\tnan"),
     "load-lexicon", 7),
    ("lexicon-not-utf8", "describe", "lex.tsv", (9, b"caf\xe9\t0.5"),
     "load-lexicon", 9),
    ("users-missing", "extrinsic", "users.csv", None, "load-users", None),
    ("lexicon-sidecar-malformed", "describe", "lex.tsv.prov", b"{bad",
     "load-lexicon", None),
    ("lexicon-sidecar-not-object", "cluster", "lex.tsv.prov", b"[1]\n",
     "load-lexicon", None),
    ("lexicon-header-repeats", "describe", "lex.tsv", (1, b"word\tempathy\tempathy"),
     "load-lexicon", 1),
]


class TestBadTables:
    @pytest.fixture
    def world(self, synth, tmp_path):
        corpus, emb = synth
        ratings = "word\tempathy\n" + "".join(
            f"w{i:02d}\t{i / 10}\n" for i in range(30)
        )
        for name in ("gold.tsv", "lex.tsv"):
            (tmp_path / name).write_text(ratings, encoding="utf-8")
        corpus.rename(tmp_path / "corpus.csv")
        (tmp_path / "users.csv").write_text(
            "user_id,text\nu1,w01 w02\nu2,w03\nu3,w04 w05\n", encoding="utf-8"
        )
        (tmp_path / "traits.csv").write_text(
            "user_id,emp\nu1,7\nu2,4\nu3,1\n", encoding="utf-8"
        )
        out = str(tmp_path / "out.tsv")
        lex = str(tmp_path / "lex.tsv")
        commands = {
            "extrinsic": ["eval", "extrinsic", "--lexicon", lex,
                          "--construct", "empathy",
                          "--users", str(tmp_path / "users.csv"),
                          "--traits", str(tmp_path / "traits.csv"),
                          "--trait-column", "emp", "--out", out],
            "intrinsic": ["eval", "intrinsic", "--corpus", str(tmp_path / "corpus.csv"),
                          "--gold", str(tmp_path / "gold.tsv"),
                          "--construct", "empathy", "--methods", "mean-star",
                          "--folds", "3", "--out", out],
            "describe": ["describe", "--lexicon", lex, "--plot-data", out],
            "cluster": ["cluster", "--lexicon", lex, "--embeddings", str(emb),
                        "--construct", "empathy", "--k", "2", "--knn", "5",
                        "--out", out],
        }
        return tmp_path, commands

    @pytest.mark.parametrize(
        "command", ["extrinsic", "intrinsic", "describe", "cluster"]
    )
    def test_clean_world_runs(self, world, command):
        tmp_path, commands = world
        assert main(commands[command] + ["--seed", "1"]) == 0
        assert (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize(
        "command,name,fault,stage,line",
        [case[1:] for case in BAD_TABLES],
        ids=[case[0] for case in BAD_TABLES],
    )
    def test_bad_table_fails_at_its_stage(self, world, capsys,
                                          command, name, fault, stage, line):
        tmp_path, commands = world
        path = tmp_path / name
        if fault is None:
            path.unlink()
        elif isinstance(fault, tuple):
            number, raw = fault
            lines = path.read_bytes().split(b"\n")
            lines[number - 1] = raw
            path.write_bytes(b"\n".join(lines))
        else:
            path.write_bytes(fault)
        rc = main(commands[command] + ["--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert any(
            f"stage '{stage}'" in row and name in row
            and (line is None or f"line {line}" in row)
            for row in err.splitlines()
        ), err
        assert not (tmp_path / "out.tsv").exists()


class TestInputDigests:
    """Inputs are hashed on one helper thread from the start of a command
    that writes a ``.prov``, and the thread ends before ``main`` returns."""

    @pytest.fixture
    def clustered(self, synth, tmp_path):
        corpus, emb = synth
        lex = tmp_path / "lex.tsv"
        assert main(["induce", "--method", "mean-star", "--corpus", str(corpus),
                     "--construct", "empathy", "--out", str(lex), "--seed", "0"]) == 0
        return ["cluster", "--lexicon", str(lex), "--embeddings", str(emb),
                "--construct", "empathy", "--knn", "5", "--seed", "4",
                "--out", str(tmp_path / "c.tsv")]

    def test_in_place_rescale_records_the_input_digest(self, tmp_path, monkeypatch):
        lex = tmp_path / "lex.tsv"
        lex.write_text(
            "word\ta\n" + "".join(f"w{i}\t{float(i)}\n" for i in range(10)),
            encoding="utf-8",
        )
        before = sha(lex)
        real = cli._file_sha256

        def slow(path):  # a hash still running when the command's work ends
            time.sleep(0.3)
            return real(path)

        monkeypatch.setattr(cli, "_file_sha256", slow)
        assert main(["rescale", "--lexicon", str(lex), "--range", "0:1",
                     "--out", str(lex), "--seed", "0"]) == 0
        assert sha(lex) != before
        prov = json.loads((tmp_path / "lex.tsv.prov").read_text())
        assert prov["inputs"] == {str(lex): before}

    @pytest.mark.parametrize("k,missing,code,stage", [
        ("2", False, 0, None),
        ("2", True, 1, "load-embeddings"),
        ("999", False, 2, None),  # --k over the word count, after the load
    ], ids=["ok", "missing-embeddings", "usage"])
    def test_thread_ends_with_main(self, clustered, tmp_path, capsys,
                                   k, missing, code, stage):
        argv = clustered + ["--k", k]
        if missing:
            argv[argv.index("--embeddings") + 1] = str(tmp_path / "absent.vec")
        capsys.readouterr()
        threads = threading.active_count()
        assert main(argv) == code
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Exception in thread" not in err
        if stage:
            assert err.startswith(f"lexlearn cluster: stage '{stage}': "), err
            assert "absent.vec" in err

    def test_digests_match_a_hash_after_the_run(self, clustered, tmp_path):
        assert main(clustered + ["--k", "2"]) == 0
        inputs = json.loads((tmp_path / "c.tsv.prov").read_text())["inputs"]
        lex, emb = clustered[2], clustered[4]
        assert inputs == {lex: sha(Path(lex)), emb: sha(Path(emb))}

    def test_thread_never_opens_a_fifo(self, tmp_path, monkeypatch):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        regular = tmp_path / "lex.tsv"
        regular.write_text("word\ta\nw0\t1.0\n", encoding="utf-8")
        hashed = []
        real = cli._file_sha256

        def recording(path):
            on_main = threading.current_thread() is threading.main_thread()
            hashed.append((str(path), on_main))
            return real(path)

        monkeypatch.setattr(cli, "_file_sha256", recording)
        with cli._InputDigests([fifo, regular]) as hashes:
            hashes._thread.join(timeout=10)
            hung = hashes._thread.is_alive()
            if hung:  # a reader blocked on the FIFO: give it an empty write end
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            assert not hung
            assert hashed == [(str(regular), False)]
            # the FIFO is hashed on the calling thread, after the command's work
            writer = threading.Thread(target=fifo.write_bytes, args=(b"abc",),
                                      daemon=True)
            writer.start()
            digests = hashes.digests()
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert hashed[1:] == [(str(fifo), True)]
        assert digests == {str(fifo): hashlib.sha256(b"abc").hexdigest(),
                           str(regular): sha(regular)}

    @pytest.mark.parametrize("command,out,threads", [
        (["eval", "extrinsic", "--construct", "empathy", "--trait-column", "emp"],
         [], 0),
        (["eval", "extrinsic", "--construct", "empathy", "--trait-column", "emp"],
         ["--out"], 1),
        (["describe"], [], 0),
        (["describe"], ["--plot-data"], 1),
    ], ids=["extrinsic", "extrinsic-out", "describe", "describe-plot-data"])
    def test_thread_only_for_a_prov(self, tmp_path, monkeypatch,
                                    command, out, threads):
        lex = tmp_path / "lex.tsv"
        lex.write_text("word\tempathy\nw1\t1.0\nw2\t2.0\nw3\t3.0\n",
                       encoding="utf-8")
        (tmp_path / "users.csv").write_text(
            "user_id,text\nu1,w1 w2\nu2,w3\nu3,w2 w3\n", encoding="utf-8")
        (tmp_path / "traits.csv").write_text(
            "user_id,emp\nu1,1\nu2,4\nu3,2\n", encoding="utf-8")
        argv = command + ["--lexicon", str(lex)]
        if command[0] == "eval":
            argv += ["--users", str(tmp_path / "users.csv"),
                     "--traits", str(tmp_path / "traits.csv")]
        if out:
            argv += [out[0], str(tmp_path / "out.tsv")]
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or real_start(self))
        assert main(argv + ["--seed", "1"]) == 0
        assert len(started) == threads
        assert (tmp_path / "out.tsv.prov").exists() == bool(out)
