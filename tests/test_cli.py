"""End-to-end command-line behavior: flags, files, exit codes, provenance."""

import hashlib
import json

import numpy as np
import pytest

from lexlearn.cli import main
from lexlearn.induction import load_lexicon


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


BAD_FLAG_VALUES = [
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
