"""The workloads: which CLI commands each runs, how each command's outputs
are read back and scored, and which per-layer figures each reports.

Output checks use the tool's own readers where it has one (``load_lexicon``)
and parse the report and cluster TSVs by their documented layout otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gen import CONSTRUCT

PROGRAM_SEED = "7"  # the program's own --seed; the workload seed shapes inputs


class CheckError(Exception):
    """An output that exists but is not what the command promises."""


@dataclass
class Checked:
    quality: float | None = None  # score against the planted truth
    words: set[str] | None = None  # the words the output rates or clusters
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    name: str
    metric: str  # the name of its wall time in the report line
    argv: tuple[str, ...]
    output: str
    prov_command: str
    check: Callable[[Path, dict], Checked]
    layers: tuple[str, ...]


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite {what}: {text!r}")
    return value


def _tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CheckError(f"{path.name} is empty")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def check_intrinsic(path: Path, oracle: dict) -> Checked:
    from lexlearn.evaluation import EVAL_TSV_HEADER

    header, rows = _tsv(path)
    if "\t".join(header) != EVAL_TSV_HEADER:
        raise CheckError(f"report header {header}")
    methods = sorted(row[0] for row in rows)
    if methods != ["mean_binary", "mean_star", "regression_weights"]:
        raise CheckError(f"report methods {methods}")
    mean_r = {}
    for row in rows:
        if len(row) != len(header) or row[1] != CONSTRUCT or row[2] != "5":
            raise CheckError(f"report row {row}")
        mean_r[row[0]] = _finite(row[3], "mean_r")
        _finite(row[5], "coverage")
    return Checked(quality=sum(mean_r.values()) / len(mean_r), notes={"mean_r": mean_r})


def check_extrinsic(path: Path, oracle: dict) -> Checked:
    header, rows = _tsv(path)
    if header != ["user_id", "score"] or not rows or rows[-1][0] != "# pearson_r":
        raise CheckError("score file layout")
    for row in rows[:-1]:
        _finite(row[1], "user score")
    if len(rows) - 1 != oracle["users"]:
        raise CheckError(f"{len(rows) - 1} scored users, expected {oracle['users']}")
    return Checked(quality=_finite(rows[-1][1], "pearson_r"))


def check_induce(path: Path, oracle: dict) -> Checked:
    import numpy as np
    from lexlearn.induction import load_lexicon

    lex = load_lexicon(path)
    planted = oracle["planted"]
    if lex.constructs != (CONSTRUCT,) or set(lex.entries) != set(planted):
        raise CheckError("lexicon does not rate exactly the embedded words")
    words = sorted(planted)
    got = np.array([lex.entries[w][0] for w in words])
    if not np.all(np.isfinite(got)):
        raise CheckError("non-finite rating in the lexicon")
    want = np.array([planted[w] for w in words])
    return Checked(quality=float(np.corrcoef(got, want)[0, 1]), words=set(words))


def adjusted_rand_index(a: list, b: list) -> float:
    pairs = Counter(zip(a, b))
    both = sum(v * (v - 1) / 2 for v in pairs.values())
    sa = sum(v * (v - 1) / 2 for v in Counter(a).values())
    sb = sum(v * (v - 1) / 2 for v in Counter(b).values())
    expected = sa * sb / (len(a) * (len(a) - 1) / 2)
    return (both - expected) / ((sa + sb) / 2 - expected)


def check_cluster(which: str, k: int) -> Callable[[Path, dict], Checked]:
    def check(path: Path, oracle: dict) -> Checked:
        header, rows = _tsv(path)
        if header != ["cluster_id", "word", "rating", "cluster_mean_rating",
                      "manual_label"]:
            raise CheckError(f"cluster header {header}")
        planted = oracle[which]
        assignment = {}
        for row in rows:
            if len(row) != 5:
                raise CheckError(f"cluster row {row}")
            assignment[row[1]] = int(row[0])
            _finite(row[2], "rating")
            _finite(row[3], "cluster mean")
        if set(assignment) != set(planted) or len(assignment) != len(rows):
            raise CheckError("clustered words differ from the lexicon words")
        if not set(assignment.values()) <= set(range(k)):
            raise CheckError("cluster id out of range")
        words = sorted(planted)
        ari = adjusted_rand_index([planted[w] for w in words],
                                  [assignment[w] for w in words])
        return Checked(quality=ari, words=set(words))

    return check


def check_provenance(output: Path, command: str) -> None:
    record = json.loads(Path(str(output) + ".prov").read_text(encoding="utf-8"))
    if record.get("tool") != "lexlearn" or record.get("command") != command:
        raise CheckError(
            f"provenance sidecar of {output.name} names {record.get('command')}"
        )


EVAL_ARGS = ("--construct", CONSTRUCT, "--seed", PROGRAM_SEED)

CLUSTER_LAYERS = (
    "induction.load_lexicon.s",
    "embeddings.load_embeddings.s",
    "embeddings.vectors_loaded",
    "embeddings.used_ratio",
    "clustering.build_signed_graph.s",
    "clustering.edges",
    "clustering.negative_edges",
    "clustering.signed_laplacian.s",
    "clustering.laplacian_bytes",
    "numerics.sym_eig_smallest.s",
    "numerics.sym_eig_smallest.residual",
    "numerics.kmeans.s",
    "clustering.save_clusters.s",
)


def _cluster(which: str, k: int) -> Command:
    return Command(
        f"cluster_{which}",
        f"cluster_{which}_s",
        ("cluster", "--lexicon", f"lexicon_{which}.tsv", "--embeddings", "vectors.vec",
         "--k", str(k), "--knn", "20", *EVAL_ARGS, "--out", f"clusters_{which}.tsv"),
        f"clusters_{which}.tsv",
        "cluster",
        check_cluster(which, k),
        CLUSTER_LAYERS,
    )


WORKLOADS: dict[str, list[Command]] = {
    "eval-bow": [
        Command(
            "intrinsic",
            "eval_intrinsic_s",
            ("eval", "intrinsic", "--corpus", "corpus.csv", "--gold", "gold.tsv",
             "--methods", "mean-star,mean-binary,regression-weights", "--folds", "5",
             *EVAL_ARGS, "--out", "intrinsic.tsv"),
            "intrinsic.tsv",
            "eval-intrinsic",
            check_intrinsic,
            (
                "corpus.load_corpus.s",
                "corpus.build_corpus.s",
                "corpus.build_corpus.calls",
                "corpus.tokens",
                "corpus.vocab",
                "induction.fit_mean_star.s",
                "induction.fit_mean_binary.s",
                "induction.fit_regression_weights.self_s",
                "numerics.ridge_fit.s",
                "numerics.ridge_fit.calls",
                "numerics.ridge_fit.gram_bytes",
                "evaluation.eval_intrinsic.self_s",
            ),
        ),
        Command(
            "extrinsic",
            "eval_extrinsic_s",
            ("eval", "extrinsic", "--lexicon", "planted.tsv", "--users", "users.csv",
             "--traits", "traits.csv", "--trait-column", CONSTRUCT, *EVAL_ARGS,
             "--out", "extrinsic.tsv"),
            "extrinsic.tsv",
            "eval-extrinsic",
            check_extrinsic,
            (
                "induction.load_lexicon.s",
                "evaluation.load_user_corpora.s",
                "evaluation.eval_extrinsic.s",
            ),
        ),
    ],
    "induce-mlffn": [
        Command(
            "induce",
            "induce_s",
            ("induce", "--method", "mlffn", "--corpus", "corpus.csv",
             "--embeddings", "vectors.vec", "--rate-all-embedded",
             "--epochs", "20", "--patience", "20", *EVAL_ARGS, "--out", "induced.tsv"),
            "induced.tsv",
            "induce",
            check_induce,
            (
                "corpus.load_corpus.s",
                "embeddings.load_embeddings.s",
                "embeddings.vectors_loaded",
                "embeddings.used_ratio",
                "embeddings.centroid.s",
                "embeddings.centroid.calls",
                "neural.train.s",
                "neural.epochs",
                "neural.train.s_per_epoch",
                "induction.fit_mlffn.self_s",
                "induction.save_lexicon.s",
            ),
        ),
    ],
    "cluster": [_cluster("small", 50), _cluster("large", 8)],
}

# Reported for every command: the traced command span, its self time (where
# provenance hashing lands), the bytes hashed, the untraced wall time of the
# same command in the same run, and the difference (tracing overhead).
TRACED_COMMAND_LAYERS = ("cli.main.s", "cli.main.self_s", "cli.hashed_bytes")
COMMAND_LAYERS = TRACED_COMMAND_LAYERS + ("untraced_s", "trace_overhead_s")

# name: (unit, better, bound).  The time bounds are wide because the speed of
# the shared 2-core host drifts by 10-30 % over minutes (the same seed and
# code gave 10.1 s and 13.9 s pass times a few minutes apart).  quality is
# deterministic for a seed; its bound covers the spread between seeds.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "cmd_geomean_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_ratio": ("ratio", "higher", 0.01),
    "quality": ("score", "higher", 0.1),
}


def per_layer_names() -> list[str]:
    return [
        f"{cmd.name}.{metric}"
        for commands in WORKLOADS.values()
        for cmd in commands
        for metric in cmd.layers + COMMAND_LAYERS
    ]


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s", ".s_per_epoch")):
        return "s", "lower"
    if name.endswith("_bytes"):
        return "bytes", "lower"
    if name.endswith("used_ratio"):
        return "ratio", "higher"
    if name.endswith("residual"):
        return "ratio", "lower"
    return "count", "lower"
