"""Span tracing from outside the program.

The tracer replaces public functions of the ``lexlearn`` modules with thin
wrappers, under the name each caller looks the function up by (for example
``lexlearn.induction.ridge_fit``, the name ``fit_regression_weights``
calls).  Each wrapper records a span: name, start, end, parent span and
command id.  Spans stay in memory until the run ends.  A few wrappers also
count work from the wrapped call's arguments and result; byte figures are
computed from array shapes and file sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass

import numpy as np

# (module whose namespace the caller reads, attribute, span name).  The span
# name is "<layer>.<function>", the layer being the defining module.
TARGETS = [
    ("lexlearn.cli", "load_corpus", "corpus.load_corpus"),
    ("lexlearn.cli", "load_gold_lexicon", "corpus.load_gold_lexicon"),
    ("lexlearn.cli", "load_embeddings", "embeddings.load_embeddings"),
    ("lexlearn.cli", "eval_intrinsic", "evaluation.eval_intrinsic"),
    ("lexlearn.cli", "eval_extrinsic", "evaluation.eval_extrinsic"),
    ("lexlearn.cli", "load_user_corpora", "evaluation.load_user_corpora"),
    ("lexlearn.cli", "fit_mean_star", "induction.fit_mean_star"),
    ("lexlearn.cli", "fit_mean_binary", "induction.fit_mean_binary"),
    ("lexlearn.cli", "fit_regression_weights", "induction.fit_regression_weights"),
    ("lexlearn.cli", "fit_mlffn", "induction.fit_mlffn"),
    ("lexlearn.cli", "load_lexicon", "induction.load_lexicon"),
    ("lexlearn.cli", "save_lexicon", "induction.save_lexicon"),
    ("lexlearn.cli", "rescale_log_minmax", "induction.rescale_log_minmax"),
    ("lexlearn.cli", "cluster", "clustering.cluster"),
    ("lexlearn.cli", "save_clusters", "clustering.save_clusters"),
    ("lexlearn.corpus", "build_corpus", "corpus.build_corpus"),
    ("lexlearn.evaluation", "build_corpus", "corpus.build_corpus"),
    ("lexlearn.evaluation", "fit_method", "induction.fit_method"),
    ("lexlearn.induction", "fit_mean_star", "induction.fit_mean_star"),
    ("lexlearn.induction", "fit_mean_binary", "induction.fit_mean_binary"),
    ("lexlearn.induction", "fit_regression_weights",
     "induction.fit_regression_weights"),
    ("lexlearn.induction", "fit_mlffn", "induction.fit_mlffn"),
    ("lexlearn.induction", "ridge_fit", "numerics.ridge_fit"),
    ("lexlearn.induction", "centroid", "embeddings.centroid"),
    ("lexlearn.induction", "train", "neural.train"),
    ("lexlearn.clustering", "build_signed_graph", "clustering.build_signed_graph"),
    ("lexlearn.clustering", "signed_laplacian", "clustering.signed_laplacian"),
    ("lexlearn.clustering", "sym_eig_smallest", "numerics.sym_eig_smallest"),
    ("lexlearn.clustering", "kmeans", "numerics.kmeans"),
]

# Counted but not timed: provenance hashing stays in the caller's self time.
HASH_TARGET = ("lexlearn.cli", "_file_sha256")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: str


class Tracer:
    """Collects spans and counters for one process; not thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = {}
        self.command = ""
        self._stack: list[int] = []
        self._eigen: list[tuple] = []
        self._tables: list = []
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        key = (self.command, name)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        key = (self.command, name)
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def wrap_hash(self, fn):
        @functools.wraps(fn)
        def counted(path):
            self.add("cli.hashed_bytes", os.path.getsize(path))
            return fn(path)

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        module = importlib.import_module(HASH_TARGET[0])
        original = getattr(module, HASH_TARGET[1])
        self._restore.append((module, HASH_TARGET[1], original))
        setattr(module, HASH_TARGET[1], self.wrap_hash(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- per-command results ------------------------------------------------

    def finish_command(self, output_words: set[str] | None) -> None:
        """Compute the deferred figures of the command that just ended: the
        eigen-residuals and the share of loaded vectors its output covers."""
        for A, vals, vecs in self._eigen:
            resid = np.linalg.norm(A @ vecs - vecs * vals[None, :], axis=0).max()
            self.peak("numerics.sym_eig_smallest.residual",
                      float(resid / np.linalg.norm(A)))
        for table in self._tables:
            if output_words is not None and len(table):
                used = sum(1 for w in output_words if w in table)
                self.add("embeddings.used_ratio", used / len(table))
        self._eigen.clear()
        self._tables.clear()

    def command_metrics(self, command: str) -> dict[str, float]:
        """Per-span totals (``.s``, ``.self_s``, ``.calls``) and counters of
        one command."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.command == command and span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        out: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.command != command:
                continue
            duration = span.end - span.start
            for suffix, value in (
                ("s", duration),
                ("self_s", duration - child_time.get(index, 0.0)),
                ("calls", 1),
            ):
                key = f"{span.name}.{suffix}"
                out[key] = out.get(key, 0.0) + value
        for (cmd, name), value in self.counters.items():
            if cmd == command:
                out[name] = value
        epochs = out.get("neural.epochs")
        if epochs:
            out["neural.train.s_per_epoch"] = out["neural.train.s"] / epochs
        return out


def _count_corpus(tracer: Tracer, args, corpus) -> None:
    tracer.add("corpus.tokens", sum(len(doc.tokens) for doc in corpus.documents))
    tracer.add("corpus.vocab", len(corpus.vocab))


def _count_ridge(tracer: Tracer, args, model) -> None:
    features = np.shape(args[0])[1]
    tracer.peak("numerics.ridge_fit.gram_bytes", features * features * 8)


def _count_table(tracer: Tracer, args, table) -> None:
    tracer.add("embeddings.vectors_loaded", len(table))
    tracer._tables.append(table)


def _count_train(tracer: Tracer, args, result) -> None:
    tracer.add("neural.epochs", len(result[1].train_loss))


def _count_graph(tracer: Tracer, args, graph) -> None:
    tracer.add("clustering.edges", len(graph.edges))
    tracer.add("clustering.negative_edges", sum(1 for e in graph.edges if e[2] < 0))


def _count_laplacian(tracer: Tracer, args, L) -> None:
    tracer.add("clustering.laplacian_bytes", L.nbytes)


def _defer_residual(tracer: Tracer, args, result) -> None:
    tracer._eigen.append((np.asarray(args[0], dtype=np.float64), *result))


COUNTERS = {
    "corpus.load_corpus": _count_corpus,
    "numerics.ridge_fit": _count_ridge,
    "embeddings.load_embeddings": _count_table,
    "neural.train": _count_train,
    "clustering.build_signed_graph": _count_graph,
    "clustering.signed_laplacian": _count_laplacian,
    "numerics.sym_eig_smallest": _defer_residual,
}
