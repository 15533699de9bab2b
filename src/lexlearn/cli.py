"""Command-line pipeline: induce, eval, cluster, describe, rescale.

Every run writes a JSON provenance sidecar (``<output>.prov``) next to each
output file: the full flag echo, tool version, seed, and sha256 fingerprints
of the inputs, enough to re-run the command bit-identically.  Exit codes are
stable for scripting: 0 success, 1 data or numerical failure, 2 usage
failure.  Diagnostics name the failing stage on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import secrets
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from ._files import DigestMemo, atomic_write
from .clustering import cluster, format_preview, save_clusters
from .corpus import Corpus, corpus_fingerprint, load_corpus
from .embeddings import load_embeddings
from .errors import DataError, DimensionError, LexlearnError, UndefinedCorrelationError
from .evaluation import (
    EVAL_TSV_HEADER,
    eval_extrinsic,
    eval_intrinsic,
    load_gold_lexicon,
    load_user_corpora,
    report_tsv_row,
)
# the fit_* names stay importable for code that wraps them by module attribute
from .induction import (  # noqa: F401
    METHOD_KINDS,
    Lexicon,
    MethodSpec,
    fit_mean_binary,
    fit_mean_star,
    fit_method,
    fit_mlffn,
    fit_regression_weights,
    join_lexica,
    load_lexicon,
    rescale_log_minmax,
    save_lexicon,
)
from .neural import NetConfig
from .numerics import pearson

METHOD_FLAGS = {kind.replace("_", "-"): kind for kind in METHOD_KINDS}


class _StageFailure(Exception):
    def __init__(self, stage: str, error: Exception):
        super().__init__(str(error))
        self.stage = stage


class _UsageFailure(Exception):
    pass


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (LexlearnError, OSError) as exc:
        raise _StageFailure(name, exc) from exc


# the largest read: each read and each update gives up the GIL, and the
# hashing thread must win it back before the next one, so large reads hide
# more of a large file's hash
_HASH_CHUNK = 16 << 20


class _HashCancelled(Exception):
    pass


def _file_sha256(path: str | Path) -> str:
    """The sha256 of a file's bytes to its end, read into one reusable buffer
    of an eighth of the file, from 1 MiB to ``_HASH_CHUNK`` bytes (the buffer
    adds to the memory of the load that runs beside it).  On the thread of an
    :class:`_InputDigests` that has been cancelled it gives up between reads."""
    cancelled = getattr(threading.current_thread(), "cancelled", None)
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as handle:
        size = os.fstat(handle.fileno()).st_size
        buffer = memoryview(bytearray(min(max(size // 8, 1 << 20), _HASH_CHUNK)))
        while count := handle.readinto(buffer):
            digest.update(buffer[:count])
            if cancelled is not None and cancelled.is_set():
                raise _HashCancelled(path)
    return digest.hexdigest()


class _InputDigests:
    """The sha256 of each input file of a command that writes a ``.prov``.

    Entering the block looks up each regular file among ``paths`` in the
    :class:`~lexlearn._files.DigestMemo` and starts one thread that hashes
    the misses in order, alongside the command's own reading and work; a
    file it cannot read is left out.  ``join()`` waits for it and must come
    before the command writes its first output byte, so each digest is of
    the file as the command started with it (also when ``--out`` names an
    input).  ``digests()`` then hashes, on the calling thread, what the
    thread did not: a non-regular file, which a second reader would take
    part of a pipe's data from, or a file it could not read.  Leaving the
    block early cancels the thread between reads.
    """

    def __init__(self, paths: list[str | Path]):
        self.paths = [str(p) for p in paths]
        self._digests: dict[str, str] = {}
        misses = []
        # a memo stats the path; it never opens it
        for memo in map(DigestMemo, dict.fromkeys(self.paths)):
            if memo.digest is not None:
                self._digests[memo.path] = memo.digest
            elif memo.regular:
                misses.append(memo)
        self._thread = None
        if misses:
            self._thread = threading.Thread(target=self._hash, args=(misses,),
                                            name="lexlearn-input-sha256", daemon=True)
            self._thread.cancelled = threading.Event()

    def _hash(self, misses: list[DigestMemo]) -> None:
        for memo in misses:
            try:
                # by its module-level name, so that a wrapper set on
                # lexlearn.cli._file_sha256 sees this call too
                self._digests[memo.path] = memo.sha256(_file_sha256)
            except OSError:
                continue
            except _HashCancelled:
                return

    def __enter__(self) -> _InputDigests:
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self._thread.cancelled.set()
            self._thread.join()

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()

    def digest(self, path: str | Path) -> str | None:
        """The digest of ``path`` from the memo or, once it has ended, the
        thread; None for a file neither has (not regular, or not
        readable)."""
        self.join()
        return self._digests.get(str(path))

    def digests(self) -> dict[str, str]:
        self.join()
        return {p: self._digests.get(p) or _file_sha256(p) for p in self.paths}


def _input_sha256(path: str) -> str:
    """The sha256 of one input file, from the memo or hashed on this thread."""
    return DigestMemo(path).sha256(_file_sha256)


def _vector_metrics(table) -> dict:
    """The loader's deterministic counters, for ``notes.metrics`` in ``.prov``."""
    return {"vectors_loaded": len(table), "skipped_vector_lines": table.skipped_lines}


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(line + "\n" for line in lines)


def _write_output(hashes: _InputDigests, args: argparse.Namespace, path: str,
                  write, notes: dict) -> None:
    """Write one output with ``write`` and its ``.prov`` sidecar at stage
    ``write-output``, each to a temporary file beside it; both move into
    place only once both are written, so a failed write leaves neither.  The
    sidecar holds the flag echo, tool version, command, seed (0 for a
    command without one), input digests and ``notes``."""
    hashes.join()

    def write_with_provenance() -> None:
        # the sidecar moves first: when it cannot, the output stays as it was
        with atomic_write(path + ".prov", path) as (prov_temp, temp):
            write(temp)
            record = {
                "tool": "lexlearn",
                "version": __version__,
                "command": (f"eval-{args.eval_mode}" if args.command == "eval"
                            else args.command),
                "flags": {k: v for k, v in sorted(vars(args).items())
                          if k not in ("func", "command")},
                "seed": args.seed or 0,
                "inputs": hashes.digests(),
                "notes": notes,
            }
            with open(prov_temp, "w", encoding="utf-8", newline="\n") as handle:
                json.dump(record, handle, indent=2, sort_keys=True, default=str)
                handle.write("\n")

    _stage("write-output", write_with_provenance)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        args.seed = secrets.randbits(32)
        print(f"lexlearn: no --seed given; using recorded seed {args.seed}",
              file=sys.stderr)
    return args.seed


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise _UsageFailure(f"expected LO:HI, got {text!r}") from None
    # hi - lo is finite only when lo and hi are
    if not (lo < hi and np.isfinite(hi - lo)):
        raise _UsageFailure(
            f"rescale range needs finite lo < hi with a finite hi - lo, got {text!r}"
        )
    return lo, hi


def _hidden_sizes(text: str) -> tuple[int, ...]:
    sizes = tuple(int(p) for p in text.split(",") if p.strip())
    if not sizes or min(sizes) < 1:
        raise ValueError(f"bad layer sizes {text!r}")
    return sizes


def _checked(kind, ok, expected: str):
    """argparse ``type=``: parse with ``kind`` and require ``ok(value)``, so a
    bad value exits 2 at parse time, also when it comes from ``--config``."""

    def parse(text: str):
        try:
            value = kind(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


# the ranges mirror the library's own checks (NetConfig, ridge_fit,
# eval_intrinsic, build_signed_graph, cluster); --min-df and --top count from 1;
# the comparisons are false for NaN
_DROPOUT = _checked(float, lambda v: 0 <= v < 1, "a rate in [0, 1)")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "a fraction in (0, 1)")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < np.inf, "a finite number >= 0")
_POSITIVE = _checked(float, lambda v: 0 < v < np.inf, "a finite number > 0")
# checked at parse time, kept as text: .prov echoes the flag as given
_HIDDEN = _checked(str, _hidden_sizes, "comma-separated layer sizes >= 1")
_DELIMITER = _checked(str, lambda v: len(v) == 1, "a single character")


def _method_spec(args: argparse.Namespace, kind: str, table) -> MethodSpec:
    """The spec of method ``kind`` from the method flags; ``fit_method`` sets
    the net's output count and seed."""
    net = None
    if kind == "mlffn":
        net = NetConfig(
            input_dim=table.dim,
            hidden_sizes=_hidden_sizes(args.hidden),
            learning_rate=args.lr,
            batch_size=args.batch_size,
            max_epochs=args.epochs,
            patience=args.patience,
            dropout_input=args.dropout_input,
            dropout_hidden=args.dropout_hidden,
            l2=args.l2,
            validation_fraction=args.val_fraction,
            seed=args.seed,
            monitor=args.monitor,
        )
    # eval intrinsic has no flags for the rated word set
    return MethodSpec(kind, ridge_lambda=args.ridge_lambda,
                      median_ties=args.median_ties, net=net, table=table,
                      rate_all_embedded=getattr(args, "rate_all_embedded", False),
                      include_oov_words=getattr(args, "include_oov", False))


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def _names(text: str, what: str) -> list[str]:
    """A comma-separated list of distinct, non-empty names."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise _UsageFailure(f"no {what} names given")
    if len(set(names)) < len(names):
        raise _UsageFailure(f"a {what} is named twice: {names}")
    return names


def _constructs_from_args(args: argparse.Namespace) -> list[str]:
    if args.constructs:
        return _names(args.constructs, "construct")
    if args.construct:
        return [args.construct]
    raise _UsageFailure("one of --construct or --constructs is required")


def _load_corpus(args: argparse.Namespace, constructs: list[str]):
    return _stage("load-corpus", load_corpus, args.corpus, args.text_column,
                  constructs, id_column=args.id_column, delimiter=args.delimiter,
                  min_df=args.min_df)


def _fingerprinted(lex: Lexicon, corpus: Corpus) -> Lexicon:
    """The lexicon with the corpus fingerprint in each fit's provenance (one
    sha256 pass over the corpus, made only for a lexicon that is written)."""
    mark = {"corpus_fingerprint": corpus_fingerprint(corpus)}
    parts = lex.provenance.get("per_construct")
    prov = ({**lex.provenance, "per_construct": [{**p, **mark} for p in parts]}
            if parts else {**lex.provenance, **mark})
    return dataclasses.replace(lex, provenance=prov)


def cmd_induce(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    constructs = _constructs_from_args(args)
    kind = METHOD_FLAGS[args.method]
    if kind == "mlffn" and not args.embeddings:
        raise _UsageFailure("--embeddings is required for --method mlffn")
    rescale = _parse_range(args.rescale) if args.rescale else None
    inputs = [args.corpus] + ([args.embeddings] if kind == "mlffn" else [])
    with _InputDigests(inputs) as hashes:
        corpus = _load_corpus(args, constructs)
        notes = {"method": kind, "constructs": constructs}
        table = None
        if kind == "mlffn":
            # centroids read every token: load the vectors of the corpus terms
            keep = None if args.rate_all_embedded else set(corpus.terms)
            # the load may read the cache entry of the file's digest
            table = _stage("load-embeddings", load_embeddings, args.embeddings,
                           restrict_to=keep,
                           digest=lambda: hashes.digest(args.embeddings))
            notes["metrics"] = _vector_metrics(table)
        spec = _method_spec(args, kind, table)
        # one net for all constructs, or one per construct seeded seed + i
        groups = ([constructs] if args.joint or kind != "mlffn"
                  else [[c] for c in constructs])
        lex = join_lexica([_stage("fit", fit_method, corpus, group, spec, seed + i)
                           for i, group in enumerate(groups)])
        lex = _fingerprinted(lex, corpus)
        if rescale:
            lex = _stage("rescale", rescale_log_minmax, lex, *rescale)
        notes["lexicon"] = lex.provenance
        _write_output(hashes, args, args.out,
                      lambda path: save_lexicon(lex, path), notes)
    print(f"wrote {len(lex)} words x {len(lex.constructs)} construct(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval_intrinsic(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if args.methods == "all":
        methods = list(METHOD_FLAGS)
    else:
        methods = _names(args.methods, "method")
        unknown = [m for m in methods if m not in METHOD_FLAGS]
        if unknown:
            raise _UsageFailure(
                f"unknown method(s) {unknown}; choose from {list(METHOD_FLAGS)}"
            )
    if "mlffn" in methods and not args.embeddings:
        raise _UsageFailure("--embeddings is required to evaluate mlffn")
    constructs = _constructs_from_args(args)
    inputs = [args.corpus, args.gold] + ([args.embeddings] if "mlffn" in methods else [])
    # only a report file gets a .prov
    with _InputDigests(inputs if args.out else []) as hashes:
        corpus = _load_corpus(args, constructs)
        gold = _stage(
            "load-gold",
            load_gold_lexicon,
            args.gold,
            args.word_column,
            constructs,
            delimiter=args.delimiter,
        )
        table = None
        notes = {}
        if "mlffn" in methods:
            # with no .prov the file has no digest, so no cache entry
            table = _stage("load-embeddings", load_embeddings, args.embeddings,
                           restrict_to=set(corpus.terms),
                           digest=(lambda: hashes.digest(args.embeddings))
                           if args.out else None)
            notes["metrics"] = _vector_metrics(table)
        reports = []
        for flag in methods:
            spec = _method_spec(args, METHOD_FLAGS[flag], table)
            for construct in constructs:
                report = _stage("eval", eval_intrinsic, corpus, gold, spec, construct,
                                folds=args.folds, seed=seed)
                reports.append(report)
                fold_text = ", ".join(
                    "failed" if v != v else f"{v:.4f}" for v in report.per_fold
                )
                print(f"method={flag} construct={construct} folds={report.folds}")
                print(f"  per-fold r: {fold_text}")
                print(
                    f"  mean_r={report.mean_r:.4f} sd_r={report.sd_r:.4f} "
                    f"coverage={report.coverage:.4f} "
                    f"words={report.evaluated_vocab_size}"
                )
                for fold, reason in report.fold_failures.items():
                    print(f"  fold {fold} failed: {reason}")
        if len(methods) > 1 or len(constructs) > 1:
            print()
            print(_comparison_table(reports, methods, constructs))
        if args.out:
            lines = [EVAL_TSV_HEADER, *map(report_tsv_row, reports)]
            _write_output(hashes, args, args.out,
                          lambda path: _write_lines(path, lines), notes)
            print(f"wrote report to {args.out}")
    return 0


def _comparison_table(reports, methods, constructs) -> str:
    by_key = {(r.method, r.construct): r for r in reports}
    width = max(len(m) for m in methods) + 2
    header = "method".ljust(width) + "".join(c.rjust(12) for c in constructs)
    lines = [header]
    for flag in methods:
        kind = METHOD_FLAGS[flag]
        cells = []
        for construct in constructs:
            report = by_key.get((kind, construct))
            cells.append(
                f"{report.mean_r:.3f}".rjust(12) if report is not None else "-".rjust(12)
            )
        lines.append(flag.ljust(width) + "".join(cells))
    return "\n".join(lines)


def cmd_eval_extrinsic(args: argparse.Namespace) -> int:
    _resolve_seed(args)
    inputs = [args.lexicon, args.users, args.traits]
    # only a score file gets a .prov; without one, the users file's digest
    # for the cache entry of its parse is taken on this thread
    with _InputDigests(inputs if args.out else []) as hashes:
        lex = _stage("load-lexicon", load_lexicon, args.lexicon)
        users = _stage(
            "load-users",
            load_user_corpora,
            args.users,
            args.traits,
            args.trait_column,
            delimiter=args.delimiter,
            digest=lambda: (hashes.digest if args.out else _input_sha256)(args.users),
        )
        r, scores = _stage("eval", eval_extrinsic, lex, args.construct, users)
        print(f"extrinsic construct={args.construct} users={len(scores)} r={r:.4f}")
        if args.out:
            lines = ["user_id\tscore",
                     *(f"{uid}\t{scores[uid]!r}" for uid in sorted(scores)),
                     f"# pearson_r\t{r!r}"]
            _write_output(hashes, args, args.out,
                          lambda path: _write_lines(path, lines), {"r": r})
            print(f"wrote scores to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def cmd_cluster(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    with _InputDigests([args.lexicon, args.embeddings]) as hashes:
        lex = _stage("load-lexicon", load_lexicon, args.lexicon)
        # clustering reads only the lexicon words' rows, found through the
        # line index in the cache entry of the file's digest
        table = _stage("load-embeddings", load_embeddings, args.embeddings,
                       restrict_to=lex.words,
                       digest=lambda: hashes.digest(args.embeddings))
        usable = np.count_nonzero(np.linalg.norm(table.matrix(lex.words), axis=1))
        if args.k > usable:
            raise _UsageFailure(
                f"--k {args.k} exceeds the {usable} lexicon words with nonzero embeddings"
            )
        result = _stage(
            "cluster",
            cluster,
            lex,
            args.construct,
            table,
            args.k,
            args.knn,
            args.rho,
            seed,
            normalized=args.normalized,
            clip_negative_cosine=not args.no_clip,
        )
        _write_output(hashes, args, args.out,
                      lambda path: save_clusters(result, path),
                      {**result.provenance,
                       "metrics": {**_vector_metrics(table), **result.metrics}})
    print(format_preview(result, args.top))
    if result.dropped_words:
        print(f"dropped {len(result.dropped_words)} word(s) with zero embeddings")
    print(f"wrote {result.k} clusters to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# describe / rescale
# ---------------------------------------------------------------------------


def _number(x: float, width: int = 0) -> str:
    """Four decimals in fixed point, or in an exponent from 1e16 on, where a
    float64 has no fractional digits left and fixed point prints up to 309
    digits."""
    return f"{x:{width}.4{'e' if abs(x) >= 1e16 else 'f'}}"


def _scale_safe(stat, values: np.ndarray) -> float:
    """``stat(values)`` of finite values, also when a sum inside overflows:
    then taken of the values scaled by their largest magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = stat(values)
        if np.isfinite(result):
            return result
        scale = np.abs(values).max()
        return stat(values / scale) * scale


def _histogram_lines(counts: np.ndarray, edges: np.ndarray, width: int = 40) -> list[str]:
    peak = max(int(counts.max()), 1)
    lines = []
    for b in range(len(counts)):
        bar = "#" * max(1 if counts[b] else 0, round(width * counts[b] / peak))
        lines.append(f"  [{_number(edges[b], 9)}, {_number(edges[b + 1], 9)}) "
                     f"{bar} {counts[b]}")
    return lines


def _histogram(construct: str, values: np.ndarray):
    try:
        return np.histogram(values, bins=20)
    except ValueError:  # 20 bins narrower than the floats at this magnitude
        low = values.min()
    try:
        with np.errstate(over="ignore"):
            counts, edges = np.histogram(values - low, bins=20)
    except ValueError as exc:  # a range too wide for 20 bins
        raise DataError(f"construct {construct!r}: ratings from {low} to "
                        f"{values.max()}: {exc}") from None
    return counts, edges + low


def _pearson_cell(a: np.ndarray, b: np.ndarray) -> str:
    try:
        return f"{pearson(a, b):.3f}"
    except (DimensionError, UndefinedCorrelationError):  # one word, or a constant
        return "n/a"


def cmd_describe(args: argparse.Namespace) -> int:
    # only a plot-data file gets a .prov
    with _InputDigests([args.lexicon] if args.plot_data else []) as hashes:
        lex = _stage("load-lexicon", load_lexicon, args.lexicon)
        plot_lines = ["construct\tbin\tlo\thi\tcount"]
        for construct in lex.constructs:
            values = lex.values(construct)
            print(f"construct: {construct}")
            sd = _scale_safe(lambda v: v.std(ddof=1), values) \
                if len(values) > 1 else float("nan")
            print(
                f"  count: {len(values)}  min: {_number(values.min())}  "
                f"max: {_number(values.max())}  "
                f"mean: {_number(_scale_safe(np.mean, values))}  "
                f"sd: {_number(sd)}"
            )
            print("  histogram (20 bins):")
            counts, edges = _stage("histogram", _histogram, construct, values)
            for line in _histogram_lines(counts, edges):
                print(line)
            for b in range(20):
                plot_lines.append(
                    f"{construct}\t{b}\t{float(edges[b])!r}\t{float(edges[b + 1])!r}"
                    f"\t{int(counts[b])}"
                )
        if len(lex.constructs) > 1:
            print("pairwise pearson:")
            names = lex.constructs
            width = max(len("-1.000"), *map(len, names)) + 2
            print(" " * width + "".join(n.rjust(width) for n in names))
            for a in names:
                row = [a.ljust(width)]
                for b in names:
                    r = "1.000" if a == b else _pearson_cell(lex.values(a), lex.values(b))
                    row.append(r.rjust(width))
                print("".join(row))
        if args.plot_data:
            _write_output(hashes, args, args.plot_data,
                          lambda path: _write_lines(path, plot_lines), {})
            print(f"wrote histogram bins to {args.plot_data}")
    return 0


def cmd_rescale(args: argparse.Namespace) -> int:
    _resolve_seed(args)
    lo, hi = _parse_range(args.range)
    with _InputDigests([args.lexicon]) as hashes:
        lex = _stage("load-lexicon", load_lexicon, args.lexicon)
        rescaled = _stage("rescale", rescale_log_minmax, lex, lo, hi)
        _write_output(hashes, args, args.out,
                      lambda path: save_lexicon(rescaled, path),
                      {"lexicon": rescaled.provenance})
    print(f"wrote rescaled lexicon to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="seed for all randomness (recorded if omitted)")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="document corpus file")
    parser.add_argument("--text-column", default="text")
    parser.add_argument("--id-column", default=None)
    parser.add_argument("--delimiter", type=_DELIMITER, default=None,
                        help="override the extension-inferred delimiter")
    parser.add_argument("--min-df", type=_int_at_least(1), default=1,
                        help="minimum document frequency for vocabulary words")
    parser.add_argument("--construct", default=None)
    parser.add_argument("--constructs", default=None,
                        help="comma-separated construct column names")


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ridge-lambda", "--lambda", dest="ridge_lambda",
                        type=_NONNEGATIVE, default=1.0)
    parser.add_argument("--median-ties", choices=("high", "low"), default="high")
    parser.add_argument("--embeddings", default=None, help="word-vector file")
    parser.add_argument("--hidden", type=_HIDDEN, default="256,128",
                        help="comma-separated hidden layer sizes")
    parser.add_argument("--lr", type=_POSITIVE, default=1e-3)
    parser.add_argument("--batch-size", type=_int_at_least(1), default=32)
    parser.add_argument("--epochs", type=_int_at_least(1), default=200)
    parser.add_argument("--patience", type=_int_at_least(1), default=20)
    parser.add_argument("--dropout-input", type=_DROPOUT, default=0.2)
    parser.add_argument("--dropout-hidden", type=_DROPOUT, default=0.5)
    parser.add_argument("--l2", type=_NONNEGATIVE, default=0.001)
    parser.add_argument("--val-fraction", type=_FRACTION, default=0.1)
    parser.add_argument("--monitor", choices=("mse", "pearson"), default="mse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexlearn",
        description="Learn, evaluate, rescale, and cluster word-rating lexica "
                    "from document-labeled corpora.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="learn a lexicon from a labeled corpus")
    _add_common(p)
    _add_corpus_flags(p)
    _add_method_flags(p)
    p.add_argument("--method", required=True, choices=sorted(METHOD_FLAGS))
    p.add_argument("--rescale", default=None, metavar="LO:HI",
                   help="log min-max rescale each construct into [LO, HI]")
    p.add_argument("--joint", action="store_true",
                   help="train one multi-output net instead of one per construct")
    p.add_argument("--rate-all-embedded", action="store_true",
                   help="rate the full embedding vocabulary, not just corpus words")
    p.add_argument("--include-oov", action="store_true",
                   help="also rate corpus words without embeddings (zero-vector input)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_induce)

    pe = sub.add_parser("eval", help="evaluate lexicon learning")
    esub = pe.add_subparsers(dest="eval_mode", required=True)

    p = esub.add_parser("intrinsic", help="cross-validated correlation vs gold words")
    _add_common(p)
    _add_corpus_flags(p)
    _add_method_flags(p)
    p.add_argument("--gold", required=True, help="gold word-rating file")
    p.add_argument("--word-column", default="word")
    p.add_argument("--methods", default="all",
                   help="'all' or a comma-separated subset of "
                        + ",".join(sorted(METHOD_FLAGS)))
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument("--out", default=None, help="optional report TSV")
    p.set_defaults(func=cmd_eval_intrinsic)

    p = esub.add_parser("extrinsic", help="user-level trait correlation")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--construct", required=True)
    p.add_argument("--users", required=True,
                   help="user_id,text rows or user_id,word,count rows")
    p.add_argument("--traits", required=True, help="user_id + trait columns")
    p.add_argument("--trait-column", required=True)
    p.add_argument("--delimiter", type=_DELIMITER, default=None)
    p.add_argument("--out", default=None, help="optional per-user score TSV")
    p.set_defaults(func=cmd_eval_extrinsic)

    p = sub.add_parser("cluster", help="signed spectral clustering of a lexicon")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--construct", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=_int_at_least(2), default=50)
    p.add_argument("--knn", type=_int_at_least(1), default=20)
    p.add_argument("--rho", type=_POSITIVE, default=None,
                   help="rating gap where edge signs flip "
                        "(default: half the rating range)")
    p.add_argument("--normalized", action="store_true",
                   help="use the symmetric-normalized signed Laplacian")
    p.add_argument("--no-clip", action="store_true",
                   help="keep negative cosine similarities instead of clipping at 0")
    p.add_argument("--top", type=_int_at_least(1), default=10,
                   help="words shown per pole in the terminal preview")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("describe", help="per-construct stats for a lexicon file")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--plot-data", default=None,
                   help="write the 20-bin histogram counts to this TSV")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("rescale", help="log min-max rescale a lexicon file")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--range", required=True, metavar="LO:HI")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rescale)

    return parser


def _read_config_file(path: str) -> list[str]:
    extra: list[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageFailure(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageFailure(f"config line without '=': {line!r}")
        key, value = raw.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip() or value  # a whitespace-only value is kept as is
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                extra.append(flag)
        else:
            extra.extend([flag, value])
    return extra


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config key=value defaults ahead of the explicit flags.

    Config-supplied values come first, so flags on the command line override
    them (later occurrences win for argparse store actions).
    """
    config_path = None
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                raise _UsageFailure("--config needs a file path")
            config_path = argv[i + 1]
            break
        if arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
            break
    if config_path is None:
        return argv
    extra = _read_config_file(config_path)
    # insert right after the subcommand words (before the first flag)
    first_flag = next(
        (i for i, a in enumerate(argv) if a.startswith("-")), len(argv)
    )
    return argv[:first_flag] + extra + argv[first_flag:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _inject_config(list(argv))
    except _UsageFailure as exc:
        print(f"lexlearn: usage: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = getattr(args, "command", "?")

    def show_warning(message, category, filename, lineno, file=None, line=None):
        print(f"lexlearn {command}: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except _UsageFailure as exc:
            print(f"lexlearn {command}: usage: {exc}", file=sys.stderr)
            return 2
        except _StageFailure as exc:
            print(f"lexlearn {command}: stage '{exc.stage}': {exc}", file=sys.stderr)
            return 1
        except LexlearnError as exc:
            print(f"lexlearn {command}: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"lexlearn {command}: file error: {exc}", file=sys.stderr)
            return 1


def entry() -> None:
    sys.exit(main())
