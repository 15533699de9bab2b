"""Command-line pipeline: induce, eval, cluster, describe, rescale.

Every run writes a JSON provenance sidecar (``<output>.prov``) next to each
output file: the full flag echo, tool version, seed, and sha256 fingerprints
of the inputs, enough to re-run the command bit-identically.  Exit codes are
stable for scripting: 0 success, 1 data or numerical failure, 2 usage
failure.  Diagnostics name the failing stage on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import cluster, format_preview, save_clusters
from .corpus import load_corpus, load_gold_lexicon
from .embeddings import load_embeddings
from .errors import LexlearnError
from .evaluation import (
    EVAL_TSV_HEADER,
    eval_extrinsic,
    eval_intrinsic,
    load_user_corpora,
    report_tsv_row,
)
from .induction import (
    Lexicon,
    MethodSpec,
    fit_mean_binary,
    fit_mean_star,
    fit_mlffn,
    fit_regression_weights,
    load_lexicon,
    rescale_log_minmax,
    save_lexicon,
)
from .neural import NetConfig
from .numerics import pearson

METHOD_FLAGS = {
    "mean-star": "mean_star",
    "mean-binary": "mean_binary",
    "regression-weights": "regression_weights",
    "mlffn": "mlffn",
}


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


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_provenance(out_path: str, command: str, args: argparse.Namespace,
                      seed: int, inputs: list[str], notes: dict | None = None) -> None:
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    record = {
        "tool": "lexlearn",
        "version": __version__,
        "command": command,
        "flags": flags,
        "seed": seed,
        "inputs": {str(p): _file_sha256(p) for p in inputs},
        "notes": notes or {},
    }
    with open(out_path + ".prov", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


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
    if not lo < hi:
        raise _UsageFailure(f"rescale range needs lo < hi, got {text!r}")
    return lo, hi


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise _UsageFailure(f"bad --hidden value {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise _UsageFailure(f"bad --hidden value {text!r}")
    return sizes


def _checked(kind, ok, expected: str):
    """argparse ``type=``: parse with ``kind`` and require ``ok(value)``, so a
    bad value exits 2 at parse time, also when it comes from ``--config``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


# the ranges mirror the library's own checks (NetConfig, ridge_fit,
# eval_intrinsic, build_signed_graph, cluster); --min-df and --top count from 1
_DROPOUT = _checked(float, lambda v: 0 <= v < 1, "a rate in [0, 1)")
_FRACTION = _checked(float, lambda v: 0 < v < 1, "a fraction in (0, 1)")
_NONNEGATIVE = _checked(float, lambda v: v >= 0, "a number >= 0")


def _net_config(args: argparse.Namespace, input_dim: int, output_dim: int) -> NetConfig:
    return NetConfig(
        input_dim=input_dim,
        output_dim=output_dim,
        hidden_sizes=_parse_hidden(args.hidden),
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


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def _constructs_from_args(args: argparse.Namespace) -> list[str]:
    if args.constructs:
        names = [c.strip() for c in args.constructs.split(",") if c.strip()]
    elif args.construct:
        names = [args.construct]
    else:
        raise _UsageFailure("one of --construct or --constructs is required")
    if not names:
        raise _UsageFailure("no construct names given")
    return names


def _merge_lexica(parts: list[Lexicon]) -> Lexicon:
    constructs = tuple(c for lex in parts for c in lex.constructs)
    words = set(parts[0].entries)
    for lex in parts[1:]:
        words &= set(lex.entries)
    entries = {
        w: np.concatenate([lex.entries[w] for lex in parts]) for w in sorted(words)
    }
    prov = {"per_construct": [lex.provenance for lex in parts]}
    return Lexicon(constructs, entries, prov)


def cmd_induce(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    constructs = _constructs_from_args(args)
    method = METHOD_FLAGS[args.method]
    if method == "mlffn" and not args.embeddings:
        raise _UsageFailure("--embeddings is required for --method mlffn")
    corpus = _stage(
        "load-corpus",
        load_corpus,
        args.corpus,
        args.text_column,
        constructs,
        id_column=args.id_column,
        delimiter=args.delimiter,
        min_df=args.min_df,
    )
    inputs = [args.corpus]
    parts = []
    if method == "mlffn":
        table = _stage("load-embeddings", load_embeddings, args.embeddings)
        inputs.append(args.embeddings)
        # one net for all constructs, or one per construct seeded seed + i
        groups = [constructs] if args.joint else [[c] for c in constructs]
        for i, group in enumerate(groups):
            config = _net_config(args, table.dim, len(group))
            config.seed = seed + i
            part, _ = _stage(
                "fit",
                fit_mlffn,
                corpus,
                group,
                table,
                config,
                rate_all_embedded=args.rate_all_embedded,
                include_oov_words=args.include_oov,
            )
            parts.append(part)
    else:
        for construct in constructs:
            if method == "mean_star":
                part = _stage("fit", fit_mean_star, corpus, construct)
            elif method == "mean_binary":
                part = _stage("fit", fit_mean_binary, corpus, construct,
                              args.median_ties)
            else:
                part = _stage("fit", fit_regression_weights, corpus, construct,
                              args.ridge_lambda)
            parts.append(part)
    lex = parts[0] if len(parts) == 1 else _merge_lexica(parts)
    if args.rescale:
        lo, hi = _parse_range(args.rescale)
        lex = _stage("rescale", rescale_log_minmax, lex, lo, hi)
    notes = {"method": method, "constructs": constructs, "lexicon": lex.provenance}
    _stage("write-output", save_lexicon, lex, args.out, provenance=False)
    _write_provenance(args.out, "induce", args, seed, inputs, notes)
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
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        unknown = [m for m in methods if m not in METHOD_FLAGS]
        if unknown:
            raise _UsageFailure(
                f"unknown method(s) {unknown}; choose from {list(METHOD_FLAGS)}"
            )
    constructs = _constructs_from_args(args)
    corpus = _stage(
        "load-corpus",
        load_corpus,
        args.corpus,
        args.text_column,
        constructs,
        id_column=args.id_column,
        delimiter=args.delimiter,
        min_df=args.min_df,
    )
    gold = _stage(
        "load-gold",
        load_gold_lexicon,
        args.gold,
        args.word_column,
        constructs,
        delimiter=args.delimiter,
    )
    inputs = [args.corpus, args.gold]
    table = None
    if any(METHOD_FLAGS[m] == "mlffn" for m in methods):
        if not args.embeddings:
            raise _UsageFailure("--embeddings is required to evaluate mlffn")
        table = _stage("load-embeddings", load_embeddings, args.embeddings)
        inputs.append(args.embeddings)
    reports = []
    for flag in methods:
        kind = METHOD_FLAGS[flag]
        for construct in constructs:
            if kind == "mlffn":
                spec = MethodSpec(
                    kind,
                    table=table,
                    net=_net_config(args, table.dim, 1),
                )
            else:
                spec = MethodSpec(
                    kind, ridge_lambda=args.ridge_lambda, median_ties=args.median_ties
                )
            report = _stage(
                "eval",
                eval_intrinsic,
                corpus,
                gold,
                spec,
                construct,
                folds=args.folds,
                seed=seed,
            )
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
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(EVAL_TSV_HEADER + "\n")
            for report in reports:
                handle.write(report_tsv_row(report) + "\n")
        _write_provenance(args.out, "eval-intrinsic", args, seed, inputs, {})
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
    seed = _resolve_seed(args)
    lex = _stage("load-lexicon", load_lexicon, args.lexicon)
    users = _stage(
        "load-users",
        load_user_corpora,
        args.users,
        args.traits,
        args.trait_column,
        delimiter=args.delimiter,
    )
    r, scores = _stage("eval", eval_extrinsic, lex, args.construct, users)
    print(f"extrinsic construct={args.construct} users={len(scores)} r={r:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("user_id\tscore\n")
            for uid in sorted(scores):
                handle.write(f"{uid}\t{scores[uid]!r}\n")
            handle.write(f"# pearson_r\t{r!r}\n")
        _write_provenance(
            args.out, "eval-extrinsic", args, seed,
            [args.lexicon, args.users, args.traits], {"r": r},
        )
        print(f"wrote scores to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def cmd_cluster(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    lex = _stage("load-lexicon", load_lexicon, args.lexicon)
    table = _stage("load-embeddings", load_embeddings, args.embeddings)
    usable = np.count_nonzero(np.linalg.norm(table.matrix(list(lex.entries)), axis=1))
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
    _stage("write-output", save_clusters, result, args.out)
    _write_provenance(
        args.out, "cluster", args, seed, [args.lexicon, args.embeddings],
        result.provenance,
    )
    print(format_preview(result, args.top))
    if result.dropped_words:
        print(f"dropped {len(result.dropped_words)} word(s) with zero embeddings")
    print(f"wrote {result.k} clusters to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# describe / rescale
# ---------------------------------------------------------------------------


def _histogram_lines(values: np.ndarray, bins: int = 20, width: int = 40) -> list[str]:
    counts, edges = np.histogram(values, bins=bins)
    peak = max(int(counts.max()), 1)
    lines = []
    for b in range(bins):
        bar = "#" * max(1 if counts[b] else 0, round(width * counts[b] / peak))
        lines.append(f"  [{edges[b]:9.4f}, {edges[b + 1]:9.4f}) {bar} {counts[b]}")
    return lines


def cmd_describe(args: argparse.Namespace) -> int:
    lex = _stage("load-lexicon", load_lexicon, args.lexicon)
    plot_rows = []
    for construct in lex.constructs:
        values = lex.values(construct)
        print(f"construct: {construct}")
        print(
            f"  count: {len(values)}  min: {values.min():.4f}  "
            f"max: {values.max():.4f}  mean: {values.mean():.4f}  "
            f"sd: {values.std(ddof=1) if len(values) > 1 else float('nan'):.4f}"
        )
        print("  histogram (20 bins):")
        for line in _histogram_lines(values):
            print(line)
        counts, edges = np.histogram(values, bins=20)
        for b in range(20):
            plot_rows.append(
                f"{construct}\t{b}\t{float(edges[b])!r}\t{float(edges[b + 1])!r}"
                f"\t{int(counts[b])}"
            )
    if len(lex.constructs) > 1:
        print("pairwise pearson:")
        names = lex.constructs
        width = max(len(n) for n in names) + 2
        print(" " * width + "".join(n.rjust(width) for n in names))
        for a in names:
            row = [a.ljust(width)]
            for b in names:
                r = 1.0 if a == b else pearson(lex.values(a), lex.values(b))
                row.append(f"{r:.3f}".rjust(width))
            print("".join(row))
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("construct\tbin\tlo\thi\tcount\n")
            for row in plot_rows:
                handle.write(row + "\n")
        _write_provenance(args.plot_data, "describe", args, args.seed or 0,
                          [args.lexicon], {})
        print(f"wrote histogram bins to {args.plot_data}")
    return 0


def cmd_rescale(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    lo, hi = _parse_range(args.range)
    lex = _stage("load-lexicon", load_lexicon, args.lexicon)
    rescaled = _stage("rescale", rescale_log_minmax, lex, lo, hi)
    _stage("write-output", save_lexicon, rescaled, args.out, provenance=False)
    _write_provenance(
        args.out, "rescale", args, seed, [args.lexicon],
        {"lexicon": rescaled.provenance},
    )
    print(f"wrote rescaled lexicon to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all randomness (recorded if omitted)")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="document corpus file")
    parser.add_argument("--text-column", default="text")
    parser.add_argument("--id-column", default=None)
    parser.add_argument("--delimiter", default=None,
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
    parser.add_argument("--hidden", default="256,128",
                        help="comma-separated hidden layer sizes")
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--batch-size", type=_int_at_least(1), default=32)
    parser.add_argument("--epochs", type=_int_at_least(1), default=200)
    parser.add_argument("--patience", type=_int_at_least(1), default=20)
    parser.add_argument("--dropout-input", type=_DROPOUT, default=0.2)
    parser.add_argument("--dropout-hidden", type=_DROPOUT, default=0.5)
    parser.add_argument("--l2", type=float, default=0.001)
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
    p.add_argument("--delimiter", default=None)
    p.add_argument("--out", default=None, help="optional per-user score TSV")
    p.set_defaults(func=cmd_eval_extrinsic)

    p = sub.add_parser("cluster", help="signed spectral clustering of a lexicon")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--construct", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=_int_at_least(2), default=50)
    p.add_argument("--knn", type=_int_at_least(1), default=20)
    p.add_argument("--rho", type=float, default=None,
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
    except OSError as exc:
        raise _UsageFailure(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageFailure(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
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
