"""Property tests of the CLI on drawn word-rating tables.

Hypothesis draws lexicon files: header constructs and row words may repeat,
and rating cells include extreme floats, ``nan`` and junk text.  ``describe``
and ``rescale`` must end each one with exit 0, 1 or 2, never an exception;
an exit 1 names the failing stage; and every lexicon ``rescale`` writes must
load back, carry a ``.prov`` sidecar and pass ``describe``.

It also draws gold tables for ``eval intrinsic`` on one fixed corpus: words
repeat and change case, cells are drawn as above, and the word or rating
column may be missing.  Each run ends with exit 0, 1 or 2 and no traceback,
and an exit-0 report has its header and one row per method.

Users and traits tables for ``eval extrinsic`` are drawn in either users
layout, with counts that are fractional, non-positive, past the float range
or not numbers; each run ends the same clean way.  Drawn Unicode text
tokenizes the same through the loaders' memo as through ``tokenize``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lexlearn.cli import main  # noqa: E402
from lexlearn.corpus import _strip_edges, _TokenForms, tokenize  # noqa: E402
from lexlearn.evaluation import EVAL_TSV_HEADER  # noqa: E402
from lexlearn.induction import load_lexicon  # noqa: E402

CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.sampled_from(["-1.7e308", "1.7e308", "5e-324", "-0.0", "1e309", "nan",
                     "inf", " 2", "", "x", "1,5"]),
)


@st.composite
def lexicon_files(draw):
    constructs = draw(st.lists(st.sampled_from(["V", "A", "D", "valence"]),
                               min_size=1, max_size=3))
    words = draw(st.lists(st.text("abé ", max_size=3), min_size=1, max_size=10))
    # a column draws its cells from CELLS, or repeats one cell (a constant)
    columns = [draw(st.one_of(st.just(CELLS), CELLS.map(st.just))) for _ in constructs]
    lines = ["\t".join(["word", *constructs])]
    lines += ["\t".join([w, *map(draw, columns)]) for w in words]
    return "\n".join(lines) + "\n"


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc in (0, 1, 2), rc
    assert "Traceback" not in err.getvalue(), err.getvalue()
    if rc == 1:
        assert "stage '" in err.getvalue(), err.getvalue()
    return rc


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(lexicon_files())
def test_describe_and_rescale_end_cleanly_and_round_trip(text):
    with tempfile.TemporaryDirectory() as tmp:
        lex, out = Path(tmp) / "lex.tsv", Path(tmp) / "out.tsv"
        lex.write_text(text, encoding="utf-8")
        run("describe", "--lexicon", str(lex))
        if run("rescale", "--lexicon", str(lex), "--range", "1:7",
               "--seed", "0", "--out", str(out)) == 0:
            assert len(load_lexicon(out))
            assert Path(str(out) + ".prov").is_file()
            assert run("describe", "--lexicon", str(out)) == 0


# 60 documents over 40 words: each label is the mean of its words' indices
# plus an offset of d % 5
GOLD_WORDS = [f"w{i:02d}" for i in range(40)]
CORPUS = "text\taff\n" + "".join(
    f"{' '.join(GOLD_WORDS[(7 * d + 3 * k * k) % 40] for k in range(6))}\t"
    f"{sum((7 * d + 3 * k * k) % 40 for k in range(6)) / 6 + d % 5}\n"
    for d in range(60)
)
METHODS = ["mean-star", "mean-binary", "regression-weights"]
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def gold_files(draw):
    header = draw(st.one_of(
        st.just(["word", "aff"]),
        st.lists(st.sampled_from(["word", "aff", "Word", "other"]),
                 min_size=1, max_size=4),
    ))
    size = draw(st.one_of(st.just(40), st.integers(0, 40)))
    words = draw(st.permutations(GOLD_WORDS))[:size]
    words += draw(st.lists(st.sampled_from(GOLD_WORDS + ["", "zz", "é"]), max_size=5))
    cases = st.sampled_from([str.lower, str.upper, str.title])
    # a column draws finite floats (most often), cells from CELLS, or one
    # repeated cell
    column = st.one_of(st.sampled_from([FINITE, FINITE, CELLS]), CELLS.map(st.just))
    columns = {name: draw(column) for name in header}
    lines = ["\t".join(header)]
    for w in words:
        w = draw(cases)(w)
        lines.append("\t".join(w if name == "word" else draw(columns[name])
                               for name in header))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(gold_files())
def test_eval_intrinsic_ends_cleanly_on_any_gold_table(text):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, gold, out = (Path(tmp) / name for name in
                             ("corpus.tsv", "gold.tsv", "report.tsv"))
        corpus.write_text(CORPUS, encoding="utf-8")
        gold.write_text(text, encoding="utf-8")
        if run("eval", "intrinsic", "--corpus", str(corpus), "--gold", str(gold),
               "--construct", "aff", "--methods", ",".join(METHODS), "--folds", "3",
               "--seed", "0", "--out", str(out)) == 0:
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines[0] == EVAL_TSV_HEADER
            assert [line.split("\t")[0] for line in lines[1:]] == [
                m.replace("-", "_") for m in METHODS]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text(), st.text())
def test_memoized_tokens_equal_tokenize(text, more):
    # one memo across two texts, as a loader shares it across rows; the
    # reference strips every token, with no isalnum() shortcut
    forms = _TokenForms()
    for t in (text, more, text):
        want = [_strip_edges(raw) or raw for raw in t.lower().split()]
        assert list(map(forms.__getitem__, t.lower().split())) == want
        assert tokenize(t) == want


USER_WORDS = ["great", "meh", "awful", "Great!", "!!", "zzz", "é"]
USERS = ["u1", "u2", "u3", "u4"]


def with_one_bad(draw, cells, bad):
    """The cells, one of them replaced by a drawn bad cell half the time."""
    if cells and draw(st.booleans()):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(bad))
    return cells


@st.composite
def users_files(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(USERS), st.sampled_from(USER_WORDS)),
                         min_size=4, max_size=16))
    counts = with_one_bad(
        draw, draw(st.lists(st.sampled_from(["1", "3", "2.5", "2", "1e308"]),
                            min_size=len(rows), max_size=len(rows))),
        ["0", "-1", "0.5", "nan", "inf", "x", "", "9007199254740993"])
    if draw(st.booleans()):
        usage = ["user_id,word,count",
                 *(f"{uid},{word},{count}" for (uid, word), count in zip(rows, counts))]
    else:
        usage = ["user_id,text", *(f"{uid},{word} {word}" for uid, word in rows)]
    scored = draw(st.one_of(st.just(USERS),
                            st.lists(st.sampled_from(USERS), unique=True)))
    traits = with_one_bad(draw, [str(i - 1.5) for i in range(len(scored))],
                          ["nan", "x", ""])
    return ("\n".join(usage) + "\n",
            "\n".join(["user_id,t", *map(",".join, zip(scored, traits))]) + "\n")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(users_files())
# counts that sum past the float range once crashed the scoring
@example(("user_id,word,count\nu1,great,1e308\nu1,meh,1e308\nu2,meh,1\n"
          "u3,awful,1\n", "user_id,t\nu1,1\nu2,2\nu3,3\n"))
def test_eval_extrinsic_ends_cleanly_on_any_users_table(files):
    with tempfile.TemporaryDirectory() as tmp:
        lex, users, traits = (Path(tmp) / name for name in
                              ("lex.tsv", "users.csv", "traits.csv"))
        lex.write_text("word\taff\ngreat\t7\nmeh\t4\nawful\t1e308\n!!\t-2\n",
                       encoding="utf-8")
        users.write_text(files[0], encoding="utf-8")
        traits.write_text(files[1], encoding="utf-8")
        run("eval", "extrinsic", "--lexicon", str(lex), "--construct", "aff",
            "--users", str(users), "--traits", str(traits), "--trait-column", "t",
            "--seed", "0", "--out", str(Path(tmp) / "scores.tsv"))
