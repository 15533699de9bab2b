"""Property test of the lexicon round trip through the CLI.

Hypothesis draws lexicon files: header constructs and row words may repeat,
and rating cells include extreme floats, ``nan`` and junk text.  ``describe``
and ``rescale`` must end each one with exit 0, 1 or 2, never an exception;
an exit 1 names the failing stage; and every lexicon ``rescale`` writes must
load back, carry a ``.prov`` sidecar and pass ``describe``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from lexlearn.cli import main  # noqa: E402
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
