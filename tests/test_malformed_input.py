"""Property test: a document that breaks the complex schema exits 2 with one
line on stderr and no traceback, whatever subcommand reads it.

The schema (``formats.complex_from_dict``): a JSON object with integers
``n`` and ``num_vertices``, ``simplices`` a nonempty list of lists of n + 1
distinct vertex ids in range, and optionally ``colors``, one integer per
vertex, and ``orientation``, one +1 or -1 per simplex.  JSON booleans are
not integers.  Each document below breaks exactly one of these rules, or is
not a JSON object at all, or is cut short.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecover.cli import main

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
BASE = json.loads((CORPUS_DIR / "octahedron.json").read_text())
MODES = ("validate", "subdivide", "verify", "cover", "homology")

# JSON values that are not integers; floats include whole ones such as 1.0
NOT_INT = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(-2, 6), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NOT_LIST = st.one_of(st.booleans(), st.none(), st.integers(), st.text(max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
NOT_SIGN = st.one_of(NOT_INT, st.integers().filter(lambda x: x not in (1, -1)))


def _copy():
    return json.loads(json.dumps(BASE))


@st.composite
def bad_entry(draw, key, value):
    """One entry of ``colors`` or ``orientation`` replaced."""
    doc = _copy()
    doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(value)
    return doc


@st.composite
def wrong_length(draw, key):
    """``colors`` or ``orientation`` one entry short or one too long."""
    doc = _copy()
    if draw(st.booleans()):
        doc[key].pop(draw(st.integers(0, len(doc[key]) - 1)))
    else:
        doc[key].append(doc[key][0])
    return doc


@st.composite
def bad_simplices(draw):
    doc = _copy()
    simplices = doc["simplices"]
    t = draw(st.integers(0, len(simplices) - 1))
    how = draw(st.sampled_from(["vertex", "simplex", "list", "short", "long",
                                "range", "empty"]))
    if how == "vertex":  # a vertex that is not an integer, nested lists too
        simplices[t][draw(st.integers(0, 2))] = draw(NOT_INT)
    elif how == "simplex":
        simplices[t] = draw(NOT_LIST)
    elif how == "list":
        doc["simplices"] = draw(NOT_LIST)
    elif how == "short":
        simplices[t].pop()
    elif how == "long":
        simplices[t].append(draw(st.integers(0, 5)))
    elif how == "range":
        simplices[t][0] = draw(st.one_of(st.integers(max_value=-1),
                                         st.integers(min_value=6)))
    else:
        doc["simplices"] = []
    return doc


@st.composite
def bad_scalar(draw):
    doc = _copy()
    doc[draw(st.sampled_from(["n", "num_vertices"]))] = draw(NOT_INT)
    return doc


@st.composite
def missing_key(draw):
    doc = _copy()
    del doc[draw(st.sampled_from(["n", "num_vertices", "simplices"]))]
    return doc


@st.composite
def truncated(draw):
    """A prefix of the document text that stops before its closing brace."""
    text = json.dumps(BASE)
    return text[:draw(st.integers(0, len(text) - 1))]


DOCUMENTS = st.one_of(
    st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
              st.text(max_size=5), st.none(), st.booleans()).map(json.dumps),
    missing_key().map(json.dumps),
    bad_scalar().map(json.dumps),
    bad_simplices().map(json.dumps),
    bad_entry("colors", NOT_INT).map(json.dumps),
    bad_entry("orientation", NOT_SIGN).map(json.dumps),
    wrong_length("colors").map(json.dumps),
    wrong_length("orientation").map(json.dumps),
    truncated(),
)


@settings(max_examples=60, deadline=None)
@given(text=DOCUMENTS)
def test_malformed_documents_exit_2_with_one_line(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.json"
        path.write_text(text, encoding="utf-8")
        for mode in MODES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([mode, "--input", str(path),
                             "--out", str(Path(work) / f"{mode}.json")])
            lines = stderr.getvalue().splitlines()
            assert (code, stdout.getvalue()) == (2, ""), (mode, text)
            assert len(lines) == 1 and lines[0].startswith("error: "), (mode, lines)
            assert "Traceback" not in stderr.getvalue()
