"""Property test: the certificate does not depend on vertex labels, on the
vertex order inside a simplex or on the order of the simplex list.  The
suspended octahedron is the one input whose tuple orbit has coupled slots
(``tests/test_tuple_codes.py``), so its orbit is numbered against codes
that are not the product of the slot closures."""

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extra_api import pinched_torus, suspension, torus7
from cyclecover import corpus, formats
from cyclecover.ledger import verify_pipeline
from cyclecover.covering import DEFAULT_MAX_CELLS

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _join_c4_c6() -> dict:
    """The join of a 4-cycle colored 1, 2 and a 6-cycle colored 3, 4: a
    colored 3-sphere with 24 tetrahedra."""
    simplices = [[i, (i + 1) % 4, 4 + j, 4 + (j + 1) % 6]
                 for i in range(4) for j in range(6)]
    colors = [1 + i % 2 for i in range(4)] + [3 + j % 2 for j in range(6)]
    return {"n": 3, "num_vertices": 10, "simplices": simplices,
            "colors": colors}


def _document(name: str) -> dict:
    """A corpus document without its orientation, which is indexed by the
    sorted simplex list and so does not survive a relabelling."""
    if name == "join_c4_c6":
        return _join_c4_c6()
    if name == "torus7":
        return formats.complex_to_dict(torus7())
    if name == "pinched_torus":
        return formats.complex_to_dict(pinched_torus())
    if name == "suspended_octahedron":
        return formats.complex_to_dict(suspension(corpus.octahedron()[0]))
    doc = json.loads((CORPUS_DIR / name).read_text())
    doc.pop("orientation", None)
    return doc


def _outcome(doc: dict):
    claims, report = verify_pipeline(*formats.complex_from_dict(doc),
                                     DEFAULT_MAX_CELLS)
    return ([(e["claim"], e["status"]) for e in claims.entries],
            {key: report.get(key) for key in (
                "involution_counts", "q_formula", "component_cells",
                "covering_degree", "q_component")})


@lru_cache(maxsize=None)
def _expected(name: str):
    return _outcome(_document(name))


@pytest.mark.parametrize("name", ["hexagon.json", "octahedron.json",
                                  "boundary_delta3.json", "join_c4_c6",
                                  "torus7", "pinched_torus",
                                  "suspended_octahedron"])
@settings(max_examples=3, deadline=None)  # 21 examples over the 7 inputs
@given(data=st.data())
def test_report_is_invariant_under_relabelling(name, data):
    doc = _document(name)
    label = data.draw(st.permutations(range(doc["num_vertices"])), "label")
    rng = data.draw(st.randoms(use_true_random=False), "rng")
    simplices = []
    for s in doc["simplices"]:
        s = [label[v] for v in s]
        rng.shuffle(s)
        simplices.append(s)
    rng.shuffle(simplices)
    scrambled = {"n": doc["n"], "num_vertices": doc["num_vertices"],
                 "simplices": simplices}
    if "colors" in doc:
        scrambled["colors"] = [0] * doc["num_vertices"]
        for v, c in enumerate(doc["colors"]):
            scrambled["colors"][label[v]] = c
    assert _outcome(scrambled) == _expected(name)
