"""The face-id table against the dict-backed subdivision it replaced.

``face_ids`` numbers the faces of the barycentric subdivision once, as one
(top x face mask) table; the subdivision, the certificate's vertex table
and the closed-form subdivided cycle are all read from it.  Each is
compared here with ``dict_oracle``: the face tuples numbered through a
dict, the flags walked vertex order by vertex order, and the signs counted
inversion by inversion.
"""

import json
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dict_oracle
from extra_api import benchmark_inputs
from cyclecover import corpus, formats
from cyclecover.pseudomanifold import (
    ColoredPseudomanifold,
    barycentric_subdivide,
    face_ids,
)
from cyclecover.realization import subdivided_cycle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ["hexagon", "octahedron", "boundary_delta3", "boundary_delta4",
          "rp2_minimal"]


INPUTS = benchmark_inputs()
BENCHMARK = {"octahedron": INPUTS.octahedron, "delta3": INPUTS.boundary_delta3,
             "suspended10": lambda: INPUTS.suspended_cycle(5),
             "join4x10": lambda: INPUTS.cycle_join(2, 5)}
SOURCES = ([f"corpus {name}" for name in CORPUS]
           + [f"{stem} {seed}" for stem in BENCHMARK for seed in range(3)]
           + ["join C4*C6", "sd(boundary delta4)"])


@cache
def source(name):
    """(complex, coloring or None) of a named input."""
    kind, which = name.split(" ")
    if kind == "corpus":
        doc = json.loads((ROOT / "corpus" / f"{which}.json").read_text())
    elif kind in BENCHMARK:
        doc = json.loads(INPUTS.seeded_document(kind, BENCHMARK[kind](), int(which)))
    elif kind == "join":
        doc = INPUTS.cycle_join(2, 3)
    else:
        sd = barycentric_subdivide(corpus.boundary_delta(4))
        return sd.complex, sd.coloring
    c, coloring, _ = formats.complex_from_dict(doc)
    return c, coloring


@cache
def colored(name):
    """The regularly colored complex ``verify`` works on: the input, or its
    subdivision when it carries no coloring."""
    c, coloring = source(name)
    if coloring is None:
        sd = barycentric_subdivide(c)
        return sd.complex, sd.coloring
    return c, coloring


def faces_in_id_order(faces):
    return [tuple(f) for level in faces for f in level.tolist()]


@pytest.mark.parametrize("name", SOURCES)
def test_subdivision_matches_the_dict_oracle(name):
    c, _ = source(name)
    sd = barycentric_subdivide(c)
    want = dict_oracle.barycentric_subdivide(c)
    assert sd.complex.num_vertices == want.complex.num_vertices
    assert sd.complex.top_simplices == want.complex.top_simplices
    assert sd.coloring == want.coloring
    assert faces_in_id_order(sd.faces) == want.faces
    # every (top, vertex mask) entry names the face of that top's vertices
    for t, s in enumerate(c.top_simplices):
        for m in range(1, 1 << len(s)):
            face = tuple(v for j, v in enumerate(s) if m >> j & 1)
            assert sd.ids[t, m] == want.face_ids[face]
    # flags in (top, vertex order) order, as the oracle walks them
    flags = [flag for s in c.top_simplices
             for flag in dict_oracle._flags_of(s, want)]
    tops = sd.complex.top_simplices
    assert [tops[k] for k in sd.flag_top.ravel().tolist()] == \
        [tuple(sorted(flag)) for flag in flags]


@pytest.mark.parametrize("name", SOURCES)
def test_vertex_table_matches_face_of_colors(name):
    c, coloring = colored(name)
    oracle = dict_oracle.barycentric_subdivide(c)
    by_color = np.array(dict_oracle.by_color(
        SimpleNamespace(complex=c, coloring=coloring)))
    if name != "corpus rp2_minimal":  # not orientable: it has no bundle
        assert np.array_equal(ColoredPseudomanifold(c, coloring).by_color,
                              by_color)
    vertex, faces = face_ids(by_color)
    assert faces_in_id_order(faces) == oracle.faces
    for t, s in enumerate(c.top_simplices):
        for w in range(1, 1 << (c.n + 1)):
            face = dict_oracle.face_of_colors(s, w, coloring)
            assert vertex[t, w] == oracle.face_ids[face]


@pytest.mark.parametrize("name", [s for s in SOURCES
                                  if s != "corpus rp2_minimal"])
def test_closed_form_cycle_matches_the_flag_walk(name):
    bundle = ColoredPseudomanifold(*colored(name))
    sd, signs = subdivided_cycle(bundle)
    _, want = dict_oracle.subdivided_cycle(bundle)
    tops = sd.complex.top_simplices
    assert [tops[k] for k in sd.flag_top.ravel().tolist()] == list(want)
    assert signs.ravel().tolist() == list(want.values())
