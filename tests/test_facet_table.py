"""The facet table against the dict/BFS oracle in ``dict_oracle``.

Validation reports, orientations (or the failure to orient), coherence,
dual edges and the pushforward of the cover's fundamental cycle agree
exactly on the corpus, the Tomei manifolds n = 1..3, the triangulated
octahedron full cover, the sd(boundary of the tetrahedron) component and
the suspended 10-cycle component, and on corrupted complexes.  A vertex
pinched between two octahedra is the one surface failure that the surface
oracle reports.  ``lowest_labels_of_edges`` labels and signs random signed
graphs, each edge listed from both ends, as breadth-first search does.
"""

import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_oracle
from extra_api import dual_edges, suspended_cycle
from cyclecover import corpus, formats, pseudomanifold
from cyclecover.cells import triangulate
from cyclecover.covering import build_component, build_full
from cyclecover.errors import DegreeNotConstantError, NonOrientableError
from cyclecover.involutions import canonical_involution
from cyclecover.pseudomanifold import (
    AbstractComplex,
    ColoredPseudomanifold,
    barycentric_subdivide,
    colored_from_complex,
    facet_table,
    is_coherent_orientation,
    lowest_labels,
    lowest_labels_of_edges,
    orient,
    validate_pseudomanifold,
)
from cyclecover.realization import realization_map, verify_realization
from cyclecover.tomei import build_tomei

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def covers():
    octa = ColoredPseudomanifold(*corpus.octahedron())
    sd3, _ = colored_from_complex(corpus.boundary_delta(3))
    suspended, _ = colored_from_complex(suspended_cycle(5))
    return {"octahedron full": build_full(octa),
            "sd3 component": build_component(sd3),
            "suspended10 component": build_component(suspended)}


@pytest.fixture(scope="module")
def cover_maps():
    return {name: realization_map(cover) for name, cover in covers().items()}


def complexes(cover_maps):
    out = {path.stem: formats.load_complex(path)[0]
           for path in sorted(CORPUS_DIR.glob("*.json"))}
    out["sd rp2"] = barycentric_subdivide(corpus.rp2_minimal()).complex
    for n in (1, 2, 3):
        out[f"tomei {n}"] = triangulate(build_tomei(n)).complex
    for name, rmap in cover_maps.items():
        out[name] = rmap.tri.complex
    return out


def corrupted(cover_maps):
    """Complexes that fail validation in each way, and rp2."""
    tri = cover_maps["sd3 component"].tri.complex
    tops = [list(t) for t in tri.top_simplices]
    octa = corpus.octahedron()[0]
    shifted = [[v + 6 for v in t] for t in octa.top_simplices]
    return {
        "boundary facet": AbstractComplex(2, tri.num_vertices, tops[1:]),
        "overused facet": AbstractComplex(
            2, tri.num_vertices + 1, tops + [tops[0][:2] + [tri.num_vertices]]),
        "disconnected": AbstractComplex(
            2, 12, [list(t) for t in octa.top_simplices] + shifted),
        "two triangles": corpus.two_triangles(),
        "disjoint circles": corpus.disjoint_circles(),
        "rp2": corpus.rp2_minimal(),
    }


@pytest.fixture(scope="module")
def all_complexes(cover_maps):
    return {**complexes(cover_maps), **corrupted(cover_maps)}


def oriented(orient_fn, c):
    try:
        return orient_fn(c)
    except (NonOrientableError, ValueError) as e:
        return type(e)


def test_inputs_cover_every_failure(all_complexes):
    reports = {name: validate_pseudomanifold(c) for name, c in all_complexes.items()}
    assert reports["boundary facet"].boundary_faces
    assert reports["overused facet"].overused_faces
    assert not reports["disconnected"].connected
    assert reports["rp2"].ok
    assert oriented(orient, all_complexes["rp2"]) is NonOrientableError
    assert all(reports[name].ok for name in ("sd3 component",
                                             "suspended10 component", "tomei 3"))
    # the full cover set is closed with 64 components
    full = reports["octahedron full"]
    assert not full.boundary_faces and not full.overused_faces and not full.connected


def test_validation_equals_oracle(all_complexes):
    for name, c in all_complexes.items():
        assert validate_pseudomanifold(c) == dict_oracle.validate_pseudomanifold(c), name


def test_validation_and_orientation_share_one_labelling(monkeypatch):
    calls = Counter()
    labels = pseudomanifold.lowest_labels
    validate = pseudomanifold._validate

    def count(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pseudomanifold, "lowest_labels", count("labels", labels))
    monkeypatch.setattr(pseudomanifold, "_validate", count("validate", validate))
    c, coloring = corpus.octahedron()
    report = validate_pseudomanifold(c)
    assert report.ok
    signs = orient(c)
    assert validate_pseudomanifold(c) is report
    bundle = ColoredPseudomanifold(c, coloring)
    assert bundle.orientation == signs
    assert calls == {"labels": 1, "validate": 1}


def test_dual_edges_equal_oracle(all_complexes):
    # the dual graph read off the facet table's neighbors
    for name, c in all_complexes.items():
        assert dual_edges(c) == dict_oracle.dual_edges(c), name


def test_orientation_equals_oracle(all_complexes):
    for name, c in all_complexes.items():
        signs = oriented(orient, c)
        assert signs == oriented(dict_oracle.orient, c), name
        if isinstance(signs, list):
            assert is_coherent_orientation(c, signs)
            assert dict_oracle.is_coherent_orientation(c, signs)


def test_coherence_equals_oracle(all_complexes):
    for name, c in all_complexes.items():
        count = len(c.top_simplices)
        trials = [[1] * count, [(-1) ** i for i in range(count)]]
        signs = oriented(orient, c)
        if isinstance(signs, list):
            trials += [signs, [-s for s in signs], [-signs[0]] + signs[1:]]
        for trial in trials:
            assert (is_coherent_orientation(c, trial)
                    == dict_oracle.is_coherent_orientation(c, trial)), name


def test_neighbor_across_equals_oracle():
    # the canonical involution of a size-n color set reads the facet table
    # across the facet that drops the vertex of the missing color
    for cp in (ColoredPseudomanifold(*corpus.octahedron()),
               colored_from_complex(corpus.boundary_delta(3))[0],
               colored_from_complex(suspended_cycle(5))[0]):
        full = (1 << (cp.n + 1)) - 1
        for color in range(cp.n + 1):
            facet_colors = full ^ (1 << color)
            assert canonical_involution(cp, facet_colors) == tuple(
                dict_oracle.neighbor_across(cp, i, facet_colors)
                for i in range(cp.top_count))


@pytest.mark.parametrize("name", ["octahedron full", "sd3 component",
                                  "suspended10 component"])
def test_pushforward_equals_oracle(cover_maps, name):
    rmap = cover_maps[name]
    # degree, component degrees, orientation, flag counts and image_counts
    assert verify_realization(rmap) == dict_oracle.verify_realization(rmap)


def test_corrupted_pushforward_fails_like_oracle():
    cover = build_component(ColoredPseudomanifold(*corpus.hexagon_cycle()))
    rmap = realization_map(cover)
    a = rmap.classes.codim_start[1]
    other = next(i for i in range(a, len(rmap.vertex_images))
                 if rmap.vertex_images[i] != rmap.vertex_images[a])
    rmap.vertex_images[a] = rmap.vertex_images[other]
    with pytest.raises(DegreeNotConstantError) as got:
        verify_realization(rmap)
    with pytest.raises(DegreeNotConstantError) as want:
        dict_oracle.verify_realization(rmap)
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness


@pytest.mark.parametrize("corrupt", ["all zero", "first flipped", "last flipped"])
def test_bad_orientation_fails_like_oracle(cover_maps, corrupt):
    # on the 64-component full cover: zero signs cancel everywhere, one
    # flipped sign on a nondegenerate flag breaks the coefficient in its
    # own component only
    rmap = cover_maps["octahedron full"]
    signs = orient(rmap.tri.complex)
    if corrupt == "all zero":
        signs = [0] * len(signs)
    else:
        live = [t for t, top in enumerate(rmap.tri.complex.top_simplices)
                if len({rmap.vertex_images[v] for v in top}) == len(top)]
        t = live[0] if corrupt == "first flipped" else live[-1]
        signs[t] = -signs[t]
    with pytest.raises(DegreeNotConstantError) as got:
        verify_realization(rmap, signs)
    with pytest.raises(DegreeNotConstantError) as want:
        dict_oracle.verify_realization(rmap, signs)
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness


def test_rp2_witness_is_an_incoherent_facet():
    c = corpus.rp2_minimal()
    with pytest.raises(NonOrientableError) as err:
        orient(c)
    facet, i, other = err.value.witness
    signs = err.value.signs
    assert i < other
    tops = c.top_simplices
    assert set(facet) < set(tops[i]) and set(facet) < set(tops[other])
    # both tops induce the same sign on the facet under the propagated signs
    induced = [signs[t] * (-1) ** next(j for j, v in enumerate(tops[t])
                                       if v not in facet)
               for t in (i, other)]
    assert induced[0] == induced[1]
    assert signs[0] == 1 and set(signs) == {1, -1}
    # the witness is deterministic
    with pytest.raises(NonOrientableError) as again:
        orient(c)
    assert again.value.witness == err.value.witness


def test_pinched_octahedra_report_only_the_pinch():
    # two octahedra sharing vertex 5 and nothing else: every edge lies in two
    # triangles, but the link of vertex 5 is two 4-cycles
    octa = corpus.octahedron()[0]
    second = {0: 5, 1: 6, 2: 7, 3: 8, 4: 9, 5: 10}
    tops = list(octa.top_simplices) + [tuple(second[v] for v in t)
                                       for t in octa.top_simplices]
    c = AbstractComplex(2, 11, tops)
    report = dict_oracle.verify_surface(c)
    assert report.bad_edges == []
    assert report.bad_vertex_links == [5]


def test_facet_table_pairs_are_mutual():
    tri = triangulate(build_tomei(3)).complex
    table = tri.facet_table
    assert (table.counts == 2).all()
    tops = np.arange(len(table.tops))[:, None]
    assert (table.neighbor[table.neighbor, table.position] == tops).all()
    assert (table.facet[table.neighbor, table.position] == table.facet).all()
    # the key sort and the column lexsort number facets alike
    wide = facet_table(table.tops, 2 ** 40)
    assert np.array_equal(wide.facet, table.facet)
    assert np.array_equal(wide.neighbor, table.neighbor)


def test_lowest_labels_on_a_path():
    # 5 - 3 - 0   1 - 4   2: components labelled by their lowest node
    neighbor = np.array([[3, 0], [4, 1], [2, 2], [0, 5], [1, 4], [3, 5]])
    assert lowest_labels(neighbor).tolist() == [0, 1, 2, 0, 1, 0]
    flip = np.array([[-1, 1], [1, 1], [1, 1], [-1, -1], [1, 1], [-1, 1]],
                    dtype=np.int8)
    _, sign = lowest_labels(neighbor, flip)
    assert sign.tolist() == [1, 1, 1, -1, 1, 1]


def test_lowest_labels_on_a_randomly_numbered_path():
    # moving labels one hop per round takes about as many rounds as the path
    # is long when the numbering is random; hooking roots takes a few dozen
    rng = np.random.default_rng(7)
    count = 50_000
    order = rng.permutation(count)
    neighbor = np.repeat(np.arange(count)[:, None], 2, axis=1)
    neighbor[order[1:], 0] = order[:-1]
    neighbor[order[:-1], 1] = order[1:]
    flip = rng.choice(np.array([-1, 1], dtype=np.int8), size=(count, 2))
    flip[order[1:], 0] = flip[order[:-1], 1]
    start = time.perf_counter()
    label, sign = lowest_labels(neighbor, flip)
    assert time.perf_counter() - start < 10
    assert not label.any()
    assert sign[0] == 1
    assert (sign[order[1:]] == flip[order[:-1], 1] * sign[order[:-1]]).all()


@st.composite
def signed_graphs(draw):
    """A node count and signed edges (a, b, flip) on those nodes, loops
    and repeated edges included."""
    count = draw(st.integers(0, 24))
    if not count:
        return count, []
    node = st.integers(0, count - 1)
    return count, draw(st.lists(st.tuples(node, node, st.sampled_from([-1, 1])),
                                max_size=3 * count))


@settings(max_examples=300, deadline=None)
@given(graph=signed_graphs())
def test_lowest_labels_of_edges_equal_breadth_first_search(graph):
    # each edge listed from both ends, as a neighbor table does
    count, edges = graph
    a, b, flip = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    node, across, flip = (np.concatenate([a, b]), np.concatenate([b, a]),
                          np.concatenate([flip, flip]))
    label, sign = lowest_labels_of_edges(count, node, across, flip.astype(np.int8))
    want_label, want_sign, balanced = dict_oracle.signed_components(count, edges)
    assert label.tolist() == want_label
    assert lowest_labels_of_edges(count, node, across).tolist() == want_label
    # signs are fixed on a balanced component; on any component the edges
    # that agree with them span it, so they are signs along a spanning tree
    balanced = np.array(balanced, dtype=bool)
    assert sign[balanced].tolist() == np.array(want_sign, dtype=np.int64)[balanced].tolist()
    assert (sign[label] == 1).all()
    agree = sign[node] * flip == sign[across]
    assert lowest_labels_of_edges(count, node[agree],
                                  across[agree]).tolist() == want_label


def test_repeated_top_simplex_rejected():
    with pytest.raises(ValueError, match=r"top simplex \(0, 1, 2\) is listed more than once"):
        AbstractComplex(2, 4, [(0, 1, 2), (0, 1, 3), (2, 1, 0)])
