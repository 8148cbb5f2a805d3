import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import dict_oracle
from cyclecover.corpus import (
    boundary_delta,
    disjoint_circles,
    hexagon_cycle,
    octahedron,
    rp2_minimal,
    two_triangles,
)
from cyclecover.errors import NonOrientableError, TopologyError
from cyclecover.pseudomanifold import (
    _parts,
    AbstractComplex,
    ColoredPseudomanifold,
    barycentric_subdivide,
    bipartition,
    check_regular_coloring,
    colored_from_complex,
    face_ids,
    is_coherent_orientation,
    orient,
    validate_pseudomanifold,
)


# ---------------------------------------------------------------------------
# independent oracles, kept deliberately naive

def facet_incidence_oracle(c):
    """Count (n-1)-subsets of top simplices directly."""
    counts = Counter()
    for s in c.top_simplices:
        for facet in combinations(s, c.n):
            counts[facet] += 1
    return counts


def connected_oracle(c):
    """DFS over shared-facet adjacency recomputed from scratch."""
    by_facet = {}
    for i, s in enumerate(c.top_simplices):
        for facet in combinations(s, c.n):
            by_facet.setdefault(facet, []).append(i)
    seen, stack = set(), [0]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        for facet in combinations(c.top_simplices[i], c.n):
            stack.extend(by_facet[facet])
    return len(seen) == len(c.top_simplices)


def boundary_chain_oracle(c, signs):
    """The signed sum of top simplices is a cycle iff its boundary vanishes."""
    coeffs = Counter()
    for sign, s in zip(signs, c.top_simplices):
        for j in range(c.n + 1):
            coeffs[s[:j] + s[j + 1:]] += sign * (-1) ** j
    return all(v == 0 for v in coeffs.values())


# ---------------------------------------------------------------------------
# validation

def test_octahedron_is_closed_pseudomanifold():
    c, _ = octahedron()
    oracle = facet_incidence_oracle(c)
    assert all(v == 2 for v in oracle.values())
    assert connected_oracle(c)
    report = validate_pseudomanifold(c)
    assert report.ok
    assert report.summary().startswith("closed pseudomanifold")


@pytest.mark.parametrize("builder", [hexagon_cycle, octahedron])
def test_corpus_complexes_valid(builder):
    c = builder()[0]
    assert validate_pseudomanifold(c).ok


def test_boundary_is_a_failure():
    report = validate_pseudomanifold(two_triangles())
    assert not report.ok
    assert (0, 2) in report.boundary_faces
    assert "boundary" in report.summary()


def test_disconnected_is_a_failure():
    report = validate_pseudomanifold(disjoint_circles())
    assert not report.ok and not report.connected


def test_three_cofaces_is_a_failure():
    c = AbstractComplex(2, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    report = validate_pseudomanifold(c)
    assert report.overused_faces and report.overused_faces[0][0] == (0, 1)


def test_complex_rejects_malformed_simplices():
    with pytest.raises(ValueError):
        AbstractComplex(2, 4, [(0, 1, 1)])
    with pytest.raises(ValueError):
        AbstractComplex(2, 3, [(0, 1, 3)])


@pytest.mark.parametrize("build, message", [
    (lambda: AbstractComplex(0, 2, [(0,), (1,)]), "dimension must be at least 1"),
    (lambda: AbstractComplex(2, 4, np.array([[0, 1], [1, 2]])),
     "top simplices must be integer rows of 3 vertices"),
    (lambda: AbstractComplex(2, 4, np.array([[0.0, 1.0, 2.0]])),
     "top simplices must be integer rows of 3 vertices"),
    (lambda: AbstractComplex(1, 3, [(0, 2 ** 63)]),
     "a top simplex has a vertex outside range(0, 3)"),
    (lambda: bipartition(octahedron()[0], [1, 1, 1, 2, 3, 3]),
     "bipartition requires a regular coloring"),
])
def test_complex_and_bipartition_name_bad_input(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert type(e.value) is ValueError
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# barycentric subdivision

def test_subdivision_of_boundary_delta3_counts():
    c = boundary_delta(3)
    sd = barycentric_subdivide(c)
    # 4 + 6 + 4 faces, and n! flags per triangle
    assert sd.complex.num_vertices == 14
    assert len(sd.complex.top_simplices) == 4 * math.factorial(3) == 24
    assert check_regular_coloring(sd.complex, sd.coloring)
    assert validate_pseudomanifold(sd.complex).ok


def test_subdivision_of_hexagon_counts():
    c, _ = hexagon_cycle()
    sd = barycentric_subdivide(c)
    assert sd.complex.num_vertices == 12
    assert len(sd.complex.top_simplices) == 12


@pytest.mark.parametrize("builder", [lambda: hexagon_cycle()[0],
                                     lambda: octahedron()[0],
                                     lambda: boundary_delta(3),
                                     lambda: boundary_delta(4)])
def test_subdivision_vertex_count_matches_face_enumeration(builder):
    c = builder()
    sd = barycentric_subdivide(c)
    faces = set()
    for s in c.top_simplices:
        for k in range(1, c.n + 2):
            faces.update(combinations(s, k))
    assert sd.complex.num_vertices == len(faces)
    assert len(sd.complex.top_simplices) == len(c.top_simplices) * math.factorial(c.n + 1)
    vertex_of = {f: v for v, f in enumerate(faces_in_id_order(sd.faces))}
    assert [sd.coloring[vertex_of[f]] for f in sorted(faces)] == [len(f) for f in sorted(faces)]


def faces_in_id_order(levels):
    """The faces of the per-size rows of ``face_ids``, in id order."""
    return [tuple(f) for level in levels for f in level.tolist()]


def test_subdivision_coloring_is_canonical_dimension_coloring():
    c = boundary_delta(3)
    sd = barycentric_subdivide(c)
    faces = faces_in_id_order(sd.faces)
    for vid, face in enumerate(faces):
        assert sd.coloring[vid] == len(face)
    # the id table names the face of every top at every vertex mask
    for t, s in enumerate(c.top_simplices):
        for m in range(1, 1 << (c.n + 1)):
            face = tuple(v for j, v in enumerate(s) if m >> j & 1)
            assert faces[sd.ids[t, m]] == face


# ---------------------------------------------------------------------------
# coloring checks

def test_octahedron_coloring_regular():
    c, colors = octahedron()
    assert check_regular_coloring(c, colors)
    assert not check_regular_coloring(c, [1] * 6)
    assert not check_regular_coloring(c, [1, 2])


def test_boundary_delta3_has_no_three_coloring():
    # all vertices pairwise adjacent, so any regular attempt must fail
    c = boundary_delta(3)
    for colors in [[1, 2, 3, 1], [1, 2, 3, 3], [3, 2, 1, 2]]:
        assert not check_regular_coloring(c, colors)


# ---------------------------------------------------------------------------
# color-set helpers

def test_color_set_and_face_of_colors():
    c, colors = octahedron()
    tri = c.top_simplices[0]  # (0, 2, 4), colors 1, 2, 3
    assert tri == (0, 2, 4)
    assert dict_oracle.color_set(tri, colors) == 0b111
    assert dict_oracle.face_of_colors(tri, 0b101, colors) == (0, 4)
    assert dict_oracle.face_of_colors(tri, 0b010, colors) == (2,)
    with pytest.raises(ValueError):
        dict_oracle.face_of_colors((0, 1), 0b11, colors)  # both endpoints color 1
    # the same faces read from the id table of the rows in color order
    bundle = ColoredPseudomanifold(c, colors)
    ids, faces = face_ids(bundle.by_color)
    assert faces[1][ids[0, 0b101] - len(faces[0])].tolist() == [0, 4]
    assert ids[0, 0b010] == 2


def test_face_of_colors_roundtrip_everywhere():
    c, colors = octahedron()
    bundle = ColoredPseudomanifold(c, colors)
    ids, levels = face_ids(bundle.by_color)
    faces = faces_in_id_order(levels)
    cases = 0
    for t, s in enumerate(c.top_simplices):
        full = dict_oracle.color_set(s, colors)
        for subset in range(1, 8):
            if subset & ~full:
                continue
            face = dict_oracle.face_of_colors(s, subset, colors)
            assert dict_oracle.color_set(face, colors) == subset
            assert faces[ids[t, subset]] == face
            cases += 1
    assert cases == 8 * 7


# ---------------------------------------------------------------------------
# bipartition

def test_hexagon_bipartition_alternates():
    c, colors = hexagon_cycle()
    parts = bipartition(c, colors)
    assert parts[0] == 1
    assert all(parts[i] != parts[j] for i, j in dict_oracle.dual_edges(c))
    assert sorted(parts) == [-1] * 3 + [1] * 3


def test_octahedron_bipartition_is_cube_graph_two_coloring():
    c, colors = octahedron()
    parts = bipartition(c, colors)
    assert parts.count(1) == 4 and parts.count(-1) == 4
    for i, j in dict_oracle.dual_edges(c):
        assert parts[i] != parts[j]
    # dual graph of the octahedron is 3-regular on 8 triangles (the cube)
    degree = Counter()
    for i, j in dict_oracle.dual_edges(c):
        degree[i] += 1
        degree[j] += 1
    assert all(degree[i] == 3 for i in range(8))


@pytest.mark.parametrize("builder", [lambda: hexagon_cycle()[0],
                                     lambda: octahedron()[0],
                                     lambda: boundary_delta(3)])
def test_subdivision_bipartition_parts_equal_sized(builder):
    sd = barycentric_subdivide(builder())
    parts = bipartition(sd.complex, sd.coloring)
    assert parts.count(1) == parts.count(-1)
    for i, j in dict_oracle.dual_edges(sd.complex):
        assert parts[i] != parts[j]


def test_subdivision_parts_follow_flag_parity_per_simplex():
    # within the flags of one source simplex, the two parts are exactly the
    # two parity classes of the vertex orderings
    from itertools import permutations

    c, _ = octahedron()
    sd = barycentric_subdivide(c)
    parts = bipartition(sd.complex, sd.coloring)
    index = {s: i for i, s in enumerate(sd.complex.top_simplices)}
    for t, s in enumerate(c.top_simplices):
        by_parity = {1: set(), -1: set()}
        for a, order in enumerate(permutations(s)):
            masks = np.cumsum([1 << s.index(v) for v in order])
            flag = tuple(sorted(sd.ids[t, masks].tolist()))
            assert sd.flag_top[t, a] == index[flag]
            parity = perm_sign(order, s)
            by_parity[parity].add(parts[index[flag]])
        assert by_parity[1] != by_parity[-1]
        assert len(by_parity[1]) == 1 and len(by_parity[-1]) == 1


def perm_sign(order, sorted_ref):
    perm = [sorted_ref.index(v) for v in order]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_rp2_subdivision_dual_graph_has_odd_cycle():
    sd = barycentric_subdivide(rp2_minimal())
    # the parts are read off the orientation, which does not exist
    with pytest.raises(NonOrientableError):
        bipartition(sd.complex, sd.coloring)
    with pytest.raises(dict_oracle.OddCycleError) as err:
        dict_oracle.bipartition(sd.complex, sd.coloring)
    cycle = err.value.cycle
    assert len(cycle) % 2 == 1
    # the witness walk must close up along dual edges
    edges = {frozenset(e) for e in dict_oracle.dual_edges(sd.complex)}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert frozenset((a, b)) in edges


def _colored_corpus():
    """Every corpus complex with a regular coloring, and the subdivision of
    every closed corpus complex."""
    colored = {"hexagon": hexagon_cycle(), "octahedron": octahedron(),
               "disjoint circles": (disjoint_circles(),
                                    [1 + v % 2 for v in range(12)])}
    sources = {"hexagon": hexagon_cycle()[0], "octahedron": octahedron()[0],
               "disjoint circles": disjoint_circles(),
               "boundary delta3": boundary_delta(3),
               "boundary delta4": boundary_delta(4), "rp2": rp2_minimal()}
    for name, c in sources.items():
        sd = barycentric_subdivide(c)
        colored[f"sd {name}"] = (sd.complex, sd.coloring)
    return colored


def _relabeled(c, coloring, seed: int):
    """The same colored complex under a seeded relabeling of its vertices
    and a shuffle of its top simplices."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(c.num_vertices)
    tops = label[c.tops][rng.permutation(len(c.tops))]
    relabeled = np.empty(c.num_vertices, dtype=np.int64)
    relabeled[label] = coloring
    return AbstractComplex(c.n, c.num_vertices, tops), relabeled.tolist()


def _parts_or_failure(bipartition_of, c, coloring):
    try:
        return bipartition_of(c, coloring)
    except (NonOrientableError, dict_oracle.OddCycleError):
        return "not two-colorable"


@pytest.mark.parametrize("name", sorted(_colored_corpus()))
def test_closed_form_parts_equal_bfs_oracle(name):
    source = _colored_corpus()[name]
    for seed in (None, 0, 1, 2):
        c, coloring = source if seed is None else _relabeled(*source, seed)
        parts = _parts_or_failure(bipartition, c, coloring)
        assert parts == _parts_or_failure(dict_oracle.bipartition, c, coloring)
        if parts != "not two-colorable" and validate_pseudomanifold(c).ok:
            # the bundle's parts do not depend on the orientation's sign
            flipped = [-s for s in orient(c)]
            cp = ColoredPseudomanifold(c, coloring, orientation=flipped)
            assert cp.parts.tolist() == parts
            assert cp.plus.tolist() == [i for i, p in enumerate(parts) if p == 1]
            assert cp.minus.tolist() == [i for i, p in enumerate(parts) if p == -1]
    assert (parts == "not two-colorable") == ("rp2" in name)


def test_parts_check_names_the_facet_and_its_tops():
    # an incoherent orientation puts two tops across a facet in one part
    c, colors = octahedron()
    signs = orient(c)
    signs[3] = -signs[3]
    with pytest.raises(TopologyError, match="top simplices 2 and 3 share the "
                                            "facet \\(0, 3\\)"):
        _parts(c.facet_table, signs, np.asarray(colors)[c.tops])


# ---------------------------------------------------------------------------
# orientation

@pytest.mark.parametrize("builder", [lambda: hexagon_cycle()[0],
                                     lambda: octahedron()[0],
                                     lambda: boundary_delta(3),
                                     lambda: boundary_delta(4)])
def test_orientation_gives_vanishing_boundary(builder):
    c = builder()
    signs = orient(c)
    assert signs[0] == 1
    assert boundary_chain_oracle(c, signs)
    assert is_coherent_orientation(c, signs)
    flipped = [-s for s in signs]
    assert boundary_chain_oracle(c, flipped)
    assert is_coherent_orientation(c, flipped)


def test_orientation_deterministic():
    c, _ = octahedron()
    assert orient(c) == orient(c)


def test_rp2_not_orientable():
    c = rp2_minimal()
    assert validate_pseudomanifold(c).ok
    with pytest.raises(NonOrientableError) as err:
        orient(c)
    facet, i, j = err.value.witness
    assert set(facet) <= set(c.top_simplices[i])
    assert set(facet) <= set(c.top_simplices[j])
    # subdividing cannot make it orientable
    with pytest.raises(NonOrientableError):
        orient(barycentric_subdivide(c).complex)


def test_orient_refuses_boundary():
    with pytest.raises(ValueError):
        orient(two_triangles())


# ---------------------------------------------------------------------------
# the bundle

def test_bundle_construction_and_lookup():
    c, colors = octahedron()
    cp = ColoredPseudomanifold(c, colors)
    assert cp.top_count == 8
    assert len(cp.plus) == len(cp.minus) == 4
    for i, s in enumerate(c.top_simplices):
        for c_idx in range(3):
            v = cp.by_color[i][c_idx]
            assert colors[v] == c_idx + 1 and v in s
    for i in range(8):
        for facet_colors in (0b011, 0b101, 0b110):
            j = dict_oracle.neighbor_across(cp, i, facet_colors)
            assert j != i
            assert cp.parts[j] != cp.parts[i]
            for c_idx in range(3):
                if facet_colors >> c_idx & 1:
                    assert cp.by_color[i][c_idx] == cp.by_color[j][c_idx]
            assert dict_oracle.neighbor_across(cp, j, facet_colors) == i


def test_bundle_rejects_bad_inputs():
    c, colors = octahedron()
    with pytest.raises(ValueError):
        ColoredPseudomanifold(two_triangles(), [1, 2, 3, 3])
    with pytest.raises(ValueError):
        ColoredPseudomanifold(c, [1] * 6)
    with pytest.raises(ValueError):
        ColoredPseudomanifold(c, colors, orientation=[1] * 8)


def test_colored_from_complex_subdivides_when_needed():
    cp, sd = colored_from_complex(boundary_delta(3))
    assert sd is not None
    assert cp.top_count == 24
    cp2, sd2 = colored_from_complex(*octahedron())
    assert sd2 is None and cp2.top_count == 8


def test_colored_from_complex_propagates_nonorientability():
    with pytest.raises(NonOrientableError):
        colored_from_complex(rp2_minimal())
