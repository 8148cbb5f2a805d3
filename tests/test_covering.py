"""Tests for cover cells, facet crossings, and covering verification.

Frozen constants were computed from first principles where possible:
the hexagon trace and its two gluing involutions are derived by hand in
comments, and the octahedron component is checked against an independent
GF(2)-span oracle (all its crossings act by XOR on (triangle, g) pairs).
Seeds other than the default and the cell-at-a-time crossing live in the
oracle ``dict_oracle``, whose ``build_component`` takes a seed.  The
covering check on the monodromy is held to the check that built the
expanded cells' face classes, ``dict_oracle.verify_covering``, on every
corpus cover and the benchmark inputs; that check's cell-level half,
``dict_oracle.verify_cell_projection``, is held to planted defects.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from dict_oracle import in_cover_set
from extra_api import CoverCell, benchmark_inputs, cover_cells
from cyclecover import corpus, covering, formats
from cyclecover.cells import (
    PermutahedralComplex,
    euler_characteristic,
    face_classes,
    triangulate,
)
from cyclecover.covering import (
    DEFAULT_MAX_CELLS,
    build_component,
    build_full,
    parity_sign,
    verify_covering,
)
from cyclecover.errors import (
    CapExceededError,
    InconsistentGluingError,
    NonOrientableError,
    NotACoveringError,
    TopologyError,
)
from cyclecover.involutions import canonical_involution, extend_to_facet_colors
from cyclecover.permutahedron import full_mask, proper_subsets
from cyclecover.pseudomanifold import (
    ColoredPseudomanifold,
    colored_from_complex,
    orient,
    validate_pseudomanifold,
)
from cyclecover.tomei import build_tomei, size_generator

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
INPUTS = benchmark_inputs()


@pytest.fixture(scope="module")
def hex_cp():
    return ColoredPseudomanifold(*corpus.hexagon_cycle())


@pytest.fixture(scope="module")
def octa_cp():
    return ColoredPseudomanifold(*corpus.octahedron())


@pytest.fixture(scope="module")
def hex_cover(hex_cp):
    return build_component(hex_cp)


@pytest.fixture(scope="module")
def octa_component(octa_cp):
    return build_component(octa_cp)


@pytest.fixture(scope="module")
def octa_full(octa_cp):
    return build_full(octa_cp)


@pytest.fixture(scope="module")
def sd3_cp():
    bundle, _ = colored_from_complex(corpus.boundary_delta(3))
    return bundle


@pytest.fixture(scope="module")
def sd3_component(sd3_cp):
    return build_component(sd3_cp)


# ---------------------------------------------------------------------------
# parity and membership

def test_parity_sign_values():
    assert parity_sign(0) == 1
    assert parity_sign(1) == -1
    assert parity_sign(3) == 1
    assert parity_sign(0b111) == -1
    assert parity_sign(0b1011) == -1


def test_in_cover_set(hex_cp):
    reg = dict_oracle.InvolutionRegistry(hex_cp)
    t = reg.canonical_tuple()
    plus, minus = hex_cp.plus[0], hex_cp.minus[0]
    assert in_cover_set(hex_cp, CoverCell(plus, t, 0))
    assert not in_cover_set(hex_cp, CoverCell(plus, t, 1))
    assert in_cover_set(hex_cp, CoverCell(minus, t, 1))
    assert not in_cover_set(hex_cp, CoverCell(minus, t, 0))
    assert not in_cover_set(hex_cp, CoverCell(plus, t, 4))  # g out of range
    assert not in_cover_set(hex_cp, CoverCell(plus, t, -1))


def test_component_cells_satisfy_parity(hex_cover, octa_full):
    for cover in (hex_cover, octa_full):
        assert all(in_cover_set(cover.cp, c) for c in cover_cells(cover))


# ---------------------------------------------------------------------------
# facet crossings

def test_cross_facet_hexagon_literals(hex_cp, hex_cover):
    # Edges of the colored hexagon, in sorted order:
    #   0:(0,1) 1:(0,5) 2:(1,2) 3:(2,3) 4:(3,4) 5:(4,5)
    # with vertex colors 1,2,1,2,1,2.  Pairing edges at their color-1
    # vertex (0, 2, or 4) swaps 0-1, 2-3, 4-5; pairing at the color-2
    # vertex (1, 3, or 5) swaps 0-2, 3-4, 1-5.
    assert canonical_involution(hex_cp, 0b01) == (1, 0, 3, 2, 5, 4)
    assert canonical_involution(hex_cp, 0b10) == (2, 5, 0, 4, 3, 1)
    # Breadth-first closure of (edge 0, canonical tuple, g=0), crossing
    # color-1 facets before color-2 facets, walked by hand:
    assert cover_cells(hex_cover) == [
        CoverCell(0, 0, 0),
        CoverCell(1, 0, 1),
        CoverCell(2, 0, 1),
        CoverCell(5, 0, 0),
        CoverCell(3, 0, 0),
        CoverCell(4, 0, 1),
    ]
    assert hex_cover.registry.tuple_count == 1


def test_cross_facet_is_fixed_point_free_involution(hex_cover, octa_full):
    cases = 0
    for cover in (hex_cover, octa_full):
        cells = cover_cells(cover)
        for i, cell in enumerate(cells):
            for slot, j in enumerate(cover.pc.glue[i].tolist()):
                other = cells[j]
                assert other != cell
                assert other.g != cell.g
                assert parity_sign(other.g) == -parity_sign(cell.g)
                assert cover.cp.parts[other.sigma] != cover.cp.parts[cell.sigma]
                assert cover.pc.glue[j, slot] == i
                cases += 1
    assert cases == 6 * 2 + 1024 * 6


def test_cross_facet_nested_labels_commute(octa_full):
    subsets = octa_full.pc.subsets
    nested = [(a, b) for a, wa in enumerate(subsets) for b, wb in enumerate(subsets)
              if a != b and wa & ~wb == 0]
    assert len(nested) == 6
    glue = octa_full.pc.glue
    cases = 0
    for i in range(octa_full.num_cells):
        for a, b in nested:
            assert glue[glue[i, a], b] == glue[glue[i, b], a]
            cases += 1
    assert cases == 1024 * 6


def _tuple_value(reg, tid):
    return tuple(tuple(closure[d].tolist())
                 for closure, d in zip(reg.closures, reg.digits[tid]))


def _cross_direct(reg, cell, w):
    """Reference crossing: compose permutations directly, no interning."""
    invs = _tuple_value(reg, cell.tuple_id)
    lam = invs[reg.subsets.index(w)]
    out = []
    for gamma, inv in zip(reg.subsets, invs):
        if gamma & ~w == 0:
            out.append(tuple(lam[inv[lam[x]]] for x in range(len(lam))))
        else:
            out.append(inv)
    return lam[cell.sigma], tuple(out), cell.g ^ size_generator(w)


def test_cross_facet_matches_direct_composition(sd3_component):
    reg = sd3_component.registry
    cells = cover_cells(sd3_component)
    for i, cell in enumerate(cells):
        for w, j in zip(reg.subsets, sd3_component.pc.glue[i].tolist()):
            got = cells[j]
            assert ((got.sigma, _tuple_value(reg, got.tuple_id), got.g)
                    == _cross_direct(reg, cell, w))


def test_registry_rejects_incompatible_tuple(monkeypatch, octa_cp):
    # the identity has fixed points: planted as the canonical involution of
    # subset {1}, it is refused when the closure of its slot is checked
    canonical = covering.canonical_involution
    monkeypatch.setattr(covering, "canonical_involution", lambda cp, w: (
        tuple(range(cp.top_count)) if w == 0b1 else canonical(cp, w)))
    with pytest.raises(InconsistentGluingError, match="component for subset \\(1,\\) is not "
                                         "a compatible involution"):
        build_component(octa_cp)


# ---------------------------------------------------------------------------
# component closures

def test_seed_cell(hex_cp, hex_cover):
    seed = dict_oracle.seed_cell(dict_oracle.InvolutionRegistry(hex_cp))
    assert seed == CoverCell(min(hex_cp.plus), 0, 0)
    assert in_cover_set(hex_cp, seed)
    assert cover_cells(hex_cover)[0] == seed


def test_component_rejects_bad_seed(octa_cp):
    reg = dict_oracle.InvolutionRegistry(octa_cp)
    t = reg.canonical_tuple()
    with pytest.raises(ValueError, match="parity"):
        dict_oracle.build_component(
            octa_cp, seed=CoverCell(octa_cp.minus[0], t, 0), registry=reg)


def test_hexagon_component_is_triple_circle(hex_cover):
    assert hex_cover.num_cells == 6
    assert euler_characteristic(hex_cover.pc) == 0
    report = verify_covering(hex_cover)
    assert report.degree == 3
    assert report.cell_fibers == {0: 3, 1: 3}
    assert set(dict_oracle.verify_covering(hex_cover).class_fibers.values()) == {3}


def test_octahedron_coordinates_and_flips(octa_cp):
    # Triangle i has vertices (4a + 2b + c -> a in {0,1}, b+2, c+4), so the
    # sorted top list realizes the index as a 3-bit coordinate vector.
    tops = octa_cp.complex.top_simplices
    assert tuple(tops) == tuple(((i >> 2) & 1, 2 + ((i >> 1) & 1), 4 + (i & 1))
                                for i in range(8))
    # Every canonical involution is the antipodal flip of the one color
    # outside the extended facet label.
    for w in proper_subsets(2):
        ext = extend_to_facet_colors(w, 2)
        moved = full_mask(2) ^ ext
        assert moved.bit_count() == 1
        flip = 4 >> (moved.bit_length() - 1)
        assert canonical_involution(octa_cp, w) == tuple(i ^ flip
                                                         for i in range(8))


def test_octahedron_component_matches_span_oracle(octa_cp, octa_component):
    # Crossing facet w maps (sigma, g) to (sigma ^ flip(w), g ^ e(|w|)) and
    # never changes the tuple, so the component is the coset of the GF(2)
    # span of the six crossing vectors, encoded in 5 bits as (flip << 2) | e.
    assert octa_component.registry.tuple_count == 1
    vectors = []
    for w in proper_subsets(2):
        moved = full_mask(2) ^ extend_to_facet_colors(w, 2)
        flip = 4 >> (moved.bit_length() - 1)
        vectors.append((flip << 2) | size_generator(w))
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    assert len(span) == 16
    expected = {CoverCell(s >> 2, 0, s & 3) for s in span}
    assert set(cover_cells(octa_component)) == expected


def test_octahedron_component_topology(octa_component):
    assert octa_component.num_cells == 16
    report = verify_covering(octa_component)
    assert report.degree == 4
    assert set(report.cell_fibers.values()) == {4}
    assert set(dict_oracle.verify_covering(octa_component).class_fibers.values()) == {4}
    classes = face_classes(octa_component.pc)
    assert classes.counts_by_codim() == [16, 48, 24]
    assert euler_characteristic(octa_component.pc) == -8  # 4 * chi(M^2)
    tri = triangulate(octa_component.pc)
    assert dict_oracle.verify_surface(tri.complex).ok
    orient(tri.complex)  # raises unless orientable


def test_octahedron_component_translates(octa_cp, octa_component):
    # Seeding at g=3 instead of g=0 yields the deck translate by g ^= 3.
    reg = dict_oracle.InvolutionRegistry(octa_cp)
    t = reg.canonical_tuple()
    shifted, _, _ = dict_oracle.build_component(
        octa_cp, seed=CoverCell(0, t, 3), registry=reg)
    assert ({(c.sigma, c.g) for c in shifted}
            == {(c.sigma, c.g ^ 3) for c in cover_cells(octa_component)})


def test_subdivided_tetrahedron_component(sd3_component):
    assert sd3_component.num_cells == 432
    assert sd3_component.registry.tuple_count == 9
    report = verify_covering(sd3_component)
    assert report.degree == 108
    assert euler_characteristic(sd3_component.pc) == -216  # 108 * chi(M^2)
    tri = triangulate(sd3_component.pc)
    assert dict_oracle.verify_surface(tri.complex).ok
    orient(tri.complex)  # raises unless orientable


def test_component_cap(octa_cp):
    with pytest.raises(CapExceededError) as e:
        build_component(octa_cp, max_cells=8)
    assert e.value.cap == 8


def test_component_cap_counts_orbit_tuples(sd3_cp):
    # the sd(boundary delta3) orbit has 9 tuples, each carried by a cell of
    # the component, so a cap of 5 is refused before any cell is numbered
    with pytest.raises(CapExceededError, match="component exceeded 5 cells") as e:
        build_component(sd3_cp, max_cells=5)
    assert (e.value.cap, e.value.reached) == (5, 5)


def test_subdivided_boundary_delta4_exceeds_cap():
    bundle, _ = colored_from_complex(corpus.boundary_delta(4))
    with pytest.raises(CapExceededError) as e:
        build_component(bundle, max_cells=20000)
    assert e.value.cap == 20000
    assert e.value.reached == 20000


# ---------------------------------------------------------------------------
# the full cover set

def test_full_hexagon_equals_component(hex_cp, hex_cover):
    full = build_full(hex_cp)
    assert full.num_cells == 6
    assert set(cover_cells(full)) == set(cover_cells(hex_cover))


def test_full_octahedron_counts(octa_cp, octa_full):
    # |V| = 8 tops * (4*4*4*1*1*1) tuples * 2 parity-consistent g values.
    assert octa_full.num_cells == 1024
    assert set(np.bincount(octa_full.sigma).tolist()) == {128}
    report = verify_covering(octa_full)
    assert report.degree == 256
    assert euler_characteristic(octa_full.pc) == -512


def test_full_octahedron_is_closed_but_disconnected(octa_full):
    tri = triangulate(octa_full.pc)
    report = validate_pseudomanifold(tri.complex)
    assert report.boundary_faces == []
    assert report.overused_faces == []
    assert not report.connected
    # union-find over the gluing: 64 components of 16 cells each
    parent = list(range(octa_full.num_cells))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(octa_full.pc.glue.tolist()):
        for j in row:
            parent[find(i)] = find(j)
    from collections import Counter
    sizes = Counter(Counter(find(i) for i in range(octa_full.num_cells)).values())
    assert sizes == {16: 64}


def test_full_cover_cap(octa_cp):
    with pytest.raises(CapExceededError) as e:
        build_full(octa_cp, max_cells=500)
    assert e.value.cap == 500
    assert e.value.reached == 1024


def test_builds_are_deterministic(hex_cp, octa_cp):
    a, b = build_component(octa_cp), build_component(octa_cp)
    assert cover_cells(a) == cover_cells(b) and np.array_equal(a.pc.glue, b.pc.glue)
    c, d = build_full(hex_cp), build_full(hex_cp)
    assert cover_cells(c) == cover_cells(d) and np.array_equal(c.pc.glue, d.pc.glue)


# ---------------------------------------------------------------------------
# covering verification

def test_identity_and_deck_projection_verify():
    m2 = build_tomei(2)
    report = dict_oracle.verify_cell_projection(m2, list(range(4)), m2)
    assert report.degree == 1
    assert set(report.class_fibers.values()) == {1}
    # XOR by a fixed generator is a deck transformation, hence also a covering.
    report = dict_oracle.verify_cell_projection(m2, [g ^ 1 for g in range(4)], m2)
    assert report.degree == 1


def test_verify_covering_rejects_parity_violation(hex_cover):
    g0 = hex_cover.g0.copy()
    g0[0] ^= 1
    broken = replace(hex_cover, g0=g0)
    with pytest.raises(NotACoveringError, match="parity"):
        verify_covering(broken)


def test_verify_covering_names_the_pair_with_a_flipped_g0(sd3_component):
    # a planted defect: one flipped bit of g0 breaks the parity constraint
    # at that pair, and the failure names it with its (sigma, tuple_id, g0)
    g0 = sd3_component.g0.copy()
    x = 107
    g0[x] ^= 1
    broken = replace(sd3_component, g0=g0)
    sigma, t = sd3_component.pair_sigma[x], sd3_component.pair_t[x]
    with pytest.raises(NotACoveringError) as e:
        verify_covering(broken)
    assert str(e.value) == (f"pair 107 (sigma {sigma}, tuple_id {t}, g0 {g0[x]}) "
                            f"violates the parity constraint")


def test_verify_covering_rejects_noncommuting_projection(octa_component):
    # at cell level: swap the g labels of a g=0 cell and a g=3 cell
    g = octa_component.g.copy()
    i, j = np.flatnonzero(g == 0)[0], np.flatnonzero(g == 3)[0]
    g[i], g[j] = 3, 0
    with pytest.raises(NotACoveringError, match="commute"):
        dict_oracle.verify_cell_projection(octa_component.pc, g, build_tomei(2))


def test_verify_cell_projection_rejects_wrong_length():
    m2 = build_tomei(2)
    with pytest.raises(NotACoveringError, match="every cell"):
        dict_oracle.verify_cell_projection(m2, [0, 1, 2], m2)


def copies_of_m2(k: int) -> PermutahedralComplex:
    """k disjoint copies of the Tomei surface, copy i on cells 4i..4i+3."""
    glue = build_tomei(2).glue
    return PermutahedralComplex(2, 4 * k, np.concatenate([glue + 4 * i for i in range(k)]))


def copy_projection(copy_of: list[int]) -> list[int]:
    """Send copy i cell by cell onto copy ``copy_of[i]``; this commutes with
    every crossing, so only the later checks can fail."""
    return [4 * target + g for target in copy_of for g in range(4)]


def test_verify_cell_projection_rejects_cell_outside_base():
    m2 = build_tomei(2)
    with pytest.raises(NotACoveringError, match="outside the base"):
        dict_oracle.verify_cell_projection(m2, [0, 1, 2, 4], m2)


def test_verify_cell_projection_rejects_uneven_cell_count():
    with pytest.raises(NotACoveringError, match="12 cells cannot evenly cover 8"):
        dict_oracle.verify_cell_projection(
            copies_of_m2(3), copy_projection([0, 1, 0]), copies_of_m2(2))


def test_verify_cell_projection_rejects_uneven_fibers():
    with pytest.raises(NotACoveringError, match="cell fibers are not constant"):
        dict_oracle.verify_cell_projection(
            copies_of_m2(4), copy_projection([0, 0, 0, 1]), copies_of_m2(2))


def test_class_map_is_surjective(octa_component):
    report = dict_oracle.verify_covering(octa_component)
    base_classes = face_classes(build_tomei(2))
    assert set(report.cover_class_to_base.tolist()) == set(range(len(base_classes.members)))
    assert len(report.cover_class_to_base.tolist()) == 4 * len(base_classes.members)


# ---------------------------------------------------------------------------
# the monodromy check against the face-class oracle: the same degree and
# cell fibres, or the same error; cell maps and cell glue, which carry no
# monodromy, go to the oracle's cell-level check alone


def outcome(run):
    """(degree, cell fibres) of a check that passes, or (error class,
    message) of one that fails."""
    try:
        report = run()
    except TopologyError as e:
        return type(e), str(e)
    return report.degree, report.cell_fibers


def assert_checks_agree(run):
    """``run(module)`` runs a covering check from ``module``: the library's
    check on the monodromy, then the oracle that builds the cover's face
    classes.  Returns the outcome both give."""
    new, old = outcome(lambda: run(covering)), outcome(lambda: run(dict_oracle))
    assert new == old
    return new


def assert_covers_agree(cp, max_cells=DEFAULT_MAX_CELLS, full=False):
    covers = [build_component(cp, max_cells=max_cells)]
    if full:
        covers.append(build_full(cp, max_cells))
    for cover in covers:
        degree, fibers = assert_checks_agree(lambda m: m.verify_covering(cover))
        assert degree * len(fibers) == cover.num_cells


# every corpus file but rp2_minimal, which is not orientable and so has no
# colored bundle to cover; the sd(boundary delta4) component has 1,399,680
# cells, over the default cap
@pytest.mark.parametrize("name, full, max_cells", [
    ("hexagon", True, DEFAULT_MAX_CELLS),
    ("octahedron", True, DEFAULT_MAX_CELLS),
    ("boundary_delta3", False, DEFAULT_MAX_CELLS),
    ("boundary_delta4", False, 2 * 10 ** 6),
])
def test_glue_check_agrees_with_oracle_on_corpus(name, full, max_cells):
    cp, _ = colored_from_complex(*formats.load_complex(CORPUS_DIR / f"{name}.json"))
    assert_covers_agree(cp, max_cells, full)


def test_rp2_has_no_cover_to_check():
    with pytest.raises(NonOrientableError):
        colored_from_complex(*formats.load_complex(CORPUS_DIR / "rp2_minimal.json"))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stem, build, full", [
    ("octahedron", INPUTS.octahedron, True),
    ("delta3", INPUTS.boundary_delta3, False),
    ("suspended10", lambda: INPUTS.suspended_cycle(5), False),
])
def test_glue_check_agrees_with_oracle_on_benchmark_inputs(stem, build, full, seed):
    doc = json.loads(INPUTS.seeded_document(stem, build(), seed))
    cp, _ = colored_from_complex(*formats.complex_from_dict(doc))
    assert_covers_agree(cp, full=full)


def test_glue_check_agrees_with_oracle_on_join_c4_c6():
    cp, _ = colored_from_complex(*formats.complex_from_dict(INPUTS.cycle_join(2, 3)))
    assert_covers_agree(cp)


@pytest.mark.parametrize("cover_copies, projection, base_copies, passes", [
    (1, copy_projection([0]), 1, True),
    (1, [g ^ 1 for g in range(4)], 1, True),
    (2, copy_projection([1, 0]), 2, True),
    (4, copy_projection([0, 1, 1, 0]), 2, True),
    (3, copy_projection([0, 1, 0]), 2, False),
    (4, copy_projection([0, 0, 0, 1]), 2, False),
    (1, [0, 1, 2, 4], 1, False),
    (1, [0, 1, 2], 1, False),
])
def test_glue_check_agrees_with_oracle_on_copies_of_m2(cover_copies, projection,
                                                       base_copies, passes):
    # a cell map has no monodromy to check it on: the cell-level oracle
    # alone decides, with the degree of the copies when it passes
    cover_pc, base = copies_of_m2(cover_copies), copies_of_m2(base_copies)
    got = outcome(lambda: dict_oracle.verify_cell_projection(cover_pc, projection, base))
    assert (got[0] is not NotACoveringError) == passes
    if passes:
        assert got[0] == cover_copies // base_copies


def test_glue_check_agrees_with_oracle_on_swapped_g_labels(octa_component):
    g = octa_component.g.copy()
    i, j = np.flatnonzero(g == 0)[0], np.flatnonzero(g == 3)[0]
    g[i], g[j] = 3, 0
    base = build_tomei(2)
    got = outcome(lambda: dict_oracle.verify_cell_projection(octa_component.pc, g, base))
    assert got[0] is NotACoveringError and "commute" in got[1]


def test_glue_check_agrees_with_oracle_on_a_flipped_g_bit(sd3_component):
    # a flipped bit of g0 puts every cell over its pair at the wrong
    # parity: the check on the pairs names the pair, the oracle on the
    # expanded cells the pair's first cell
    g0 = sd3_component.g0.copy()
    g0[108] ^= 1
    broken = replace(sd3_component, g0=g0)
    sigma, t = broken.pair_sigma[108], broken.pair_t[108]
    with pytest.raises(NotACoveringError) as pair:
        verify_covering(broken)
    assert str(pair.value) == (f"pair 108 (sigma {sigma}, tuple_id {t}, "
                               f"g0 {g0[108]}) violates the parity constraint")
    with pytest.raises(NotACoveringError) as cell:
        dict_oracle.verify_covering(broken)  # cell 216 is (pair 108, h = 0)
    assert str(cell.value) == (f"cell 216 (sigma {sigma}, tuple_id {t}, "
                               f"g {g0[108]}) violates the parity constraint")


def test_glue_check_agrees_with_oracle_on_redirected_glue(sd3_component):
    cover, base = sd3_component, build_tomei(2)
    # one entry sent to a wrong cell over the same base cell
    glue = cover.pc.glue.copy()
    i, j = 0, int(glue[0, 0])
    over_j = np.flatnonzero(cover.g == cover.g[j])
    glue[i, 0] = over_j[over_j != j][0]
    got = outcome(lambda: dict_oracle.verify_cell_projection(
        PermutahedralComplex(2, cover.num_cells, glue), cover.g, base))
    assert got[0] is InconsistentGluingError
    # two pairs of one facet slot paired the other way round, over the same
    # base cells, so the slot stays an involution commuting with the projection
    glue = cover.pc.glue.copy()
    over_i = np.flatnonzero(cover.g == cover.g[i])
    k = int(over_i[over_i != i][0])
    l = int(glue[k, 0])
    glue[[i, j, k, l], 0] = [l, k, j, i]
    got = outcome(lambda: dict_oracle.verify_cell_projection(
        PermutahedralComplex(2, cover.num_cells, glue), cover.g, base))
    assert got[0] is InconsistentGluingError
