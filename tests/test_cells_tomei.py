from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dict_oracle import all_faces, verify_surface
from extra_api import face_counts, mask_of, triangulation_flags
from cyclecover.cells import (
    UNGLUED,
    PermutahedralComplex,
    euler_characteristic,
    face_classes,
    triangulate,
)
from cyclecover.errors import InconsistentGluingError
from cyclecover.permutahedron import proper_subsets
from cyclecover.pseudomanifold import orient, validate_pseudomanifold
from cyclecover.tomei import build_tomei, size_generator


def simplicial_euler(complex_):
    by_dim = Counter(len(f) - 1 for f in all_faces(complex_))
    return sum((-1) ** d * cnt for d, cnt in by_dim.items())


def test_size_generator():
    assert size_generator(mask_of([2])) == 0b1
    assert size_generator(mask_of([1, 3])) == 0b10
    assert size_generator(mask_of([1, 2, 3])) == 0b100


# ---------------------------------------------------------------------------
# gluing sanity

def test_tomei_glue_is_fixed_point_free_involution():
    for n in (1, 2, 3):
        pc = build_tomei(n)
        for g in range(pc.num_cells):
            for slot in range(len(pc.subsets)):
                h = pc.glue[g, slot]
                assert h != g
                assert pc.glue[h, slot] == g


def test_bad_gluings_rejected():
    with pytest.raises(InconsistentGluingError):
        PermutahedralComplex(1, 2, np.full((2, 2), UNGLUED))  # everything unglued
    with pytest.raises(InconsistentGluingError):
        PermutahedralComplex(1, 1, np.zeros((1, 2), dtype=int))  # self-glued
    glue3 = np.array([[1, 1], [2, 2], [0, 0]])  # a 3-cycle, not an involution
    with pytest.raises(InconsistentGluingError):
        PermutahedralComplex(1, 3, glue3)


def test_noncommuting_nested_gluings_rejected():
    a = {0: 1, 1: 0, 2: 4, 4: 2, 3: 5, 5: 3}
    b = {0: 2, 2: 0, 1: 3, 3: 1, 4: 5, 5: 4}
    assert a[b[0]] != b[a[0]]  # the pair genuinely fails to commute
    glue = np.array([[(b if w == mask_of([1, 2]) else a)[i] for w in proper_subsets(2)]
                     for i in range(6)])
    with pytest.raises(InconsistentGluingError):
        PermutahedralComplex(2, 6, glue)


def test_tomei_needs_a_positive_dimension():
    with pytest.raises(ValueError) as e:
        build_tomei(0)
    assert type(e.value) is ValueError
    assert str(e.value) == "dimension must be at least 1"


# ---------------------------------------------------------------------------
# face classes

@pytest.mark.parametrize("n", [1, 2, 3])
def test_face_class_counts_match_orbit_size_oracle(n):
    # each codim-k orbit has size 2^k, so counts are chains(k) * 2^(n-k)
    pc = build_tomei(n)
    classes = face_classes(pc)
    counts = classes.counts_by_codim()
    expected = [face_counts(n)[k] * 2 ** (n - k) for k in range(n + 1)]
    assert counts == expected
    for orbit, chain in zip(classes.members, classes.chain_of_class):
        assert len(orbit) == 2 ** len(chain)
        assert all(c == chain for _, c in orbit)


def test_known_tomei_face_class_counts():
    assert face_classes(build_tomei(2)).counts_by_codim() == [4, 12, 6]
    assert face_classes(build_tomei(3)).counts_by_codim() == [8, 56, 72, 24]


def test_face_classes_deterministic():
    a = face_classes(build_tomei(2))
    b = face_classes(build_tomei(2))
    assert np.array_equal(a.class_ids, b.class_ids)
    assert list(a.members) == list(b.members)


def test_tomei_one_is_a_circle():
    pc = build_tomei(1)
    classes = face_classes(pc)
    assert classes.counts_by_codim() == [2, 2]
    assert euler_characteristic(pc, classes) == 0
    tri = triangulate(pc, classes)
    assert tri.complex.num_vertices == 4
    assert len(tri.complex.top_simplices) == 4
    assert validate_pseudomanifold(tri.complex).ok


# ---------------------------------------------------------------------------
# Euler characteristic and triangulation

@pytest.mark.parametrize("n,chi", [(1, 0), (2, -2), (3, 0)])
def test_euler_characteristic(n, chi):
    pc = build_tomei(n)
    assert euler_characteristic(pc) == chi


@pytest.mark.parametrize("n,tops", [(1, 4), (2, 48), (3, 1152)])
def test_triangulation_size_and_validity(n, tops):
    pc = build_tomei(n)
    tri = triangulate(pc)
    assert len(tri.complex.top_simplices) == tops
    assert validate_pseudomanifold(tri.complex).ok
    assert simplicial_euler(tri.complex) == euler_characteristic(pc)


def test_triangulation_refuses_planted_face_classes():
    # no glue that face_classes accepts reaches either refusal: class ids run
    # codimension first and the cell is its own class of codimension 0, so
    # the defects are planted in the classes handed to triangulate
    pc = build_tomei(2)
    classes = face_classes(pc)
    collapsed = classes.class_ids.copy()
    collapsed[1] = collapsed[0]  # chain 1 takes the cell's own class
    twin = classes.class_ids.copy()
    twin[:, 1] = twin[:, 0]  # cell 1 has every class of cell 0
    for ids, message in ((collapsed, "flag vertices collapsed in the quotient"),
                         (twin, "two flags produced the same simplex")):
        with pytest.raises(InconsistentGluingError) as e:
            triangulate(pc, replace(classes, class_ids=ids))
        assert str(e.value) == message


def test_triangulation_source_roundtrip():
    pc = build_tomei(2)
    tri = triangulate(pc)
    classes = tri.classes
    flags = set(triangulation_flags(2))
    assert len(tri.cell_of_top) == len(tri.complex.top_simplices)
    for top, cell in zip(tri.complex.top_simplices, tri.cell_of_top.tolist()):
        flag = tuple(sorted((classes.chain_of_class[v] for v in top), key=len))
        assert flag in flags
        ids = tuple(sorted(int(classes.class_ids[classes.chains.index(c), cell])
                           for c in flag))
        assert ids == top
    cells_hit = Counter(tri.cell_of_top.tolist())
    assert all(cells_hit[g] == 12 for g in range(4))


# ---------------------------------------------------------------------------
# surface checks and orientability

def test_tomei_two_is_an_orientable_genus_two_surface():
    pc = build_tomei(2)
    tri = triangulate(pc)
    assert verify_surface(tri.complex).ok
    orient(tri.complex)  # raises unless orientable
    assert euler_characteristic(pc) == -2  # genus 2


def test_tomei_three_is_orientable():
    pc = build_tomei(3)
    tri = triangulate(pc)
    signs = orient(tri.complex)
    assert len(signs) == 1152
