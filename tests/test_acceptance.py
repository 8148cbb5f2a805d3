"""Acceptance gate: the seven headline checks, one printed line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  Every criterion carries its own wall-clock bound and
fails, with a FAIL line, if the math or the clock is off.
"""

import functools
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from dict_oracle import face_of_colors, verify_surface
from extra_api import cover_cells
from cyclecover import corpus
from cyclecover.cells import (
    euler_characteristic,
    face_classes,
    triangulate,
)
from cyclecover.covering import (
    DEFAULT_MAX_CELLS,
    build_component,
    build_full,
    verify_covering,
)
from cyclecover.errors import NonOrientableError, NotACoveringError
from cyclecover.homology import boundary_matrices, homology, smith_normal_form
from cyclecover.involutions import (
    count_compatible_involutions,
    enumerate_compatible_involutions,
    predicted_multiplicity,
)
from cyclecover.permutahedron import mask_elements, proper_subsets
from cyclecover.pseudomanifold import (
    ColoredPseudomanifold,
    barycentric_subdivide,
    colored_from_complex,
    orient,
    validate_pseudomanifold,
)
from cyclecover.realization import (
    realization_map,
    verify_realization,
)
from cyclecover.tomei import build_tomei


def criterion(num, name, bound):
    """Time the check and print exactly one PASS/FAIL line for it."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            ok = elapsed < bound
            print(f"ACCEPTANCE {num} ({name}): "
                  f"{'PASS' if ok else 'FAIL'} "
                  f"({elapsed:.2f}s, bound {bound:.0f}s)")
            assert ok, f"criterion {num} took {elapsed:.2f}s, bound {bound}s"
        return wrapper
    return deco


@criterion(1, "Tomei surface", bound=1.0)
def test_tomei_surface():
    pc = build_tomei(2)
    classes = face_classes(pc)
    assert euler_characteristic(pc, classes) == -2
    tri = triangulate(pc, classes)
    assert validate_pseudomanifold(tri.complex).ok
    assert verify_surface(tri.complex).ok
    orient(tri.complex)  # raises unless orientable
    assert [str(g) for g in homology(tri.complex)] \
        == ["Z", "Z + Z + Z + Z", "Z"]


@criterion(2, "Tomei 3-manifold counts", bound=10.0)
def test_tomei_counts():
    pc = build_tomei(3)
    classes = face_classes(pc)
    assert classes.counts_by_codim() == [8, 56, 72, 24]
    assert euler_characteristic(pc, classes) == 0
    tri = triangulate(pc, classes)
    assert len(tri.complex.top_simplices) == 1152
    assert validate_pseudomanifold(tri.complex).ok
    assert len(orient(tri.complex)) == 1152  # raises if incoherent


@criterion(3, "hexagon end to end", bound=1.0)
def test_hexagon_end_to_end():
    bundle = ColoredPseudomanifold(*corpus.hexagon_cycle())
    assert count_compatible_involutions(bundle, 0b01) == 1
    assert count_compatible_involutions(bundle, 0b10) == 1
    component = build_component(bundle)
    full = build_full(bundle)
    assert sorted(cover_cells(component)) == cover_cells(full)
    assert full.num_cells == 6
    assert verify_covering(component).degree == 3
    report = verify_realization(realization_map(component))
    assert report.degree == 1
    assert predicted_multiplicity(bundle) == 1 == 2 ** 0 * 1 * 1


@criterion(4, "octahedron component realization", bound=60.0)
def test_octahedron_component():
    bundle = ColoredPseudomanifold(*corpus.octahedron())
    component = build_component(bundle, max_cells=DEFAULT_MAX_CELLS)
    assert component.num_cells <= DEFAULT_MAX_CELLS
    cover_report = verify_covering(component)
    assert component.num_cells % 4 == 0
    degree_p = component.num_cells // 4
    assert cover_report.degree == degree_p
    classes = face_classes(component.pc)
    tri = triangulate(component.pc, classes)
    assert verify_surface(tri.complex).ok
    assert euler_characteristic(component.pc, classes) == degree_p * (-2)
    report = verify_realization(realization_map(component, classes, tri))
    assert len(report.image_counts) == 48
    assert set(report.image_counts.values()) == {report.degree}
    assert report.degree > 0  # constant positive degree is the chain identity


@criterion(5, "full cover fiber identity", bound=10.0)
def test_fiber_identity():
    for builder in (corpus.hexagon_cycle, corpus.octahedron):
        bundle = ColoredPseudomanifold(*builder())
        expected = 1 << (bundle.n - 1)
        for w in proper_subsets(bundle.n):
            expected *= count_compatible_involutions(bundle, w)
        full = build_full(bundle)
        fibers = Counter(full.sigma.tolist())
        tops = range(len(bundle.complex.top_simplices))
        assert {fibers[s] for s in tops} == {expected}


def _det(m):
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [[Fraction(int(x)) for x in row] for row in m]
    k, sign = len(a), 1
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        det *= a[col][col]
        for r in range(col + 1, k):
            f = a[r][col] / a[col][col]
            for c in range(col, k):
                a[r][c] -= f * a[col][c]
    assert det.denominator == 1
    return sign * det.numerator


def _is_compatible(bundle, w, perm):
    """Defining property of the involutions for color set w, from scratch."""
    tops = bundle.complex.top_simplices
    if sorted(perm) != list(range(len(tops))):
        return False
    sides = bundle.parts
    for i, j in enumerate(perm):
        if j == i or perm[j] != i:
            return False
        if sides[i] == sides[j]:
            return False
        if face_of_colors(tops[i], w, bundle.coloring) \
                != face_of_colors(tops[j], w, bundle.coloring):
            return False
    return True


@criterion(6, "property suites", bound=60.0)
def test_property_suites():
    octa = ColoredPseudomanifold(*corpus.octahedron())
    full = build_full(octa)
    subsets = proper_subsets(octa.n)

    # facet crossing, read off the glue table, is an involution on cover
    # cells without fixed points
    cases = 0
    glue = full.pc.glue.tolist()
    for cell, row in enumerate(glue):
        for slot, other in enumerate(row):
            assert other != cell and glue[other][slot] == cell
            cases += 1
    assert cases >= 1000, cases

    # crossings along nested color sets commute
    cases = 0
    nested = [(a, b) for a, w1 in enumerate(subsets) for b, w2 in enumerate(subsets)
              if w1 != w2 and w1 & ~w2 == 0]
    for row in glue:
        for a, b in nested:
            assert glue[row[a]][b] == glue[row[b]][a]
            cases += 1
    assert cases >= 1000, cases

    # conjugating a compatible involution by one of a larger color set
    # lands back in the compatible set
    cases = 0
    sd_bundle, _ = colored_from_complex(corpus.boundary_delta(3))
    for bundle in (octa, sd_bundle):
        pools = {w: enumerate_compatible_involutions(bundle, w)
                 for w in proper_subsets(bundle.n)}
        for w, outer_pool in pools.items():
            for g, inner_pool in pools.items():
                if g & ~w:
                    continue
                for outer in outer_pool if len(outer_pool) < 4 else outer_pool[:2]:
                    for inner in inner_pool:
                        conjugated = tuple(
                            outer[inner[outer[i]]] for i in range(len(outer)))
                        assert _is_compatible(bundle, g, conjugated)
                        cases += len(conjugated)
    assert cases >= 1000, cases

    # the realization rule gives one face per identified class
    cases = 0
    classes = face_classes(full.pc)
    tops = octa.complex.top_simplices
    every_color = (1 << (octa.n + 1)) - 1
    for members in classes.members:
        images = {
            face_of_colors(tops[full.sigma[i]],
                           chain[0] if chain else every_color,
                           octa.coloring)
            for i, chain in members}
        assert len(images) == 1
        cases += len(members)
    assert cases >= 1000, cases

    # Smith normal form transforms are unimodular and exact
    rng = np.random.default_rng(20260819)
    cases = 0
    for _ in range(1000):
        rows, cols = rng.integers(1, 6, size=2)
        m = np.array(rng.integers(-9, 10, size=(rows, cols)),
                     dtype=object)
        form = smith_normal_form(m)
        assert abs(_det(form.u)) == 1
        assert abs(_det(form.v)) == 1
        cases += 1
    assert cases >= 1000, cases

    # boundary of boundary vanishes on every corpus complex
    cases = 0
    complexes = [
        corpus.octahedron()[0],
        triangulate(build_tomei(2)).complex,
        triangulate(build_component(octa).pc).complex,
        barycentric_subdivide(corpus.rp2_minimal()).complex,
        barycentric_subdivide(corpus.boundary_delta(3)).complex,
    ]
    for c in complexes:
        mats = boundary_matrices(c)
        for k in range(1, c.n):
            composite = mats[k] @ mats[k + 1]
            assert not np.count_nonzero(composite)
            cases += composite.size
    assert cases >= 1000, cases


@criterion(7, "negative inputs fail with witnesses", bound=10.0)
def test_negative_inputs():
    sd = barycentric_subdivide(corpus.rp2_minimal())
    try:
        orient(sd.complex)
        raise AssertionError("projective plane oriented")
    except NonOrientableError as e:
        assert e.witness is not None

    report = validate_pseudomanifold(corpus.two_triangles())
    assert not report.ok and report.boundary_faces

    octa = ColoredPseudomanifold(*corpus.octahedron())
    component = build_component(octa)
    g0 = component.g0.copy()
    g0[0] ^= 1
    corrupt = replace(component, g0=g0)
    try:
        verify_covering(corrupt)
        raise AssertionError("corrupt cover verified")
    except NotACoveringError:
        pass
