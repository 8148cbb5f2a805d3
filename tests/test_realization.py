"""Tests for the realization map and its chain identity.

The strongest facts verified here, all against independent bookkeeping:
the pushforward of the cover's fundamental cycle is a constant positive
multiple of the subdivided base cycle, the constant equals the number of
cover cells over each base simplex, and for the full cover it equals
2^(n-1) times the product of the compatible involution counts.
"""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

import dict_oracle
from cyclecover import corpus
from cyclecover.covering import build_component, build_full
from cyclecover.errors import DegreeNotConstantError, NotWellDefinedError
from cyclecover.involutions import predicted_multiplicity
from cyclecover.pseudomanifold import (
    ColoredPseudomanifold,
    barycentric_subdivide,
    colored_from_complex,
    is_coherent_orientation,
    orient,
    permutation_signs,
)
from cyclecover.realization import (
    realization_map,
    subdivided_cycle,
    verify_realization,
)


@pytest.fixture(scope="module")
def hex_cp():
    return ColoredPseudomanifold(*corpus.hexagon_cycle())


@pytest.fixture(scope="module")
def octa_cp():
    return ColoredPseudomanifold(*corpus.octahedron())


@pytest.fixture(scope="module")
def sd3_cp():
    bundle, _ = colored_from_complex(corpus.boundary_delta(3))
    return bundle


# ---------------------------------------------------------------------------
# permutation signs and the subdivided cycle

def reference_sign(seq):
    """Sign by explicit transposition sort."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        j = seq.index(min(seq[i:]), i)
        if j != i:
            seq[i], seq[j] = seq[j], seq[i]
            sign = -sign
    return sign


def test_permutation_sign_matches_reference():
    cases = 0
    for k in range(1, 6):
        orders = list(permutations(range(k)))
        signs = permutation_signs(np.array(orders)).tolist()
        for p, sign in zip(orders, signs):
            assert dict_oracle.permutation_sign(p) == reference_sign(p)
            assert sign == reference_sign(p)
            cases += 1
    assert cases == sum(math.factorial(k) for k in range(1, 6))
    assert dict_oracle.permutation_sign((10, 3, 7)) == reference_sign((10, 3, 7))
    assert permutation_signs(np.array([[10, 3, 7]])).tolist() == \
        [reference_sign((10, 3, 7))]


def boundary_vanishes(complex, signs):
    """Independent cycle test: the signed simplicial boundary is zero."""
    coeffs = {}
    for t, s in enumerate(complex.top_simplices):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            coeffs[face] = coeffs.get(face, 0) + signs[t] * (-1) ** i
    return all(c == 0 for c in coeffs.values())


@pytest.mark.parametrize("builder", [corpus.hexagon_cycle, corpus.octahedron])
def test_subdivided_cycle_is_a_cycle(builder):
    bundle = ColoredPseudomanifold(*builder())
    sd, signs = subdivided_cycle(bundle)
    assert signs.size == len(sd.complex.top_simplices)
    assert set(signs.ravel().tolist()) <= {1, -1}
    as_list = [0] * signs.size
    for t, sign in zip(sd.flag_top.ravel().tolist(), signs.ravel().tolist()):
        as_list[t] = sign
    assert boundary_vanishes(sd.complex, as_list)
    assert is_coherent_orientation(sd.complex, as_list)


def test_subdivided_cycle_flips_with_orientation(hex_cp):
    flipped = ColoredPseudomanifold(
        hex_cp.complex, hex_cp.coloring,
        orientation=[-s for s in hex_cp.orientation])
    _, signs = subdivided_cycle(hex_cp)
    _, flipped_signs = subdivided_cycle(flipped)
    assert np.array_equal(flipped_signs, -signs)


# ---------------------------------------------------------------------------
# the vertex map

def test_vertex_images_hexagon(hex_cp):
    cover = build_component(hex_cp)
    rmap = realization_map(cover)
    classes = rmap.classes
    # codim-0 classes: the cell itself, imaging to its whole base edge
    for cid in range(classes.codim_start[1]):
        (cell_index, chain), = classes.members[cid]
        assert chain == ()
        sigma = cover.sigma[cell_index]
        assert rmap.image_faces[cid] == hex_cp.complex.top_simplices[sigma]
    # codim-1 classes image to the shared vertex of the chain's color
    for cid in range(classes.codim_start[1], len(classes.members)):
        chain = classes.chain_of_class[cid]
        face = rmap.image_faces[cid]
        assert len(face) == 1
        assert 1 << (hex_cp.coloring[face[0]] - 1) == chain[0]


def test_vertex_map_rejects_inconsistent_cells(octa_cp):
    cover = build_component(octa_cp)
    # relabel the base simplex of pair 0, and so of its cells, with the
    # antipodal triangle: facet classes then straddle cells that share no
    # vertex
    sigma = cover.pair_sigma.copy()
    sigma[0] ^= 0b111
    broken = replace(cover, pair_sigma=sigma)
    with pytest.raises(NotWellDefinedError, match="distinct images"):
        realization_map(broken)


# ---------------------------------------------------------------------------
# degrees and the chain identity

def test_hexagon_degree_one(hex_cp):
    cover = build_component(hex_cp)
    report = verify_realization(realization_map(cover))
    assert report.degree == 1
    assert report.component_degrees == [1]
    assert report.degenerate_flags == 0
    assert report.nondegenerate_flags == 12
    assert predicted_multiplicity(hex_cp) == 1


def test_octahedron_component_degree(octa_cp):
    cover = build_component(octa_cp)
    rmap = realization_map(cover)
    report = verify_realization(rmap)
    assert report.degree == 2
    assert report.component_degrees == [2]
    # 16 cells, 12 flags each; exactly (n+1)! = 6 nondegenerate per cell
    assert report.degenerate_flags == 96
    assert report.nondegenerate_flags == 96
    assert is_coherent_orientation(rmap.tri.complex, report.orientation)
    # the degree is the number of cells over each base triangle
    assert set(np.bincount(cover.sigma).tolist()) == {report.degree}


def test_octahedron_full_realizes_predicted_multiplicity(octa_cp):
    cover = build_full(octa_cp)
    report = verify_realization(realization_map(cover))
    assert report.degree == 128
    assert report.degree == predicted_multiplicity(octa_cp)
    assert len(report.component_degrees) == 64
    assert set(report.component_degrees) == {2}
    assert report.degenerate_flags == 6144
    assert report.nondegenerate_flags == 6144
    assert len(report.orientation) == 12288


def test_subdivided_tetrahedron_component_degree(sd3_cp):
    cover = build_component(sd3_cp)
    report = verify_realization(realization_map(cover))
    # 432 cells over 24 base triangles
    assert report.degree == 18
    assert report.component_degrees == [18]
    assert report.nondegenerate_flags == 432 * 6
    assert report.degenerate_flags == 432 * 6


def test_flag_counts_decompose(octa_cp):
    cover = build_component(octa_cp)
    report = verify_realization(realization_map(cover))
    n = octa_cp.n
    flags_per_cell = math.factorial(n) * math.factorial(n + 1)
    total = cover.num_cells * flags_per_cell
    assert report.degenerate_flags + report.nondegenerate_flags == total
    assert report.nondegenerate_flags == cover.num_cells * math.factorial(n + 1)


def test_predicted_multiplicity_subdivided_tetrahedron(sd3_cp):
    assert predicted_multiplicity(sd3_cp) == 2 * 1296 * 64 * 1296 == 214_990_848
    sd_octa, _ = colored_from_complex(corpus.octahedron()[0])  # 48 triangles
    assert predicted_multiplicity(sd_octa) == 2_629_465_015_396_073_472


def test_corrupted_images_fail_chain_identity(hex_cp):
    cover = build_component(hex_cp)
    rmap = realization_map(cover)
    a = rmap.classes.codim_start[1]
    images = list(rmap.vertex_images)
    # send one barycentric vertex somewhere else of the same codimension
    other = next(i for i in range(a, len(images)) if images[i] != images[a])
    rmap.vertex_images[a] = images[other]
    with pytest.raises(DegreeNotConstantError):
        verify_realization(rmap)
