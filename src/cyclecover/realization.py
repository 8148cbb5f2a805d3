"""The realization map from a covering manifold onto the base cycle.

The cover's triangulation K has one vertex per face class.  A class with
chain (w_1 < ... < w_k) inside a cell over top simplex s maps to the face of
s spanned by the colors of w_1, a vertex of the barycentric subdivision of
the base; the empty chain maps to s itself.  Crossing a facet labelled w
preserves every vertex with color in w, and w contains the chain minimum, so
the image is the same for all members of a class.  The map is checked here
rather than trusted: member agreement, weak simpliciality along flags, and
finally the chain identity

    f_#(fundamental cycle of K) = degree * (subdivided fundamental cycle)

with the degree constant, positive, and realized without cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import prod

import numpy as np

from .cells import FaceClasses, Triangulation, face_classes, triangulate
from .covering import CoverComplex
from .errors import DegreeNotConstantError, NotWellDefinedError
from .involutions import count_compatible_involutions
from .permutahedron import full_mask, proper_subsets
from .pseudomanifold import (
    BarycentricSubdivision,
    ColoredPseudomanifold,
    Simplex,
    barycentric_subdivide,
    face_of_colors,
    is_coherent_orientation,
    orient,
)


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting a sequence of distinct comparables."""
    inversions = sum(1 for i in range(len(seq))
                     for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def subdivided_cycle(bundle: ColoredPseudomanifold,
                     sd: BarycentricSubdivision | None = None):
    """The fundamental cycle of the barycentric subdivision induced by the
    bundle's orientation: the flag through vertex order (u_1, ..., u_{n+1})
    of an oriented top simplex inherits the sign of that order.

    Returns (sd, {top simplex of sd: +1 or -1}); the assignment is verified
    to be a coherent orientation, so it really is a fundamental cycle.
    """
    if sd is None:
        sd = barycentric_subdivide(bundle.complex)
    signs: dict[Simplex, int] = {}
    for i, s in enumerate(bundle.complex.top_simplices):
        rank = {v: r for r, v in enumerate(s)}
        for top in _flags_of(s, sd):
            order = _vertex_order(top, sd)
            signs[top] = bundle.orientation[i] * permutation_sign(
                [rank[v] for v in order])
    index = {t: k for k, t in enumerate(sd.complex.top_simplices)}
    if set(signs) != set(index):
        raise NotWellDefinedError("flag enumeration missed subdivision simplices")
    as_list = [0] * len(index)
    for t, sign in signs.items():
        as_list[index[t]] = sign
    if not is_coherent_orientation(sd.complex, as_list):
        raise NotWellDefinedError("induced subdivision cycle is not coherent")
    return sd, signs


def _flags_of(s: Simplex, sd: BarycentricSubdivision):
    """Top simplices of the subdivision lying inside top simplex s, one per
    vertex order, as ascending face-id tuples."""
    for order in permutations(s):
        yield tuple(sd.face_ids[tuple(sorted(order[:k + 1]))]
                    for k in range(len(s)))


def _vertex_order(top: Simplex, sd: BarycentricSubdivision):
    """Recover the vertex insertion order of a flag simplex."""
    prev: set[int] = set()
    order = []
    for fid in top:
        face = set(sd.faces[fid])
        added = face - prev
        if len(added) != 1:
            raise NotWellDefinedError(f"simplex {top} is not a flag")
        order.append(added.pop())
        prev = face
    return order


@dataclass
class RealizationMap:
    """Simplicial map data: cover triangulation K, subdivided base, and the
    image vertex (a face of the base) for every face class of the cover."""

    cover: CoverComplex
    classes: FaceClasses
    tri: Triangulation
    target: BarycentricSubdivision
    image_faces: list[Simplex]
    vertex_images: list[int]

    @property
    def bundle(self) -> ColoredPseudomanifold:
        return self.cover.cp


def realization_map(cover: CoverComplex,
                    classes: FaceClasses | None = None,
                    tri: Triangulation | None = None,
                    sd: BarycentricSubdivision | None = None) -> RealizationMap:
    """Build the vertex map and certify it is well defined and weakly
    simplicial.  Every member of every face class is checked."""
    bundle = cover.cp
    if classes is None:
        classes = face_classes(cover.pc)
    if tri is None:
        tri = triangulate(cover.pc, classes)
    if sd is None:
        sd = barycentric_subdivide(bundle.complex)

    # the image of (cell, chain) is the face of the cell's simplex spanned
    # by the colors of the chain minimum (all colors for the empty chain);
    # scatter it per class, then check every member agrees with its class
    sigma = np.array([cell.sigma for cell in cover.cells], dtype=np.int64)
    image = np.empty(classes.num_classes, dtype=np.int64)
    face_tables: dict[int, np.ndarray] = {}
    for row, chain in enumerate(classes.chains):
        colors = chain[0] if chain else full_mask(bundle.n)
        if colors not in face_tables:
            face_tables[colors] = np.array([
                sd.face_ids[face_of_colors(s, colors, bundle.coloring)]
                for s in bundle.complex.top_simplices], dtype=np.int64)
        wanted = face_tables[colors][sigma]
        ids = classes.class_ids[row]
        image[ids] = wanted
        split = image[ids] != wanted
        if split.any():
            cid = int(ids[split].min())
            raise NotWellDefinedError(
                f"face class {cid} with chain {chain} has "
                f"{len(set(wanted[ids == cid].tolist()))} distinct images")
    vertex_images = image.tolist()
    image_faces = [sd.faces[v] for v in vertex_images]

    # weak simpliciality: along each flag the images are weakly nested
    face_sets = [frozenset(f) for f in image_faces]
    for top in tri.complex.top_simplices:
        for small, large in zip(top[1:], top):
            if not face_sets[small] <= face_sets[large]:
                raise NotWellDefinedError(
                    f"flag {top} has non-nested image faces")
    return RealizationMap(cover, classes, tri, sd, image_faces, vertex_images)


@dataclass
class RealizationReport:
    """Outcome of the chain identity check.

    ``degree`` is the total multiplicity: the image of the fundamental cycle
    of K equals degree times the subdivided fundamental cycle of the base.
    ``orientation`` is the coherent orientation of K normalized per
    component so every component pushes forward positively.
    """

    degree: int
    component_degrees: list[int]
    orientation: list[int]
    degenerate_flags: int
    nondegenerate_flags: int
    image_counts: dict[Simplex, int]


def verify_realization(rmap: RealizationMap,
                       orientation: list[int] | None = None) -> RealizationReport:
    """Push the fundamental cycle of K through the map and compare it,
    coefficient by coefficient and component by component, against the
    subdivided fundamental cycle of the base.  ``orientation`` may hand in
    the coherent orientation of K that ``orient`` already returned."""
    tri, sd = rmap.tri, rmap.target
    _, signs = subdivided_cycle(rmap.bundle, sd)
    if orientation is None:
        orientation = orient(tri.complex)

    component = _cell_components(rmap.cover)
    num_components = max(component) + 1 if component else 0
    # coefficients and bare counts per (component, image simplex)
    coeffs = [dict() for _ in range(num_components)]
    counts = [dict() for _ in range(num_components)]
    degenerate = 0
    for t, top in enumerate(tri.complex.top_simplices):
        images = [rmap.vertex_images[v] for v in top]
        if len(set(images)) != len(images):
            degenerate += 1
            continue
        image = tuple(sorted(images))
        comp = component[tri.cell_of_top(top)]
        sign = orientation[t] * permutation_sign(images)
        coeffs[comp][image] = coeffs[comp].get(image, 0) + sign
        counts[comp][image] = counts[comp].get(image, 0) + 1

    component_degrees = []
    flip = []
    for comp in range(num_components):
        degree = None
        for image, expected_sign in signs.items():
            c = coeffs[comp].get(image, 0)
            value = c * expected_sign
            if degree is None:
                degree = value
            if value != degree:
                raise DegreeNotConstantError(
                    f"component {comp} hits {image} with coefficient {c}, "
                    f"expected {degree * expected_sign}",
                    witness=(comp, image, c))
            if abs(c) != counts[comp].get(image, 0):
                raise DegreeNotConstantError(
                    f"component {comp} has cancelling flags over {image}",
                    witness=(comp, image, c))
        if coeffs[comp].keys() - signs.keys():
            stray = next(iter(coeffs[comp].keys() - signs.keys()))
            raise DegreeNotConstantError(
                f"component {comp} maps onto {stray}, not a subdivision simplex",
                witness=(comp, stray, coeffs[comp][stray]))
        if degree == 0:
            raise DegreeNotConstantError(
                f"component {comp} pushes forward to zero",
                witness=(comp, None, 0))
        flip.append(-1 if degree < 0 else 1)
        component_degrees.append(abs(degree))

    normalized = [orientation[t] * flip[component[tri.cell_of_top(top)]]
                  for t, top in enumerate(tri.complex.top_simplices)]
    total = sum(component_degrees)

    # the chain identity, restated globally with the normalized orientation
    pushed: dict[Simplex, int] = {}
    for comp in range(num_components):
        for image, c in coeffs[comp].items():
            pushed[image] = pushed.get(image, 0) + c * flip[comp]
    if pushed != {image: total * sign for image, sign in signs.items()}:
        raise DegreeNotConstantError("chain identity failed after normalization",
                                     witness=None)

    image_counts: dict[Simplex, int] = {}
    for comp in range(num_components):
        for image, k in counts[comp].items():
            image_counts[image] = image_counts.get(image, 0) + k
    if set(image_counts.values()) != ({total} if image_counts else set()):
        raise DegreeNotConstantError("preimage counts are not constant",
                                     witness=None)

    return RealizationReport(
        degree=total,
        component_degrees=component_degrees,
        orientation=normalized,
        degenerate_flags=degenerate,
        nondegenerate_flags=len(tri.complex.top_simplices) - degenerate,
        image_counts=image_counts,
    )


def _cell_components(cover: CoverComplex) -> list[int]:
    """Connected component index of each cover cell, in first-seen order.

    Every cell takes the least label among itself and its neighbors, then
    the label of its label, until nothing moves; each cell is then labelled
    by the lowest cell of its component."""
    glue = cover.pc.glue
    label = np.arange(cover.num_cells)
    while True:
        lowest = np.minimum(label, label[glue].min(axis=1))
        lowest = lowest[lowest]
        if np.array_equal(lowest, label):
            break
        label = lowest
    return np.unique(label, return_inverse=True)[1].tolist()


def predicted_multiplicity(bundle: ColoredPseudomanifold) -> int:
    """The multiplicity realized by the full cover: 2^(n-1) times the
    product over proper color subsets of the number of compatible
    involutions."""
    return (1 << (bundle.n - 1)) * prod(
        count_compatible_involutions(bundle, w) for w in proper_subsets(bundle.n))
