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

These functions work on the triangulation of the cover, which has
n!(n+1)! top simplices per cell.  ``verify`` certifies the same claims
without it, on one permutahedron's flag template and the cover's cell
arrays (``certificate``); the functions here serve library use on small
covers and are the reference the tests compare that certificate against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .cells import (
    FaceClasses,
    Triangulation,
    cell_components,
    face_classes,
    triangulate,
)
from .certificate import RealizationReport
from .covering import CoverComplex
from .errors import DegreeNotConstantError, NotWellDefinedError
from .permutahedron import full_mask
from .pseudomanifold import (
    BarycentricSubdivision,
    ColoredPseudomanifold,
    Simplex,
    barycentric_subdivide,
    group_rows,
    is_coherent_orientation,
    orient,
    permutation_signs,
)


def subdivided_cycle(bundle: ColoredPseudomanifold,
                     sd: BarycentricSubdivision | None = None):
    """The fundamental cycle of the barycentric subdivision induced by the
    bundle's orientation: the flag through vertex order (u_1, ..., u_{n+1})
    of an oriented top simplex inherits the sign of that order.

    Returns (sd, signs): ``signs[t, a]`` is the sign of the flag of top t in
    vertex order a, which is subdivision top ``sd.flag_top[t, a]``.  Read
    per subdivision top, the signs are verified to be a coherent
    orientation, so they really are a fundamental cycle.
    """
    if sd is None:
        sd = barycentric_subdivide(bundle.complex)
    orders = np.array(list(permutations(range(bundle.n + 1))))
    signs = np.asarray(bundle.orientation)[:, None] * permutation_signs(orders)
    tops = len(sd.complex.tops)
    if sd.flag_top.shape != signs.shape or (
            np.bincount(sd.flag_top.ravel(), minlength=tops) != 1).any():
        raise NotWellDefinedError("flag enumeration missed subdivision simplices")
    per_top = np.empty(tops, dtype=np.int64)
    per_top[sd.flag_top] = signs
    if not is_coherent_orientation(sd.complex, per_top):
        raise NotWellDefinedError("induced subdivision cycle is not coherent")
    return sd, signs


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
    # by the colors of the chain minimum (all colors for the empty chain):
    # vertex[s, w], read from the id table at the mask of the positions of
    # the colors of w in top s.  Scatter it per class, then check every
    # member agrees with its class
    colors = np.asarray(bundle.coloring)[bundle.complex.tops] - 1
    masks = np.arange(1 << (bundle.n + 1))[:, None]
    positions = (masks >> colors[:, None, :] & 1) @ (1 << np.arange(bundle.n + 1))
    vertex = np.take_along_axis(sd.ids, positions, axis=1)
    sigma = cover.sigma
    image = np.empty(classes.num_classes, dtype=np.int64)
    for row, chain in enumerate(classes.chains):
        wanted = vertex[sigma, chain[0] if chain else full_mask(bundle.n)]
        ids = classes.class_ids[row]
        image[ids] = wanted
        split = image[ids] != wanted
        if split.any():
            cid = int(ids[split].min())
            raise NotWellDefinedError(
                f"face class {cid} with chain {chain} has "
                f"{len(set(wanted[ids == cid].tolist()))} distinct images")
    vertex_images = image.tolist()
    faces = [tuple(f) for level in sd.faces for f in level.tolist()]
    image_faces = [faces[v] for v in vertex_images]

    # weak simpliciality: along each flag the images are weakly nested;
    # each distinct (smaller, larger) pair of image vertices is checked once
    face_sets = [frozenset(f) for f in faces]
    tops = tri.complex.tops
    pairs, pair_of = np.unique(
        (image[tops[:, 1:]] * len(face_sets) + image[tops[:, :-1]]).ravel(),
        return_inverse=True)
    nested = np.array([face_sets[p // len(face_sets)] <= face_sets[p % len(face_sets)]
                       for p in pairs.tolist()], dtype=bool)
    if not nested.all():
        where = int(np.flatnonzero(~nested[pair_of])[0]) // tri.complex.n
        raise NotWellDefinedError(
            f"flag {tri.complex.top_simplices[where]} has non-nested image faces")
    return RealizationMap(cover, classes, tri, sd, image_faces, vertex_images)


def verify_realization(rmap: RealizationMap,
                       orientation: list[int] | None = None) -> RealizationReport:
    """Push the fundamental cycle of K through the map and compare it,
    coefficient by coefficient and component by component, against the
    subdivided fundamental cycle of the base.  ``orientation`` may hand in
    the coherent orientation of K that ``orient`` already returned.

    Top simplices of K are whole-array rows: their images, degeneracy and
    permutation signs are computed at once, and the coefficients and bare
    counts are summed per (component, image simplex) key.
    """
    tri, target = rmap.tri, rmap.target.complex
    _, signs = subdivided_cycle(rmap.bundle, rmap.target)
    if orientation is None:
        orientation = orient(tri.complex)
    orientation = np.asarray(orientation, dtype=np.int64)
    # expected[s]: sign of subdivision top s in the base cycle; the checks
    # visit the subdivision tops in the cycle's flag order
    visit = rmap.target.flag_top.ravel()
    expected = np.empty(len(visit), dtype=np.int64)
    expected[visit] = signs.ravel()

    component = cell_components(rmap.cover.pc)[tri.cell_of_top]
    num_components = int(component.max()) + 1
    images = np.asarray(rmap.vertex_images, dtype=np.int64)[tri.complex.tops]
    ordered = np.sort(images, axis=1)
    live = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    degenerate = int(len(live) - live.sum())
    sign = orientation * permutation_signs(images)
    simplex = np.full(len(live), -1, dtype=np.int64)
    simplex[live] = _row_index(target.tops, ordered[live], target.num_vertices)
    stray = live & (simplex < 0)

    # coefficients and bare counts per (component, image simplex) key
    hit = live & ~stray
    keys, inverse = np.unique(component[hit] * len(visit) + simplex[hit],
                              return_inverse=True)
    coeffs = np.bincount(inverse, weights=sign[hit]).astype(np.int64)
    counts = np.bincount(inverse)
    key_comp, key_simplex = np.divmod(keys, len(visit))

    # each component's degree is its value on the first visited simplex
    at_first = key_simplex == visit[0]
    degree = np.bincount(key_comp[at_first], weights=coeffs[at_first],
                         minlength=num_components).astype(np.int64)
    degree *= expected[visit[0]]
    values = coeffs * expected[key_simplex]
    wrong = (values != degree[key_comp]) | (np.abs(coeffs) != counts)
    failed = np.bincount(key_comp[wrong], minlength=num_components) > 0
    missed = np.bincount(key_comp, minlength=num_components) < len(visit)
    failed |= missed & (degree != 0)
    failed |= np.bincount(component[stray], minlength=num_components) > 0
    failed |= degree == 0
    if failed.any():
        comp = int(np.flatnonzero(failed)[0])
        _raise_component_failure(comp, keys, coeffs, counts, expected, visit,
                                 target, ordered[stray & (component == comp)],
                                 sign[stray & (component == comp)])

    flip = np.where(degree < 0, -1, 1)
    component_degrees = np.abs(degree).tolist()
    total = sum(component_degrees)

    # the chain identity, restated globally with the normalized orientation
    pushed = np.bincount(key_simplex, weights=coeffs * flip[key_comp],
                         minlength=len(visit))
    if not np.array_equal(pushed, total * expected):
        raise DegreeNotConstantError("chain identity failed after normalization",
                                     witness=None)

    covered = np.bincount(key_simplex, weights=counts,
                          minlength=len(visit)).astype(np.int64)
    image_counts = {target.top_simplices[s]: k
                    for s, k in enumerate(covered.tolist()) if k}
    if set(image_counts.values()) != ({total} if image_counts else set()):
        raise DegreeNotConstantError("preimage counts are not constant",
                                     witness=None)

    return RealizationReport(
        degree=total,
        component_degrees=component_degrees,
        orientation=(orientation * flip[component]).tolist(),
        degenerate_flags=degenerate,
        nondegenerate_flags=len(tri.complex.tops) - degenerate,
        image_counts=image_counts,
    )


def _raise_component_failure(comp, keys, coeffs, counts, expected, visit,
                             target, stray_images, stray_signs):
    """Raise the first failure of one component, checked in the order of
    the per-simplex loop: every visited simplex (coefficient, then
    cancellation), then images outside the subdivision, then degree zero."""
    size = len(visit)
    mine = keys // size == comp
    coeff = np.zeros(size, dtype=np.int64)
    count = np.zeros(size, dtype=np.int64)
    coeff[keys[mine] % size] = coeffs[mine]
    count[keys[mine] % size] = counts[mine]
    values = coeff * expected
    degree = int(values[visit[0]])
    for s in visit.tolist():
        image, c = target.top_simplices[s], int(coeff[s])
        if values[s] != degree:
            raise DegreeNotConstantError(
                f"component {comp} hits {image} with coefficient {c}, "
                f"expected {degree * int(expected[s])}",
                witness=(comp, image, c))
        if abs(c) != count[s]:
            raise DegreeNotConstantError(
                f"component {comp} has cancelling flags over {image}",
                witness=(comp, image, c))
    if len(stray_images):
        stray = min(map(tuple, stray_images.tolist()))
        c = int(stray_signs[(stray_images == stray).all(axis=1)].sum())
        raise DegreeNotConstantError(
            f"component {comp} maps onto {stray}, not a subdivision simplex",
            witness=(comp, stray, c))
    raise DegreeNotConstantError(
        f"component {comp} pushes forward to zero",
        witness=(comp, None, 0))


def _row_index(table: np.ndarray, rows: np.ndarray, bound: int) -> np.ndarray:
    """Index of each row in a table of distinct rows, -1 where absent."""
    ids, _ = group_rows(np.concatenate([table, rows]), bound)
    where = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    where[ids[:len(table)]] = np.arange(len(table))
    return where[ids[len(table):]]
