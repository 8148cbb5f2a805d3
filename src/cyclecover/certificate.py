"""The realization certificate, read off one permutahedron and the cover's
monodromy, without triangulating the cover or expanding its cells.

The cover K is a small cover in the sense of Davis and Januszkiewicz: each
cell is one permutahedron, glued to its neighbours by the identity on the
permutahedron coordinate.  Its barycentric triangulation is therefore one
template, the flag triangulation of one permutahedron
(``permutahedron.flag_template``, n!(n+1)! flags), repeated over the
cells.  A top simplex of K is a pair (cell, template flag), and its
vertices are the face classes of the flag's chains in that cell.  Class
ids run codimension first, so sorting a top's class ids puts its vertices
in flag order, the empty chain first; every statement below reads a flag
in that order.  Each claim that ``realization_map`` and
``verify_realization`` check on K is restated here as a check on the
template, which is small, and a check on the cover's pairs x = (tuple,
sigma), with their lifts g0 and glue pi_w, one gather per facet slot: the
cells over x are (x, g0(x) + h), h in the even group H, and cross F_w to
cells over pi_w x (``CoverComplex``).

*Closed pseudomanifold.*  An (n-1)-simplex of K is a flag of one cell with
one chain dropped.  If the dropped chain c_k is not the empty one, every
top through the simplex has the same cell (the empty chain's class is the
cell itself) and the same remaining chains, so the tops through it are the
template flags through the template face, two if the template is closed
there.  If the empty chain is dropped, every remaining chain contains the
subset w of c_1, the facet F_w, so the simplex is also the face of the
same flag in the cell glued across w, and of no other: the class of
(cell, c_1) has exactly the two members cell and glue[cell, w].  That class
size follows from the covering check, which shows that every class of
codimension k has 2^k members (``covering.verify_covering``); that
gluings are fixed-point-free involutions which commute across nested
facets is checked when the complex is built.  So every (n-1)-simplex of K
lies in exactly two tops once the template's boundary is exactly the flags
with the empty chain dropped, each once and inside F_{c_1}, and every other
template face lies in two flags; ``template_is_closed`` checks that.  The
two ways ``triangulate`` can fail cannot occur: the chains of a flag have
different lengths, so their class ids differ and no flag collapses, and
the class ids of a top name its cell and its chains, so no two (cell,
flag) pairs give the same simplex.  The class sizes also give the number
of classes, cells / 2^k for each chain of length k (``class_counts``), and
with it the Euler characteristic.

*Surface (n = 2).*  A vertex of K is a face class with 2^k members.  Its
link is 2^k copies of its template link glued end to end, which
``template_is_surface`` checks to be the 12-cycle round the hexagon's
centre, and for an edge or a vertex of the hexagon a path of two edges
through the centre that ends in chains through the same facets: a 4-cycle
and an 8-cycle in K.

*Orientation.*  epsilon(cell, f) = (-1)^|g| tau(f), with tau(f) the sign
of the flag's color permutation times that of its insertion order.  Two
flags across an interior template face drop the same position, so
epsilon is coherent there when tau flips; across F_w the same flag meets
itself in the cell glued across w, so epsilon is coherent there when the
parity of g flips: on the pairs, when that of g0 flips across the edge
(x, w), that is when its holonomy g0(x) + e_|w| + g0(pi_w x) is even,
e_|w| being one bit.  ``is_oriented`` checks tau and the holonomies cached
with the cover.  The second also follows from the covering check: the
parity of g0 is the part of sigma, which flips.

*Well-definedness.*  A class of (cell, chain) maps to the face of sigma
spanned by the colors of the chain's least subset w_1 (all colors for the
empty chain).  Its members are reached by crossings across subsets of the
chain, all of which contain w_1, so the image is the same on every member
exactly when crossing any F_w keeps the face of sigma spanned by w:
``check_well_defined`` compares those faces, as vertices of the subdivided
base, across every pair glue entry.  Along a flag the least subsets
shrink, so the images are nested faces; that is checked on the template.

*The Tomei manifold.*  M^n covers itself, with its cells g for the pairs
and g for g0.  ``glued_as_tomei`` checks the glue, g to g + e_|w|, which
gives the class sizes and holonomies 0, so the claims above hold on it.
Its triangulation is connected when the template's flags connect through
interior faces (``template_is_connected``): the e_|w| connect the cells,
and a cell's flags include one through each facet, which meets the same
flag across.

*Chain identity.*  In color coordinates a flag's image depends on the flag
alone: the color sets W_0 = all colors, W_k = the least subset of c_k.  The
flag is nondegenerate exactly when the W_k drop one color at a time, that
is when they spell a color order, and its image is then the flag of the
subdivided sigma in that order.  The template flags are pushed onto the
(n+1)! color orders once, with their signs; each must be hit once.  The
pushforward of K to a flag of sigma is then the template coefficient times
the signed count of the cells over sigma in each component, so the
coefficients, the bare counts and the checks of ``verify_realization`` are
taken per (component, sigma) from one ``bincount`` over the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import CoverComplex, parity_signs
from .errors import (
    DegreeNotConstantError,
    NonOrientableError,
    NotWellDefinedError,
)
from .permutahedron import FlagTemplate
from .pseudomanifold import Simplex, lowest_labels, permutation_signs


def template_is_closed(t: FlagTemplate) -> bool:
    """Is every face of the template in two flags, except the faces without
    the empty chain, each in one flag and inside the facet F_w of the
    flag's first chain (w)?"""
    facet, counts = t.facets
    # member[r, slot]: chain r holds the subset in that slot; a chain is
    # its prefix and its last subset, and prefixes are shorter
    member = np.zeros((len(t.chains), (1 << (t.n + 1)) - 2), dtype=bool)
    length = np.array([len(chain) for chain in t.chains])
    for k in range(1, t.n + 1):
        rows = np.flatnonzero(length == k)
        member[rows] = member[t.prefix[rows]]
        member[rows, t.last[rows]] = True
    first = t.last[t.flags[:, 1]]  # the slot of the first chain's subset
    inside = (first >= 0).all() and member[t.flags[:, 1:], first[:, None]].all()
    return bool(inside and (counts[facet[:, 0]] == 1).all()
                and (counts[facet[:, 1:]] == 2).all())


def _is_cycle(edges: list[tuple[int, int]], length: int) -> bool:
    """Do the edges form one cycle of the given length?"""
    around: dict[int, list[int]] = {}
    for a, b in edges:
        around.setdefault(a, []).append(b)
        around.setdefault(b, []).append(a)
    if len(edges) != length or any(len(x) != 2 for x in around.values()):
        return False
    start, prev, here, steps = edges[0][0], edges[0][0], edges[0][1], 1
    while here != start:
        a, b = around[here]
        prev, here = here, a if b == prev else b
        steps += 1
    return steps == length


def template_is_surface(t: FlagTemplate) -> bool:
    """For n = 2, is every vertex link of the cover one cycle?

    The link of the centre must be the 12-cycle of the hexagon's boundary.
    The link of an edge or a vertex of the hexagon must be a path of two
    edges through the centre, ending in two chains that contain the
    vertex's chain or lie in it.  The 2^k members of the vertex's class
    then glue 2^k copies of the path end to end, across the facets of the
    chain: a 4-cycle round an edge class and an 8-cycle round a vertex
    class.
    """
    links: list[list[tuple[int, int]]] = [[] for _ in t.chains]
    for flag in t.flags.tolist():
        for k, row in enumerate(flag):
            links[row].append(tuple(flag[:k] + flag[k + 1:]))
    if not _is_cycle(links[0], 12):
        return False
    for row in range(1, len(t.chains)):
        chain = set(t.chains[row])
        ends = [b for a, b in links[row] if a == 0]
        if len(links[row]) != 2 or len(ends) != 2 or ends[0] == ends[1]:
            return False
        if not all(chain <= set(t.chains[e]) or set(t.chains[e]) <= chain
                   for e in ends):
            return False
    return True


def template_is_connected(t: FlagTemplate) -> bool:
    """Do the flags of a closed template (``template_is_closed``) connect
    through its interior faces?  Each interior face is in two flags, which
    sit side by side once the faces are sorted."""
    interior = t.facets[0][:, 1:]
    order = np.argsort(interior, axis=None, kind="stable")
    across = np.empty(interior.size, dtype=np.int64)
    across[order[0::2]], across[order[1::2]] = order[1::2], order[0::2]
    return not lowest_labels((across // t.n).reshape(interior.shape)).any()


def is_oriented(t: FlagTemplate, holonomies: np.ndarray) -> bool:
    """Is epsilon(cell, f) = (-1)^|g| tau(f) coherent on the triangulation
    of a cover, or of M^n, with these holonomies (``covering.holonomy``)?
    tau must flip across every interior face of the template, and every
    holonomy must be even (for a cover, implied by the parity and part
    checks of ``verify_covering``)."""
    facet, counts = t.facets
    interior = facet[:, 1:].ravel()
    turn = np.bincount(interior, weights=np.repeat(t.sign, t.n),
                       minlength=len(counts))
    if turn[interior].any():
        return False
    return bool((parity_signs(t.n)[holonomies] > 0).all())


def class_counts(t: FlagTemplate, num_cells: int) -> list[int]:
    """The cover's face classes per codimension.  The covering check shows
    that every class of a chain of length k has 2^k members
    (``covering.verify_covering``), so the chain has
    num_cells / 2^k classes."""
    faces = np.bincount([len(chain) for chain in t.chains])
    return [f * (num_cells >> k) for k, f in enumerate(faces.tolist())]


def check_well_defined(cover: CoverComplex, t: FlagTemplate,
                       vertex: np.ndarray) -> None:
    """Certify that every face class has one image and that the images
    along every flag are nested faces.  ``vertex`` is the ``face_ids``
    table of the bundle's ``by_color`` rows: ``vertex[s, w]`` is the vertex
    of the subdivided base at the face of top s spanned by the colors of w,
    numbered as ``barycentric_subdivide`` numbers it.  Raises
    ``NotWellDefinedError`` naming the class that ``realization_map``
    names: the lowest class of the first chain (w) whose two members image
    to different faces.

    A cell is split when its pair is, so the lowest split cell is x |H|,
    x the lowest split pair.  Its class id is read off the pair glue column
    of w, as ``face_classes`` numbers it: the cells come first, one class
    each, then the classes of the chains (w), cells / 2 per chain in slot
    order, and a chain's classes rank by their lowest cells.  The lowest
    split cell is the lowest of its class, since its partner is split as
    well, and |H| classes rank below it per pair y < x with pi_w y > y.
    """
    nested = (t.colors[:, 1:] & ~t.colors[:, :-1]) == 0
    if not nested.all():
        f = int(np.flatnonzero(~nested.all(axis=1))[0])
        raise NotWellDefinedError(
            f"template flag {f} has non-nested image faces")
    cells, size = cover.num_cells, 1 << len(cover.basis)
    for slot, w in enumerate(cover.pairs.subsets):
        column = cover.pairs.glue[:, slot]
        image = vertex[:, w][cover.pair_sigma]
        split = np.take(image, column) != image
        if split.any():
            low = int(np.argmax(split))
            rank = size * np.count_nonzero(column[:low] > np.arange(low))
            cid = cells + slot * (cells // 2) + rank
            raise NotWellDefinedError(
                f"face class {cid} with chain {(w,)} has 2 distinct images")


@dataclass
class RealizationReport:
    """Outcome of the chain identity check.

    ``degree`` is the total multiplicity: the image of the fundamental cycle
    of K equals degree times the subdivided fundamental cycle of the base.
    ``orientation`` is the coherent orientation of K normalized per
    component so every component pushes forward positively, one sign per
    top simplex; it is None when the identity was certified without
    triangulating K (``push_forward``).
    """

    degree: int
    component_degrees: list[int]
    orientation: list[int] | None
    degenerate_flags: int
    nondegenerate_flags: int
    image_counts: dict[Simplex, int]


def push_forward(cover: CoverComplex, t: FlagTemplate, vertex: np.ndarray,
                 oriented: bool) -> RealizationReport:
    """Push the fundamental cycle of the cover through the realization map
    and compare it, component by component, with the subdivided
    fundamental cycle of the base, as ``verify_realization`` does.

    A nondegenerate template flag f spelling the color order a sends
    (cell, f) to the flag of the subdivided sigma in order a, with sign
    epsilon(cell, f) times the sign of the reversal, since its image
    vertices come in decreasing dimension.  Each order is spelled by one
    flag, so a component's coefficient there is the template sign times
    the signed count of its cells over sigma, and its bare count is the
    plain count.  Compared with the base cycle, the coefficient over each
    flag of sigma must be the component's degree times the base sign.
    Counted on the pairs: the cells over x have the sign of g0(x), and a
    pair component C of rank r (``CoverComplex.components``) carries
    2^(rank H - r) alike cell components with 2^r cells over each pair.
    """
    if not oriented:
        raise NonOrientableError(
            "the cover has no coherent orientation to push forward", None)
    bundle = cover.cp
    n, count = bundle.n, bundle.top_count
    live = t.spells >= 0
    if (np.bincount(t.spells[live], minlength=len(t.orders)) != 1).any():
        raise DegreeNotConstantError(
            "template flags do not spell every color order once", witness=None)
    unit = np.empty(len(t.orders), dtype=np.int64)
    unit[t.spells[live]] = (-1) ** (n * (n + 1) // 2) * t.sign[live]

    # the base cycle on the flag of top s in color order a, and that flag
    colors = np.asarray(bundle.coloring)[bundle.complex.tops]
    rank = np.argsort(colors, axis=1)  # place of each color's vertex
    expected = np.asarray(bundle.orientation)[:, None] * permutation_signs(
        rank[:, t.orders - 1].reshape(-1, n + 1)).reshape(count, -1)
    base_flags = vertex[:, np.cumsum(1 << (t.orders - 1), axis=1)]
    per_top = unit * expected
    mixed = (per_top != per_top[:, :1]).any(axis=1)
    if mixed.any():
        s = int(np.flatnonzero(mixed)[0])
        raise DegreeNotConstantError(
            f"the template meets the base cycle with both signs over top "
            f"simplex {s}", witness=None)
    unit_of_top = per_top[:, 0]

    # per (pair component, sigma): the fibres of each cell component over it
    label, rank = cover.components
    num_components = len(rank)
    copies = 1 << (len(cover.basis) - rank)
    keys, inverse = np.unique(label * count + cover.pair_sigma,
                              return_inverse=True)
    key_comp, key_top = np.divmod(keys, count)
    fiber = np.bincount(inverse) << rank[key_comp]
    signed = np.bincount(inverse, weights=parity_signs(n)[cover.g0]).astype(
        np.int64) << rank[key_comp]
    value = signed * unit_of_top[key_top]
    at_first = key_top == 0
    degree = np.bincount(key_comp[at_first], weights=value[at_first],
                         minlength=num_components).astype(np.int64)
    wrong = (value != degree[key_comp]) | (np.abs(signed) != fiber)
    failed = np.bincount(key_comp[wrong], minlength=num_components) > 0
    missed = np.bincount(key_comp, minlength=num_components) < count
    failed |= (missed & (degree != 0)) | (degree == 0)
    if failed.any():
        comp = int(np.flatnonzero(failed)[0])
        mine = key_comp == comp
        _raise_component_failure(int(copies[:comp].sum()), key_top[mine],
                                 value[mine], signed[mine], fiber[mine],
                                 colors, t, unit, expected, base_flags)

    flip = np.where(degree < 0, -1, 1)
    component_degrees = np.repeat(np.abs(degree), copies).tolist()
    total = sum(component_degrees)
    pushed = np.bincount(key_top, weights=signed * (flip * copies)[key_comp],
                         minlength=count)
    if not (pushed * unit_of_top == total).all():
        raise DegreeNotConstantError("chain identity failed after normalization",
                                     witness=None)
    covered = np.bincount(key_top, weights=fiber * copies[key_comp],
                          minlength=count).astype(np.int64)
    image_counts = {flag: k for flag, k in zip(
        map(tuple, base_flags.reshape(-1, n + 1).tolist()),
        np.repeat(covered, len(t.orders)).tolist()) if k}
    if set(image_counts.values()) != ({total} if image_counts else set()):
        raise DegreeNotConstantError("preimage counts are not constant",
                                     witness=None)
    nondegenerate = int(live.sum())
    return RealizationReport(
        degree=total,
        component_degrees=component_degrees,
        orientation=None,
        degenerate_flags=cover.num_cells * (len(live) - nondegenerate),
        nondegenerate_flags=cover.num_cells * nondegenerate,
        image_counts=image_counts,
    )


def _raise_component_failure(comp, tops, value, signed, fiber, colors, t,
                             unit, expected, base_flags):
    """Raise the first failure of one component, in the order of
    ``verify_realization``: the base simplices in order, each on its flag
    in the vertex order (coefficient, then cancellation), then degree
    zero.  Its keys are ``tops``, ascending."""
    degree = int(value[0]) if len(tops) and tops[0] == 0 else 0
    at = dict(zip(tops.tolist(), range(len(tops))))
    orders = t.orders.tolist()
    for s in range(len(colors)):
        a = orders.index(colors[s].tolist())
        image = tuple(base_flags[s, a].tolist())
        k = at.get(s)
        v, c = (int(value[k]), int(signed[k] * unit[a])) if k is not None else (0, 0)
        if v != degree:
            raise DegreeNotConstantError(
                f"component {comp} hits {image} with coefficient {c}, "
                f"expected {degree * int(expected[s, a])}",
                witness=(comp, image, c))
        if k is not None and abs(signed[k]) != fiber[k]:
            raise DegreeNotConstantError(
                f"component {comp} has cancelling flags over {image}",
                witness=(comp, image, c))
    raise DegreeNotConstantError(
        f"component {comp} pushes forward to zero", witness=(comp, None, 0))
