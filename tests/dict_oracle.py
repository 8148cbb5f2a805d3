"""The dict-backed code that the array tables replaced, kept as the oracle
for them.

Glue is a dict keyed by (cell, subset mask); face classes are found by
breadth-first search over it.  Involutions are Python tuples interned one
at a time, and cover builds call ``cross_facet`` for every cell and facet,
conjugating the tuple entry by entry with a memo per pair of involutions;
``tuple_orbit`` searches the tuples alone the same way.
Simplicial complexes are validated, oriented and surface-checked through a
dict from facet tuple to coface indices with breadth-first search, and the
pushforward is summed top by top into dicts.  The surface check has no
array version left: the commands certify surfaces on the flag template.  Homology reduces object
arrays of Python integers entry by entry, on boundary matrices filled
through a dict from face tuple to index; unit pivots are peeled on dense
matrices, and the pivot block is solved one row at a time.  The parts of a colored bundle
come from breadth-first two-coloring of the dual graph, with an odd closed
walk as the witness of failure, and stars, compatibility and canonical
involutions from per-top loops over the vertex of each color.  The
barycentric subdivision numbers its faces through a dict from face tuple
to vertex id, and its fundamental cycle is signed flag by flag through
that dict.  The flag template of one permutahedron is walked flag by flag
over the searched flags, each chain looked up in a dict, and checked closed
with a generator over every (flag, chain) pair, and the orientation check
compares the parity of the lifts across every glue column, where the
certificate reads the parity of the holonomies.  The covering check that
built the cover's face classes and mapped them class by class onto the
base's is kept as it was, beside the dict search that checks it.
"""

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import factorial

import numpy as np

from extra_api import CoverCell, enumerate_faces, triangulation_flags
from cyclecover import cells, involutions
from cyclecover.covering import parity_sign, parity_signs
from cyclecover.errors import (
    DegreeNotConstantError,
    NonOrientableError,
    NotACoveringError,
    TopologyError,
)
from cyclecover.involutions import (
    enumerate_compatible_involutions,
    extend_to_facet_colors,
)
from cyclecover.permutahedron import (
    FlagTemplate,
    full_mask,
    mask_elements,
    proper_subsets,
)
from cyclecover.certificate import RealizationReport
from cyclecover.errors import NotWellDefinedError
from cyclecover.pseudomanifold import (
    AbstractComplex,
    ValidationReport,
    check_regular_coloring,
    permutation_signs,
)
from cyclecover.tomei import build_tomei, size_generator


def glue_dict(pc) -> dict:
    """The glue table as {(cell, subset): partner cell}."""
    return {(i, w): j for i, row in enumerate(pc.glue.tolist())
            for w, j in zip(pc.subsets, row)}


def face_classes(pc):
    """(class_of, members, chain_of_class): orbits of (cell, chain) pairs,
    numbered codimension first, then chain order, then lowest cell."""
    glue = glue_dict(pc)
    class_of: dict = {}
    members: list = []
    chain_of_class: list = []
    for k in range(pc.n + 1):
        for chain in enumerate_faces(pc.n, k):
            for cell in range(pc.num_cells):
                if (cell, chain) in class_of:
                    continue
                cid = len(members)
                orbit = [(cell, chain)]
                class_of[(cell, chain)] = cid
                queue = deque([cell])
                while queue:
                    i = queue.popleft()
                    for w in chain:
                        j = glue[(i, w)]
                        if (j, chain) not in class_of:
                            class_of[(j, chain)] = cid
                            orbit.append((j, chain))
                            queue.append(j)
                assert len(orbit) == 1 << len(chain)
                members.append(orbit)
                chain_of_class.append(chain)
    return class_of, members, chain_of_class


def cover_to_base(cover_pc, projection, base) -> list[int]:
    """The base class under each cover class, asserting it is unique."""
    _, cover_members, _ = face_classes(cover_pc)
    base_class_of, _, _ = face_classes(base)
    out = []
    for members in cover_members:
        images = {base_class_of[(projection[i], chain)] for i, chain in members}
        assert len(images) == 1
        out.append(images.pop())
    return out


# ---------------------------------------------------------------------------
# the covering check that built the cover's face classes and compared them
# class by class with the base's: what the check on the glue table alone
# replaced

@dataclass
class CoveringReport:
    """The covering degree, the fibre size over every base cell and base
    class, and the base class under each cover class (``int32``)."""

    degree: int
    cell_fibers: dict[int, int]
    class_fibers: dict[int, int]
    cover_class_to_base: np.ndarray


def verify_cell_projection(cover_pc, projection, base, cover_classes=None,
                           base_classes=None) -> CoveringReport:
    """Certify that a cell map is a covering of permutahedral complexes.

    ``projection[i]`` is the base cell under cover cell i (the permutahedron
    coordinate maps by the identity).  Checks, in order: the projection
    commutes with every facet crossing; fibers over cells are constant with
    integral degree; every face class maps into a single base class; face
    class fibers all have that same degree.  Face classes already computed
    for either complex may be handed in.

    A class of codimension k has 2^k members in either complex, which
    ``face_classes`` checks for each, so a class mapped into one base
    class maps onto it, bijectively, without comparing class sizes.
    """
    if base.n != cover_pc.n:
        raise NotACoveringError("base and cover dimensions differ")
    if len(projection) != cover_pc.num_cells:
        raise NotACoveringError("projection must assign a base cell to every cell")
    proj = np.asarray(projection, dtype=np.int64)
    if ((proj < 0) | (proj >= base.num_cells)).any():
        raise NotACoveringError("projection sends a cell outside the base")
    proj = proj.astype(np.int32)

    moved = np.take(proj, cover_pc.glue) != np.take(base.glue, proj, axis=0)
    if moved.any():
        i, slot = np.argwhere(moved)[0]
        raise NotACoveringError(
            f"projection does not commute with crossing "
            f"{mask_elements(cover_pc.subsets[slot])} at cell {i}")

    if cover_pc.num_cells % base.num_cells:
        raise NotACoveringError(
            f"{cover_pc.num_cells} cells cannot evenly cover {base.num_cells}")
    degree = cover_pc.num_cells // base.num_cells

    fibers = np.bincount(proj, minlength=base.num_cells)
    if (fibers != degree).any():
        raise NotACoveringError(
            f"cell fibers are not constant: {dict(Counter(proj.tolist()))}")

    cover_cls = cover_classes or cells.face_classes(cover_pc)
    base_cls = base_classes or cells.face_classes(base)
    # image[cid] is the base class under cover class cid: one chain at a
    # time, scatter the image of every (cell, chain), then check each member
    # agrees with its class
    image = np.empty(cover_cls.num_classes, dtype=np.int32)
    for r, chain in enumerate(cover_cls.chains):
        ids = cover_cls.class_ids[r].astype(np.intp)
        wanted = np.take(base_cls.class_ids[r], proj)
        image[ids] = wanted
        split = image[ids] != wanted
        if split.any():
            raise NotACoveringError(
                f"face class with chain {chain} maps to several base classes")

    class_fibers = np.bincount(image, minlength=base_cls.num_classes)
    if (class_fibers != degree).any():
        bid = int(np.flatnonzero(class_fibers != degree)[0])
        raise NotACoveringError(
            f"face class fiber over base class {bid} has size "
            f"{class_fibers[bid]}, expected {degree}")

    return CoveringReport(degree, dict(enumerate(fibers.tolist())),
                          dict(enumerate(class_fibers.tolist())), image)


def verify_covering(cover, base=None, cover_classes=None,
                    base_classes=None) -> CoveringReport:
    """Certify the parity constraint on the cover cells, then certify that
    forgetting (sigma, tuple) is a covering of the Tomei manifold."""
    cp = cover.cp
    base = base or build_tomei(cp.n)
    in_range = (cover.g >= 0) & (cover.g < 1 << cp.n)
    sign = parity_signs(cp.n)[np.where(in_range, cover.g, 0)]
    bad = ~in_range | (sign != cp.parts[cover.sigma])
    if bad.any():
        i = int(np.argmax(bad))
        raise NotACoveringError(
            f"cell {i} (sigma {cover.sigma[i]}, tuple_id {cover.tuple_id[i]}, "
            f"g {cover.g[i]}) violates the parity constraint")
    return verify_cell_projection(cover.pc, cover.g, base, cover_classes,
                                  base_classes)


# ---------------------------------------------------------------------------
# cover cells crossed one at a time, with involutions and tuples interned
# in dicts: what the slot closures and the tuple codes replaced

class InvolutionRegistry:
    """Interning pool for involutions and involution tuples.

    Tuples are validated on first intern: the component in the slot of color
    subset w must be an involution compatible with w.  Conjugations are
    memoized, so repeated facet crossings stay cheap.
    """

    def __init__(self, cp):
        self.cp = cp
        self.subsets = proper_subsets(cp.n)
        self.slot_of = {w: k for k, w in enumerate(self.subsets)}
        self._involutions: list = []
        self._inv_ids: dict = {}
        self._tuples: list = []
        self._tuple_ids: dict = {}
        self._conj: dict = {}
        self._validated: set = set()

    def intern_involution(self, perm) -> int:
        iid = self._inv_ids.get(perm)
        if iid is None:
            iid = len(self._involutions)
            self._involutions.append(perm)
            self._inv_ids[perm] = iid
        return iid

    def involution(self, iid: int):
        return self._involutions[iid]

    def intern_tuple(self, inv_ids) -> int:
        key = tuple(inv_ids)
        tid = self._tuple_ids.get(key)
        if tid is None:
            if len(key) != len(self.subsets):
                raise ValueError("tuple must have one involution per proper subset")
            for slot, iid in enumerate(key):
                if (iid, slot) not in self._validated:
                    if not involutions.is_compatible_involution(
                            self.cp, self._involutions[iid], self.subsets[slot]):
                        raise ValueError(
                            f"component for subset {mask_elements(self.subsets[slot])} "
                            f"is not a compatible involution")
                    self._validated.add((iid, slot))
            tid = len(self._tuples)
            self._tuples.append(key)
            self._tuple_ids[key] = tid
        return tid

    def components(self, tid: int) -> tuple:
        return self._tuples[tid]

    def conjugate(self, outer_id: int, inner_id: int) -> int:
        key = (outer_id, inner_id)
        cid = self._conj.get(key)
        if cid is None:
            outer = self._involutions[outer_id]
            inner = self._involutions[inner_id]
            cid = self.intern_involution(tuple(outer[inner[outer[i]]]
                                               for i in range(len(outer))))
            self._conj[key] = cid
        return cid

    def canonical_tuple(self) -> int:
        return self.intern_tuple(
            self.intern_involution(involutions.canonical_involution(self.cp, w))
            for w in self.subsets)

    @property
    def tuple_count(self) -> int:
        return len(self._tuples)

    def tuple_values(self) -> list[tuple]:
        """Every tuple as its involutions, in tuple id order."""
        return [tuple(self._involutions[i] for i in key) for key in self._tuples]


def in_cover_set(cp, cell: CoverCell) -> bool:
    """Membership in the cover cell set: g in range and parity matching."""
    if not 0 <= cell.g < 1 << cp.n:
        return False
    return (cp.parts[cell.sigma] == 1) == (parity_sign(cell.g) == 1)


def tuple_crossing(reg: InvolutionRegistry, tuple_id: int, subset: int) -> tuple:
    """The part of the crossing of F_subset that ignores sigma and g: the id
    of the crossed component L_w and the id of the conjugated tuple."""
    ids = reg.components(tuple_id)
    lam_id = ids[reg.slot_of[subset]]
    new_ids = list(ids)
    for slot, gamma in enumerate(reg.subsets):
        if gamma & ~subset == 0:  # gamma inside the crossed label
            new_ids[slot] = reg.conjugate(lam_id, ids[slot])
    return lam_id, reg.intern_tuple(new_ids)


def tuple_orbit(cp):
    """(registry, crossing table) of the canonical tuple's orbit, searched
    breadth first over tuples alone: tuple t crossed over each facet in
    slot order gives row t of the table, and new tuples are numbered as
    they are met."""
    reg = InvolutionRegistry(cp)
    reg.canonical_tuple()
    newt: list = []
    while len(newt) < reg.tuple_count:
        newt.append([tuple_crossing(reg, len(newt), w)[1] for w in reg.subsets])
    return reg, newt


def cross_facet(reg: InvolutionRegistry, cell: CoverCell, subset: int) -> CoverCell:
    """The gluing involution across facet F_subset."""
    lam_id, tuple_id = tuple_crossing(reg, cell.tuple_id, subset)
    return CoverCell(reg.involution(lam_id)[cell.sigma], tuple_id,
                     cell.g ^ size_generator(subset))


def seed_cell(reg: InvolutionRegistry) -> CoverCell:
    """Deterministic starting cell: the smallest plus-part simplex, the
    canonical involution tuple, and g = 0."""
    return CoverCell(int(reg.cp.plus[0]), reg.canonical_tuple(), 0)


def build_component(cp, seed: CoverCell | None = None,
                    registry: InvolutionRegistry | None = None):
    """(cells, glue dict, registry) of the component of a cell, by default
    the seed cell, breadth first."""
    reg = registry or InvolutionRegistry(cp)
    if seed is None:
        seed = seed_cell(reg)
    if not in_cover_set(cp, seed):
        raise ValueError(f"seed {seed} violates the parity constraint")
    reg.intern_tuple(reg.components(seed.tuple_id))
    cells = [seed]
    index = {seed: 0}
    glue = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for w in reg.subsets:
            neighbor = cross_facet(reg, cells[i], w)
            j = index.get(neighbor)
            if j is None:
                j = len(cells)
                cells.append(neighbor)
                index[neighbor] = j
                queue.append(j)
            glue[(i, w)] = j
    return cells, glue, reg


def build_full(cp):
    """(cells, glue dict, registry) of the full cover set, cells sorted."""
    reg = InvolutionRegistry(cp)
    pools = [[reg.intern_involution(p)
              for p in enumerate_compatible_involutions(cp, w)]
             for w in reg.subsets]
    cells = []
    for combo in product(*pools):
        tid = reg.intern_tuple(combo)
        for sigma in range(cp.top_count):
            for g in range(1 << cp.n):
                cell = CoverCell(sigma, tid, g)
                if in_cover_set(cp, cell):
                    cells.append(cell)
    cells.sort()
    index = {cell: i for i, cell in enumerate(cells)}
    glue = {(i, w): index[cross_facet(reg, cell, w)]
            for i, cell in enumerate(cells) for w in reg.subsets}
    return cells, glue, reg


# ---------------------------------------------------------------------------
# the dict/BFS certification of simplicial complexes that the facet table
# replaced: adjacency as a dict from facet tuple to coface indices

def facet_cofaces(c) -> dict:
    """Map each (n-1)-face to the indices of its top cofaces."""
    cofaces: dict = {}
    for i, s in enumerate(c.top_simplices):
        for j in range(c.n + 1):
            cofaces.setdefault(s[:j] + s[j + 1:], []).append(i)
    return {f: tuple(cof) for f, cof in cofaces.items()}


def dual_edges(c) -> list:
    return [cof for cof in facet_cofaces(c).values() if len(cof) == 2]


def validate_pseudomanifold(c) -> ValidationReport:
    report = ValidationReport()
    for facet, cof in facet_cofaces(c).items():
        if len(cof) == 1:
            report.boundary_faces.append(facet)
        elif len(cof) > 2:
            report.overused_faces.append((facet, len(cof)))
    report.boundary_faces.sort()
    report.overused_faces.sort()
    adj: dict = {i: [] for i in range(len(c.top_simplices))}
    for a, b in dual_edges(c):
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    queue = deque([0])
    while queue:
        for j in adj[queue.popleft()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    report.connected = len(seen) == len(c.top_simplices)
    return report


def induced_facet_sign(sign: int, drop_position: int) -> int:
    return sign * (-1 if drop_position % 2 else 1)


def orient(c) -> list:
    """Breadth-first sign propagation, +1 on the lowest top of each
    component; NonOrientableError at the first inconsistent facet met."""
    cofaces = facet_cofaces(c)
    if any(len(cof) != 2 for cof in cofaces.values()):
        raise ValueError("orient requires every facet in exactly two top simplices")
    position = {(s[:j] + s[j + 1:], i): j
                for i, s in enumerate(c.top_simplices) for j in range(c.n + 1)}
    signs = [0] * len(c.top_simplices)
    for start in range(len(c.top_simplices)):
        if signs[start]:
            continue
        signs[start] = 1
        queue = deque([start])
        while queue:
            i = queue.popleft()
            s = c.top_simplices[i]
            for j in range(c.n + 1):
                facet = s[:j] + s[j + 1:]
                a, b = cofaces[facet]
                other = b if a == i else a
                wanted = induced_facet_sign(-induced_facet_sign(signs[i], j),
                                            position[(facet, other)])
                if signs[other] == 0:
                    signs[other] = wanted
                    queue.append(other)
                elif signs[other] != wanted:
                    raise NonOrientableError(
                        "sign propagation around a dual cycle is inconsistent",
                        (facet, i, other))
    return signs


def is_coherent_orientation(c, signs) -> bool:
    for facet, cof in facet_cofaces(c).items():
        if len(cof) != 2:
            return False
        total = 0
        for i in cof:
            s = c.top_simplices[i]
            total += induced_facet_sign(signs[i], s.index(*(set(s) - set(facet))))
        if total != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the breadth-first bipartition and the per-top involution code that the
# closed-form parts and the star tables replaced

class OddCycleError(TopologyError):
    """The facet-dual graph is not bipartite.

    ``cycle`` is a closed walk (list of top-simplex indices) of odd length.
    """

    def __init__(self, message: str, cycle: list):
        super().__init__(message)
        self.cycle = cycle


def bipartition(c, coloring) -> list:
    """Two-color the facet-dual graph breadth first; +1 on the lowest top
    simplex of each component.  Raises OddCycleError with an explicit odd
    closed walk when no two-coloring exists."""
    if not check_regular_coloring(c, coloring):
        raise ValueError("bipartition requires a regular coloring")
    adj: dict = {i: [] for i in range(len(c.top_simplices))}
    for a, b in dual_edges(c):
        adj[a].append(b)
        adj[b].append(a)
    parts = [0] * len(c.top_simplices)
    parent = [-1] * len(c.top_simplices)
    for start in range(len(c.top_simplices)):
        if parts[start]:
            continue
        parts[start] = 1
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in sorted(adj[i]):
                if parts[j] == 0:
                    parts[j] = -parts[i]
                    parent[j] = i
                    queue.append(j)
                elif parts[j] == parts[i]:
                    raise OddCycleError("facet-dual graph has an odd cycle",
                                        _tree_cycle(parent, i, j))
    return parts


def _tree_cycle(parent, a, b) -> list:
    path_a, path_b = [a], [b]
    while parent[path_a[-1]] != -1:
        path_a.append(parent[path_a[-1]])
    while parent[path_b[-1]] != -1:
        path_b.append(parent[path_b[-1]])
    # trim the common tail above the least common ancestor
    while len(path_a) > 1 and len(path_b) > 1 and path_a[-2] == path_b[-2]:
        path_a.pop()
        path_b.pop()
    return path_a[:-1] + list(reversed(path_b))


def by_color(cp) -> list:
    """Per top simplex, its vertices sorted by color."""
    return [tuple(sorted(s, key=lambda v: cp.coloring[v]))
            for s in cp.complex.top_simplices]


def compatible(cp, i: int, j: int, subset: int) -> bool:
    """Do top simplices i and j share their color-c vertex for every c in
    the subset?"""
    bi, bj = cp.by_color[i], cp.by_color[j]
    m = subset
    while m:
        c = m & -m
        if bi[c.bit_length() - 1] != bj[c.bit_length() - 1]:
            return False
        m ^= c
    return True


def neighbor_across(cp, i: int, facet_colors: int) -> int:
    """The other top simplex sharing the facet of i colored by the given
    size-n color mask, through the dict of facet cofaces."""
    missing = (~facet_colors) & ((1 << (cp.n + 1)) - 1)
    if missing == 0 or missing & (missing - 1):
        raise ValueError("facet color mask must omit exactly one color")
    s = cp.complex.top_simplices[i]
    drop = by_color(cp)[i][missing.bit_length() - 1]
    a, b = facet_cofaces(cp.complex)[tuple(v for v in s if v != drop)]
    return b if a == i else a


def canonical_involution(cp, subset: int) -> tuple:
    ext = extend_to_facet_colors(subset, cp.n)
    return tuple(neighbor_across(cp, i, ext) for i in range(cp.top_count))


def is_compatible_involution(cp, perm, subset: int) -> bool:
    if len(perm) != cp.top_count:
        return False
    for i, j in enumerate(perm):
        if j == i or not 0 <= j < cp.top_count:
            return False
        if perm[j] != i or cp.parts[i] == cp.parts[j]:
            return False
        if not compatible(cp, i, j, subset):
            return False
    return True


def stars(cp, subset: int) -> list:
    """The (plus, minus) top simplices in the star of each face spanned by
    the colors of the subset, in order of first appearance."""
    colors = [c for c in range(cp.n + 1) if subset >> c & 1]
    found: dict = {}
    for i, vertices in enumerate(by_color(cp)):
        plus, minus = found.setdefault(tuple(vertices[c] for c in colors), ([], []))
        (plus if cp.parts[i] == 1 else minus).append(i)
    return list(found.values())


def count_compatible_involutions(cp, subset: int) -> int:
    count = 1
    for plus, minus in stars(cp, subset):
        if len(plus) != len(minus):
            return 0
        count *= factorial(len(plus))
    return count


@dataclass
class SurfaceReport:
    bad_edges: list = field(default_factory=list)
    bad_vertex_links: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bad_edges and not self.bad_vertex_links


def verify_surface(complex_) -> SurfaceReport:
    """Edges in two triangles; every vertex link one cycle, by degree count
    and depth-first search over the link graph."""
    report = SurfaceReport()
    link: dict = {}
    for a, b, c in complex_.top_simplices:
        link.setdefault(a, []).append((b, c))
        link.setdefault(b, []).append((a, c))
        link.setdefault(c, []).append((a, b))
    for facet, cof in facet_cofaces(complex_).items():
        if len(cof) != 2:
            report.bad_edges.append((facet, len(cof)))
    for v in range(complex_.num_vertices):
        edges = link.get(v, [])
        degree: dict = {}
        adj: dict = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if not edges or any(d != 2 for d in degree.values()):
            report.bad_vertex_links.append(v)
            continue
        seen = {edges[0][0]}
        stack = [edges[0][0]]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(degree):
            report.bad_vertex_links.append(v)
    report.bad_edges.sort()
    return report


def cell_components(pc) -> list:
    """Component of each cell, numbered by lowest cell, by breadth-first
    search over the glue table."""
    component = [-1] * pc.num_cells
    glue = pc.glue.tolist()
    count = 0
    for start in range(pc.num_cells):
        if component[start] >= 0:
            continue
        component[start] = count
        queue = deque([start])
        while queue:
            for j in glue[queue.popleft()]:
                if component[j] < 0:
                    component[j] = count
                    queue.append(j)
        count += 1
    return component


def signed_components(count: int, edges) -> tuple[list[int], list[int], list[bool]]:
    """Breadth-first search over the signed edges (a, b, flip) from the
    lowest unvisited node: per node, the lowest node of its component, the
    product of the flips along the search tree's path to it, and whether
    its component is balanced, every edge agreeing with those signs.
    Loops are skipped."""
    adj: dict = {i: [] for i in range(count)}
    for a, b, flip in edges:
        if a != b:
            adj[a].append((b, flip))
            adj[b].append((a, flip))
    label, sign = [-1] * count, [0] * count
    for start in range(count):
        if label[start] >= 0:
            continue
        label[start], sign[start] = start, 1
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b, flip in adj[a]:
                if label[b] < 0:
                    label[b], sign[b] = start, sign[a] * flip
                    queue.append(b)
    unbalanced = {label[a] for a, b, flip in edges
                  if a != b and sign[a] * flip != sign[b]}
    return label, sign, [x not in unbalanced for x in label]


# ---------------------------------------------------------------------------
# the flag template walked flag by flag from the searched flags, through
# dicts from chain to row and from color order to index: what the
# closed-form template replaced

def flag_template(n: int) -> FlagTemplate:
    chains = [chain for k in range(n + 1) for chain in enumerate_faces(n, k)]
    row_of = {chain: r for r, chain in enumerate(chains)}
    slot_of = {w: slot for slot, w in enumerate(proper_subsets(n))}
    prefix = [-1] + [row_of[c[:-1]] for c in chains[1:]]
    last = [-1] + [slot_of[c[-1]] for c in chains[1:]]
    orders = list(permutations(range(1, n + 2)))
    index = {order: a for a, order in enumerate(orders)}
    full = full_mask(n)
    rows, added, steps, colors, spells = [], [], [], [], []
    for flag in triangulation_flags(n):
        rows.append([row_of[c] for c in flag])
        # the colors in the order the complete chain adds them, and the
        # place in the complete chain of the subset each step inserts
        complete = flag[-1]
        added.append([(b & ~a).bit_length()
                      for a, b in zip((0,) + complete, complete + (full,))])
        steps.append([complete.index(next(w for w in c if w not in p))
                      for p, c in zip(flag, flag[1:])])
        w = [full] + [c[0] for c in flag[1:]]
        colors.append(w)
        if [x.bit_count() for x in w] == list(range(n + 1, 0, -1)):
            spelled = [w[n]] + [w[k] & ~w[k + 1] for k in range(n - 1, -1, -1)]
            spells.append(index[tuple(x.bit_length() for x in spelled)])
        else:
            spells.append(-1)
    sign = permutation_signs(np.array(added)) * permutation_signs(np.array(steps))
    return FlagTemplate(n, chains, np.array(prefix, dtype=np.int64),
                        np.array(last, dtype=np.int64),
                        np.array(rows, dtype=np.int64), sign,
                        np.array(colors, dtype=np.int64),
                        np.array(orders, dtype=np.int64),
                        np.array(spells, dtype=np.int64))


def is_oriented(t: FlagTemplate, g, glue) -> bool:
    """``certificate.is_oriented`` on the rows of ``glue`` with lifts
    ``g``, as it was before it read the holonomies: tau flips across every
    interior face of the template, and the parity of g is compared across
    every glue column."""
    facet, counts = t.facets
    interior = facet[:, 1:].ravel()
    turn = np.bincount(interior, weights=np.repeat(t.sign, t.n),
                       minlength=len(counts))
    if turn[interior].any():
        return False
    odd = parity_signs(t.n)[g] < 0
    return all((np.take(odd, column) != odd).all() for column in glue.T)


def template_is_closed(t: FlagTemplate) -> bool:
    """``certificate.template_is_closed`` with the containment test walked
    over every (flag, chain) pair by a generator."""
    facet, counts = t.facets
    inside = all(t.chains[flag[1]][0] in t.chains[row]
                 for flag in t.flags.tolist() for row in flag[1:])
    return bool(inside and (counts[facet[:, 0]] == 1).all()
                and (counts[facet[:, 1:]] == 2).all())


# ---------------------------------------------------------------------------
# the barycentric subdivision through a dict from face tuple to vertex id,
# and its cycle by walking every flag through that dict: what the face-id
# table and the closed-form signs replaced

def all_faces(c) -> list:
    """Every nonempty face, sorted by (dimension, vertex tuple)."""
    seen: set = set()
    for s in c.top_simplices:
        for k in range(1, c.n + 2):
            seen.update(combinations(s, k))
    return sorted(seen, key=lambda f: (len(f), f))


@dataclass
class Subdivision:
    complex: AbstractComplex
    coloring: list
    faces: list
    face_ids: dict


def barycentric_subdivide(c) -> Subdivision:
    """One vertex per face in ``all_faces`` order; one top per vertex order
    of every top simplex, looked up face by face in the dict."""
    faces = all_faces(c)
    face_ids = {f: i for i, f in enumerate(faces)}
    tops = []
    for s in c.top_simplices:
        for order in permutations(s):
            flag = tuple(face_ids[tuple(sorted(order[:k + 1]))]
                         for k in range(c.n + 1))
            tops.append(tuple(sorted(flag)))
    return Subdivision(AbstractComplex(c.n, len(faces), tops),
                       [len(f) for f in faces], faces, face_ids)


def color_set(face, coloring) -> int:
    """Bitmask of the colors present on ``face``."""
    mask = 0
    for v in face:
        mask |= 1 << (coloring[v] - 1)
    return mask


def face_of_colors(simplex, subset: int, coloring) -> tuple:
    """The face of a regularly colored simplex spanned by the given colors."""
    face = tuple(v for v in simplex if subset >> (coloring[v] - 1) & 1)
    if color_set(face, coloring) != subset:
        raise ValueError(f"simplex {simplex} does not carry every color in mask {subset:b}")
    return face


def permutation_sign(seq) -> int:
    """Sign of the permutation sorting a sequence of distinct comparables."""
    inversions = sum(1 for i in range(len(seq))
                     for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def subdivided_cycle(bundle, sd: Subdivision | None = None):
    """(sd, {top simplex of sd: +1 or -1}), built flag by flag in the order
    (top, vertex order): each flag's vertex order is recovered by set
    differences and signed by its inversion count."""
    if sd is None:
        sd = barycentric_subdivide(bundle.complex)
    signs: dict = {}
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


def _flags_of(s, sd: Subdivision):
    """Top simplices of the subdivision lying inside top simplex s, one per
    vertex order, as ascending face-id tuples."""
    for order in permutations(s):
        yield tuple(sd.face_ids[tuple(sorted(order[:k + 1]))]
                    for k in range(len(s)))


def _vertex_order(top, sd: Subdivision):
    """Recover the vertex insertion order of a flag simplex."""
    prev: set = set()
    order = []
    for fid in top:
        face = set(sd.faces[fid])
        added = face - prev
        if len(added) != 1:
            raise NotWellDefinedError(f"simplex {top} is not a flag")
        order.append(added.pop())
        prev = face
    return order


def verify_realization(rmap, orientation=None) -> RealizationReport:
    """Per-top Python loop: coefficient and count dicts per (component,
    image simplex), compared against the subdivided base cycle."""
    tri = rmap.tri
    _, signs = subdivided_cycle(rmap.bundle)
    if orientation is None:
        orientation = orient(tri.complex)
    cell_of = tri.cell_of_top.tolist()
    component = cell_components(rmap.cover.pc)
    num_components = max(component) + 1
    coeffs = [dict() for _ in range(num_components)]
    counts = [dict() for _ in range(num_components)]
    degenerate = 0
    for t, top in enumerate(tri.complex.top_simplices):
        images = [rmap.vertex_images[v] for v in top]
        if len(set(images)) != len(images):
            degenerate += 1
            continue
        image = tuple(sorted(images))
        comp = component[cell_of[t]]
        sign = orientation[t] * permutation_sign(images)
        coeffs[comp][image] = coeffs[comp].get(image, 0) + sign
        counts[comp][image] = counts[comp].get(image, 0) + 1

    component_degrees, flip = [], []
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
        stray = sorted(coeffs[comp].keys() - signs.keys())
        if stray:
            raise DegreeNotConstantError(
                f"component {comp} maps onto {stray[0]}, not a subdivision simplex",
                witness=(comp, stray[0], coeffs[comp][stray[0]]))
        if degree == 0:
            raise DegreeNotConstantError(
                f"component {comp} pushes forward to zero", witness=(comp, None, 0))
        flip.append(-1 if degree < 0 else 1)
        component_degrees.append(abs(degree))

    total = sum(component_degrees)
    pushed: dict = {}
    image_counts: dict = {}
    for comp in range(num_components):
        for image, c in coeffs[comp].items():
            pushed[image] = pushed.get(image, 0) + c * flip[comp]
            image_counts[image] = image_counts.get(image, 0) + counts[comp][image]
    if pushed != {image: total * sign for image, sign in signs.items()}:
        raise DegreeNotConstantError("chain identity failed after normalization",
                                     witness=None)
    if set(image_counts.values()) != {total}:
        raise DegreeNotConstantError("preimage counts are not constant",
                                     witness=None)
    return RealizationReport(
        degree=total,
        component_degrees=component_degrees,
        orientation=[orientation[t] * flip[component[cell_of[t]]]
                     for t in range(len(cell_of))],
        degenerate_flags=degenerate,
        nondegenerate_flags=len(cell_of) - degenerate,
        image_counts=image_counts,
    )


# ---------------------------------------------------------------------------
# Smith normal form over numpy object arrays, one entry at a time, and
# boundary matrices through a dict per face: what the int64 row reduction
# and the facet-table boundary matrices replaced

def _identity(k: int) -> np.ndarray:
    m = np.zeros((k, k), dtype=object)
    for i in range(k):
        m[i, i] = 1
    return m


def smith_normal_form(matrix):
    """(D, U, V) with U @ matrix @ V == D; the pivot is the first entry of
    least nonzero absolute value in row-major order."""
    m = np.array(matrix, dtype=object)
    rows, cols = m.shape
    a = m.copy()
    u = _identity(rows)
    v = _identity(cols)

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = a[i, j]
                    if x and (pivot is None or abs(x) < abs(a[pivot[0], pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                a[[t, pi], :] = a[[pi, t], :]
                u[[t, pi], :] = u[[pi, t], :]
            if pj != t:
                a[:, [t, pj]] = a[:, [pj, t]]
                v[:, [t, pj]] = v[:, [pj, t]]
            if a[t, t] < 0:
                a[t, :] = -a[t, :]
                u[t, :] = -u[t, :]

            for i in range(t + 1, rows):
                q = a[i, t] // a[t, t]
                if q:
                    a[i, :] -= q * a[t, :]
                    u[i, :] -= q * u[t, :]
            if any(a[i, t] for i in range(t + 1, rows)):
                continue  # remainders are smaller: pick a new pivot
            for j in range(t + 1, cols):
                q = a[t, j] // a[t, t]
                if q:
                    a[:, j] -= q * a[:, t]
                    v[:, j] -= q * v[:, t]
            if any(a[t, j] for j in range(t + 1, cols)):
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i, j] % a[t, t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t, :] += a[offender, :]
            u[t, :] += u[offender, :]
        if a[t, t] == 0:
            break
    assert np.array_equal(u @ m @ v, a)
    return a, u, v


def faces_by_dimension(c) -> list:
    by_dim = [[] for _ in range(c.n + 1)]
    for f in all_faces(c):
        by_dim[len(f) - 1].append(f)
    return by_dim


def boundary_matrices(c) -> list:
    """Object boundary matrices, index 0 the empty map, with every nonzero
    entry placed through a dict from face tuple to row index."""
    faces = faces_by_dimension(c)
    index = [{f: i for i, f in enumerate(level)} for level in faces]
    mats = [np.zeros((0, len(faces[0])), dtype=object)]
    for k in range(1, c.n + 1):
        m = np.zeros((len(faces[k - 1]), len(faces[k])), dtype=object)
        for j, f in enumerate(faces[k]):
            for i in range(len(f)):
                m[index[k - 1][f[:i] + f[i + 1:]], j] = (-1) ** i
        mats.append(m)
    for k in range(2, c.n + 1):
        assert not np.count_nonzero(mats[k - 1] @ mats[k])
    return mats


# ---------------------------------------------------------------------------
# unit-pivot peeling on a dense matrix and the row-by-row forward
# substitution: what peeling on entries and the column-by-column solve
# replaced

def unit_pivots(m: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows and columns of ``m``, paired by peeling, in pivot order:
    each row keeps its number of active nonzeros and the XOR of their
    column ids, and a row with one pairs with that column when the dense
    entry there is ±1."""
    rows, cols = m.shape
    r, c = np.nonzero(m)
    degree = np.bincount(r, minlength=rows).tolist()
    xor = np.zeros(rows, dtype=np.int64)
    np.bitwise_xor.at(xor, r, c)
    xor = xor.tolist()
    start = [0] + np.cumsum(np.bincount(c, minlength=cols)).tolist()
    in_column = r[np.argsort(c, kind="stable")].tolist()
    active = [True] * cols
    ready = deque(i for i in range(rows) if degree[i] == 1)

    def drop(j: int) -> None:
        active[j] = False
        for i in in_column[start[j]:start[j + 1]]:
            degree[i] -= 1
            xor[i] ^= j
            if degree[i] == 1:
                ready.append(i)

    pivot_rows, pivot_cols, lowest = [], [], 0
    while True:
        while ready:
            i = ready.popleft()
            if degree[i] == 1 and m[i, xor[i]] in (1, -1):
                pivot_rows.append(i)
                pivot_cols.append(xor[i])
                drop(xor[i])
        while lowest < cols and not active[lowest]:
            lowest += 1
        if lowest == cols:
            return pivot_rows, pivot_cols
        drop(lowest)


def forward_substitute(row: np.ndarray, col: np.ndarray, value: np.ndarray,
                       diag: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X with P X = A, for P lower triangular with the ±1 diagonal ``diag``
    and the strictly lower entries (row, col, value), solved one row at a
    time, in int64 until a row's bound max|A[i]| + sum |P[i, j]| max|X[j]|
    could reach 2^63 and over Python integers from that row on."""
    p, q = a.shape
    x = np.zeros_like(a)
    if not q:
        return x
    ends = np.cumsum(np.bincount(row, minlength=p)).tolist()
    order = np.argsort(row, kind="stable")
    col, value = col[order].tolist(), value[order].tolist()
    exact = a.dtype == object
    a_max, x_max = np.abs(a).max(axis=1).tolist(), [0] * p
    start = 0
    for i, end in enumerate(ends):
        js, vs = col[start:end], value[start:end]
        start = end
        if not exact and a_max[i] + sum(
                abs(v) * x_max[j] for j, v in zip(js, vs)) >= 1 << 63:
            exact, x, a = True, x.astype(object), a.astype(object)
        acc = a[i] - np.array(vs, dtype=a.dtype) @ x[js] if js else a[i]
        x[i] = acc if diag[i] == 1 else -acc
        if not exact:
            x_max[i] = int(np.abs(x[i]).max())
    return x
