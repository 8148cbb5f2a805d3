"""Closed pseudomanifolds with regularly colored vertices.

A complex is stored by its top simplices only (sorted vertex tuples).  The
operations here establish the combinatorial backbone used by every other
module: pseudomanifold validation, barycentric subdivision with its canonical
coloring by face dimension, the two-coloring of the facet-dual graph, and
coherent orientation by sign propagation.

Conventions.  Vertices are 0-based integers.  Colors are 1-based integers in
``{1, ..., n+1}`` and sets of colors are bitmasks with bit ``c - 1`` standing
for color ``c``.  An orientation assigns ``+1``/``-1`` to every top simplex,
read against the sorted vertex order; the induced sign on the facet obtained
by dropping position ``i`` is ``(-1) ** i`` times the simplex sign.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

Simplex = tuple[int, ...]


class AbstractComplex:
    """A pure n-dimensional simplicial complex given by its top simplices."""

    def __init__(self, n: int, num_vertices: int, top_simplices):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        tops = sorted({tuple(sorted(s)) for s in top_simplices})
        for s in tops:
            if len(s) != n + 1 or len(set(s)) != n + 1:
                raise ValueError(f"top simplex {s} does not have {n + 1} distinct vertices")
            if s[0] < 0 or s[-1] >= num_vertices:
                raise ValueError(f"top simplex {s} has a vertex outside range(0, {num_vertices})")
        if not tops:
            raise ValueError("complex has no top simplices")
        self.n = n
        self.num_vertices = num_vertices
        self.top_simplices: tuple[Simplex, ...] = tuple(tops)

    @cached_property
    def facet_cofaces(self) -> dict[Simplex, tuple[int, ...]]:
        """Map each (n-1)-face to the indices of its top cofaces."""
        cofaces: dict[Simplex, list[int]] = {}
        for i, s in enumerate(self.top_simplices):
            for j in range(self.n + 1):
                facet = s[:j] + s[j + 1:]
                cofaces.setdefault(facet, []).append(i)
        return {f: tuple(c) for f, c in cofaces.items()}

    def dual_edges(self) -> list[tuple[int, int]]:
        """Pairs of top-simplex indices sharing a facet (facet in exactly 2)."""
        return [tuple(c) for c in self.facet_cofaces.values() if len(c) == 2]

    def all_faces(self) -> list[Simplex]:
        """Every nonempty face, sorted by (dimension, vertex tuple)."""
        seen: set[Simplex] = set()
        for s in self.top_simplices:
            for k in range(1, self.n + 2):
                seen.update(combinations(s, k))
        return sorted(seen, key=lambda f: (len(f), f))

    def __repr__(self):
        return (f"AbstractComplex(n={self.n}, vertices={self.num_vertices}, "
                f"top={len(self.top_simplices)})")


@dataclass
class ValidationReport:
    """Outcome of the closed-pseudomanifold checks; carries all failures."""

    boundary_faces: list[Simplex] = field(default_factory=list)
    overused_faces: list[tuple[Simplex, int]] = field(default_factory=list)
    connected: bool = True

    @property
    def ok(self) -> bool:
        return self.connected and not self.boundary_faces and not self.overused_faces

    def summary(self) -> str:
        if self.ok:
            return "closed pseudomanifold: every facet interior, dual graph connected"
        parts = []
        if self.boundary_faces:
            parts.append(f"{len(self.boundary_faces)} boundary facet(s), e.g. {self.boundary_faces[0]}")
        if self.overused_faces:
            f, c = self.overused_faces[0]
            parts.append(f"{len(self.overused_faces)} facet(s) in more than two top simplices, e.g. {f} in {c}")
        if not self.connected:
            parts.append("facet-dual graph is disconnected")
        return "; ".join(parts)


def validate_pseudomanifold(c: AbstractComplex) -> ValidationReport:
    """Check that every (n-1)-face lies in exactly two top simplices and the
    facet-dual graph is connected.  Boundary is a failure, not a warning."""
    report = ValidationReport()
    for facet, cof in c.facet_cofaces.items():
        if len(cof) == 1:
            report.boundary_faces.append(facet)
        elif len(cof) > 2:
            report.overused_faces.append((facet, len(cof)))
    report.boundary_faces.sort()
    report.overused_faces.sort()

    adj: dict[int, list[int]] = {i: [] for i in range(len(c.top_simplices))}
    for a, b in c.dual_edges():
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    report.connected = len(seen) == len(c.top_simplices)
    return report


# ---------------------------------------------------------------------------
# barycentric subdivision

@dataclass
class BarycentricSubdivision:
    """Subdivision data: one new vertex per nonempty face of the source.

    ``coloring`` is the canonical regular coloring (dimension of the source
    face, plus one).  ``face_ids`` recovers the new vertex id of a face.
    """

    complex: AbstractComplex
    coloring: list[int]
    faces: list[Simplex]
    face_ids: dict[Simplex, int]
    source: AbstractComplex


def barycentric_subdivide(c: AbstractComplex) -> BarycentricSubdivision:
    """Order complex of the face poset.  Top simplices are the flags
    F_0 < F_1 < ... < F_n of faces of a common top simplex."""
    faces = c.all_faces()
    face_ids = {f: i for i, f in enumerate(faces)}
    coloring = [len(f) for f in faces]
    tops = []
    for s in c.top_simplices:
        for order in permutations(s):
            flag = tuple(face_ids[tuple(sorted(order[:k + 1]))] for k in range(c.n + 1))
            tops.append(tuple(sorted(flag)))
    sd = AbstractComplex(c.n, len(faces), tops)
    if len(sd.top_simplices) != len(tops):
        raise AssertionError("flags of distinct simplices must stay distinct")
    return BarycentricSubdivision(sd, coloring, faces, face_ids, c)


def check_regular_coloring(c: AbstractComplex, coloring) -> bool:
    """True iff every top simplex carries each of the n+1 colors exactly once.

    The complex is pure, so every edge lies inside some top simplex; the
    per-simplex check therefore already forbids equal colors across any edge.
    """
    if len(coloring) != c.num_vertices:
        return False
    palette = set(range(1, c.n + 2))
    return all({coloring[v] for v in s} == palette for s in c.top_simplices)


# ---------------------------------------------------------------------------
# color-set helpers

def color_set(face: Simplex, coloring) -> int:
    """Bitmask of the colors present on ``face``."""
    mask = 0
    for v in face:
        mask |= 1 << (coloring[v] - 1)
    return mask


def face_of_colors(simplex: Simplex, subset: int, coloring) -> Simplex:
    """The face of a regularly colored simplex spanned by the given colors."""
    face = tuple(v for v in simplex if subset >> (coloring[v] - 1) & 1)
    if color_set(face, coloring) != subset:
        raise ValueError(f"simplex {simplex} does not carry every color in mask {subset:b}")
    return face


# ---------------------------------------------------------------------------
# bipartition and orientation

def bipartition(c: AbstractComplex, coloring) -> list[int]:
    """Two-color the facet-dual graph; +1 on the lexicographically smallest
    top simplex of each component.  Raises OddCycleError with an explicit odd
    closed walk when no two-coloring exists."""
    from .errors import OddCycleError

    if not check_regular_coloring(c, coloring):
        raise ValueError("bipartition requires a regular coloring")
    adj: dict[int, list[int]] = {i: [] for i in range(len(c.top_simplices))}
    for a, b in c.dual_edges():
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
                    raise OddCycleError(
                        "facet-dual graph has an odd cycle; a balanced closed "
                        "pseudomanifold with bipartite dual would be orientable, "
                        "so this complex is not",
                        _tree_cycle(parent, i, j))
    return parts


def _tree_cycle(parent, a, b) -> list[int]:
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


def induced_facet_sign(simplex: Simplex, sign: int, drop_position: int) -> int:
    return sign * (-1 if drop_position % 2 else 1)


def orient(c: AbstractComplex) -> list[int]:
    """Coherent orientation by sign propagation over the dual graph.

    Requires a closed pseudomanifold.  Signs are chosen so that the two top
    simplices at each facet induce opposite signs on it; the simplex of index
    0 gets +1.  Raises NonOrientableError with the offending facet otherwise.
    """
    from .errors import NonOrientableError

    signs = [0] * len(c.top_simplices)
    position = {}
    for facet, cof in c.facet_cofaces.items():
        if len(cof) != 2:
            raise ValueError("orient requires every facet in exactly two top simplices")
    for i, s in enumerate(c.top_simplices):
        for j in range(c.n + 1):
            position[(s[:j] + s[j + 1:], i)] = j
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
                a, b = c.facet_cofaces[facet]
                other = b if a == i else a
                needed = -induced_facet_sign(s, signs[i], j)
                k = position[(facet, other)]
                wanted = needed * (-1 if k % 2 else 1)
                if signs[other] == 0:
                    signs[other] = wanted
                    queue.append(other)
                elif signs[other] != wanted:
                    raise NonOrientableError(
                        "sign propagation around a dual cycle is inconsistent",
                        (facet, i, other))
    return signs


def is_coherent_orientation(c: AbstractComplex, signs) -> bool:
    """Check that every facet receives opposite induced signs from its two
    cofaces (i.e. the signed sum of top simplices is a cycle)."""
    for facet, cof in c.facet_cofaces.items():
        if len(cof) != 2:
            return False
        total = 0
        for i in cof:
            s = c.top_simplices[i]
            j = s.index(*(set(s) - set(facet)))
            total += induced_facet_sign(s, signs[i], j)
        if total != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the working bundle

class ColoredPseudomanifold:
    """An oriented closed pseudomanifold with a regular vertex coloring,
    bipartitioned top simplices, and per-color vertex lookups.

    Orientation is computed before the bipartition: for balanced closed
    pseudomanifolds the dual graph is bipartite exactly when the complex is
    orientable, and the orientation failure carries the better witness.
    """

    def __init__(self, complex: AbstractComplex, coloring,
                 orientation: list[int] | None = None):
        report = validate_pseudomanifold(complex)
        if not report.ok:
            raise ValueError(f"not a closed pseudomanifold: {report.summary()}")
        if not check_regular_coloring(complex, coloring):
            raise ValueError("coloring is not regular")
        self.complex = complex
        self.n = complex.n
        self.coloring = list(coloring)
        if orientation is None:
            orientation = orient(complex)
        elif not is_coherent_orientation(complex, orientation):
            raise ValueError("supplied orientation is not coherent")
        self.orientation = list(orientation)
        self.parts = bipartition(complex, coloring)
        # by_color[i][c-1] = the vertex of color c in top simplex i
        self.by_color: list[tuple[int, ...]] = []
        for s in complex.top_simplices:
            ordered = sorted(s, key=lambda v: self.coloring[v])
            self.by_color.append(tuple(ordered))
        self.plus = [i for i, p in enumerate(self.parts) if p == 1]
        self.minus = [i for i, p in enumerate(self.parts) if p == -1]

    @property
    def top_count(self) -> int:
        return len(self.complex.top_simplices)

    def neighbor_across(self, i: int, facet_colors: int) -> int:
        """The other top simplex sharing the facet of i colored by the given
        size-n color mask."""
        missing = (~facet_colors) & ((1 << (self.n + 1)) - 1)
        if missing == 0 or missing & (missing - 1):
            raise ValueError("facet color mask must omit exactly one color")
        drop = self.by_color[i][missing.bit_length() - 1]
        s = self.complex.top_simplices[i]
        facet = tuple(v for v in s if v != drop)
        a, b = self.complex.facet_cofaces[facet]
        return b if a == i else a


def colored_from_complex(complex: AbstractComplex, coloring=None,
                         orientation=None):
    """Build the working bundle, subdividing first when no regular coloring
    is supplied.  Returns (bundle, subdivision-or-None)."""
    if coloring is not None:
        return ColoredPseudomanifold(complex, coloring, orientation), None
    report = validate_pseudomanifold(complex)
    if not report.ok:
        raise ValueError(f"not a closed pseudomanifold: {report.summary()}")
    sd = barycentric_subdivide(complex)
    return ColoredPseudomanifold(sd.complex, sd.coloring), sd
