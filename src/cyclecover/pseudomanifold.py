"""Closed pseudomanifolds with regularly colored vertices.

A complex is stored by its top simplices only: ``tops``, a sorted integer
array with one ascending vertex row per top simplex, and the same rows as
tuples in ``top_simplices``, built on first use.  The operations here
establish the combinatorial backbone used by every other module:
pseudomanifold validation, barycentric subdivision with its canonical
coloring by face dimension, coherent orientation by sign propagation, and
the two parts of the top simplices.

Adjacency lives in one array table per complex, ``facet_table``: every
(top, dropped position) pair gets the id of its facet, facets are numbered
in sorted vertex order by sorting one key per facet, and where a facet lies
in exactly two top simplices the table names the top across it and the
position dropped there.  Validation, orientation, the surface check and the
dual graph all read this table; components and orientation signs come
from one run of ``lowest_labels`` per table, which hooks trees under their
lowest neighbors and shortcuts pointers.  The lower face levels, which
``homology`` reads, get tables of their own, built once per complex and
from the top down (``facet_levels``, ``facet_tables``).

The barycentric subdivision is numbered once, by the (top x face mask)
table of ``face_ids``: the subdivision's flags and the certificate's
vertices are both read from it.

The parts need no search of their own.  Read in color order, the
orientation of a top simplex is its orientation times the sign of the
permutation that sorts its colors.  Two tops across a facet share every
color but one, so coherence makes that product opposite on them: it
two-colors the dual graph, the small-cover sign of Davis and
Januszkiewicz.  Normalized to +1 on the lowest top of each component, it
gives the parts, which are checked across every facet.  The colored
bundle keeps its parts and its vertex of each color per top as arrays.

Conventions.  Vertices are 0-based integers.  Colors are 1-based integers in
``{1, ..., n+1}`` and sets of colors are bitmasks with bit ``c - 1`` standing
for color ``c``.  An orientation assigns ``+1``/``-1`` to every top simplex,
read against the sorted vertex order; the induced sign on the facet obtained
by dropping position ``i`` is ``(-1) ** i`` times the simplex sign.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

Simplex = tuple[int, ...]


def _lex_order(rows: np.ndarray, bound: int) -> np.ndarray:
    """Stable lexicographic order of the rows of a nonnegative integer
    array whose entries are below ``bound``: one mixed-radix key per row
    when it fits in int64, else a lexsort over the columns."""
    rows = np.asarray(rows, dtype=np.int64)
    if bound ** rows.shape[1] <= np.iinfo(np.int64).max:
        key = np.zeros(len(rows), dtype=np.int64)
        for column in rows.T:
            key = key * bound + column
        return np.argsort(key, kind="stable")
    return np.lexsort(rows.T[::-1])


def lowest_labels_of_edges(count: int, node: np.ndarray, across: np.ndarray,
                           flip: np.ndarray | None = None):
    """Label each of ``count`` nodes by the lowest node of its component,
    for the edges node[e] - across[e], each listed from both ends.

    Nodes hang in trees by parent pointers, each rooted at its lowest node.
    Every round shortcuts each pointer to its root, then hooks every root
    that has an edge to a tree with a lower root under the lowest such
    root, until no edge joins two trees.  A root hooks only across edges
    listed from its own side, so an edge listed once may never be taken.
    A root that does not hook in one round is hooked under in the next, so
    the number of trees halves at least every two rounds, whatever the
    numbering.  With ``flip`` (one +1/-1 per edge) also return each node's
    sign relative to its label: the product of the flips along a walk from
    the node to the label.
    """
    flips = np.ones(len(across), dtype=np.int8) if flip is None else flip
    parent = np.arange(count)
    sign = np.ones(count, dtype=np.int8)
    none = np.iinfo(np.int64).max
    while True:
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            sign = sign * sign[parent]
            parent = grand
        root, other = parent[node], parent[across]
        joins = np.flatnonzero(other < root)
        if not len(joins):
            return parent if flip is None else (parent, sign)
        # per root, the lowest other root, then the lowest edge slot
        best = np.full(count, none)
        np.minimum.at(best, root[joins], other[joins] * len(across) + joins)
        hooked = np.flatnonzero(best < none)
        slot = best[hooked] % len(across)
        sign[hooked] = sign[node[slot]] * flips[slot] * sign[across[slot]]
        parent[hooked] = other[slot]


def lowest_labels(neighbor: np.ndarray, flip: np.ndarray | None = None):
    """``lowest_labels_of_edges`` on a neighbor table: ``neighbor[v]`` lists
    the neighbors of node v, with v itself in an empty slot, and ``flip``
    holds one +1/-1 per slot."""
    count, width = neighbor.shape
    return lowest_labels_of_edges(
        count, np.repeat(np.arange(count), width), neighbor.ravel(),
        None if flip is None else flip.ravel())


@dataclass(frozen=True)
class FacetTable:
    """Facet adjacency of a complex with T top simplices of n+1 vertices.

    ``facet[t, j]`` is the id of the facet of top t that drops position j;
    ids follow the sorted order of the facets' vertex rows ``facets``, and
    ``counts`` holds each facet's number of top cofaces.  Where that count
    is 2, ``neighbor[t, j]`` is the other top containing the facet and
    ``position[t, j]`` the position it drops there; elsewhere both are -1.
    """

    tops: np.ndarray
    facet: np.ndarray
    facets: np.ndarray
    counts: np.ndarray
    neighbor: np.ndarray
    position: np.ndarray

    @cached_property
    def dual_components(self) -> tuple[np.ndarray, np.ndarray]:
        """One signed ``lowest_labels`` run over the dual graph, shared by
        validation, orientation and the parts: the lowest top of each top's
        component, and each top's sign relative to it under the rule that
        the two tops at a facet induce opposite signs on it.  A top stands
        in for its own missing neighbors; the signs mean an orientation
        only where every facet is two-sided."""
        # across a facet dropping j in t and k in u:
        # sign[u] = -(-1)^(j + k) sign[t]
        width = self.tops.shape[1]
        flip = 2 * ((self.position.astype(np.int8)
                     + np.arange(width, dtype=np.int8)) % 2) - 1
        tops = np.arange(len(self.neighbor))[:, None]
        label, sign = lowest_labels(
            np.where(self.neighbor < 0, tops, self.neighbor), flip)
        label.flags.writeable = sign.flags.writeable = False
        return label, sign

    def agreeing(self, signs: np.ndarray) -> np.ndarray:
        """``out[t, j]``: the two tops at the facet of t that drops j,
        signed by ``signs``, fail to induce opposite signs on it; False
        where the facet lies in one top."""
        parity = 1 - 2 * (np.arange(self.tops.shape[1]) % 2)
        induced = signs[:, None] * parity
        return ((self.neighbor >= 0)
                & (induced + induced[self.neighbor, self.position] != 0))


def group_rows(rows: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a nonnegative integer array (entries
    below ``bound``) in lexicographic order.  Returns ``(ids, order)``:
    ``ids[r]`` is the number of row r and ``order`` the stable
    lexicographic order of the rows."""
    order = _lex_order(rows, bound)
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids, order


def facet_table(tops: np.ndarray, num_vertices: int) -> FacetTable:
    """The facet table of top simplices given as ascending vertex rows."""
    count, width = tops.shape
    keep = [[k for k in range(width) if k != j] for j in range(width)]
    rows = tops[:, keep].reshape(-1, width - 1)  # row t * width + j drops j
    facet, order = group_rows(rows, num_vertices)
    counts = np.bincount(facet)
    facets = np.empty((len(counts), width - 1), dtype=rows.dtype)
    facets[facet] = rows
    # the two occurrences of a facet in two tops sit side by side in order
    pairs = (np.cumsum(counts) - counts)[counts == 2]
    a, b = order[pairs], order[pairs + 1]
    neighbor = np.full(len(rows), -1, dtype=np.int64)
    position = np.full(len(rows), -1, dtype=np.int64)
    neighbor[a], position[a] = b // width, b % width
    neighbor[b], position[b] = a // width, a % width
    shape = (count, width)
    return FacetTable(tops, facet.reshape(shape), facets, counts,
                      neighbor.reshape(shape), position.reshape(shape))


class AbstractComplex:
    """A pure n-dimensional simplicial complex given by its top simplices,
    as a list of vertex sequences or an integer array with one row each."""

    def __init__(self, n: int, num_vertices: int, top_simplices):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if isinstance(top_simplices, np.ndarray):
            rows = top_simplices
            if rows.ndim != 2 or rows.shape[1] != n + 1 or rows.dtype.kind not in "iu":
                raise ValueError(f"top simplices must be integer rows of {n + 1} vertices")
        else:
            rows = [tuple(sorted(s)) for s in top_simplices]
            for s in rows:
                if len(s) != n + 1:
                    raise ValueError(f"top simplex {s} does not have {n + 1} distinct vertices")
            try:
                rows = np.array(rows, dtype=np.int64).reshape(-1, n + 1)
            except OverflowError:
                raise ValueError(
                    f"a top simplex has a vertex outside range(0, {num_vertices})") from None
        if not len(rows):
            raise ValueError("complex has no top simplices")
        rows = np.sort(rows.astype(np.int64, copy=False), axis=1)

        def first(bad) -> Simplex:
            return tuple(rows[np.flatnonzero(bad)[0]].tolist())

        bad = (rows[:, 0] < 0) | (rows[:, -1] >= num_vertices)
        if bad.any():
            raise ValueError(f"top simplex {first(bad)} has a vertex outside range(0, {num_vertices})")
        bad = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        if bad.any():
            raise ValueError(f"top simplex {first(bad)} does not have {n + 1} distinct vertices")
        rows = rows[_lex_order(rows, num_vertices)]
        bad = (rows[1:] == rows[:-1]).all(axis=1)
        if bad.any():
            raise ValueError(f"top simplex {first(bad)} is listed more than once")
        rows.flags.writeable = False
        self.n = n
        self.num_vertices = num_vertices
        self.tops = rows
        self._levels: list[FacetTable] = []

    @cached_property
    def top_simplices(self) -> tuple[Simplex, ...]:
        return tuple(map(tuple, self.tops.tolist()))

    @cached_property
    def facet_table(self) -> FacetTable:
        return facet_table(self.tops, self.num_vertices)

    def facet_levels(self) -> Iterator[FacetTable]:
        """The facet tables of the faces of dimensions n, n - 1, ..., 1, top
        down: the table of the k-faces holds them as ``tops`` and the
        (k-1)-faces as ``facets``.  Each is built from the facets of the one
        before when an iteration first reaches it, and kept, so a caller can
        weigh the k-faces before their table is built.  The first is
        ``facet_table``."""
        levels = self._levels
        for k in range(self.n):
            if k == len(levels):
                levels.append(facet_table(levels[-1].facets, self.num_vertices)
                              if levels else self.facet_table)
            yield levels[k]

    @cached_property
    def facet_tables(self) -> tuple[FacetTable, ...]:
        """The tables of ``facet_levels`` in ascending dimension: entry k - 1
        holds the k-faces as ``tops`` and the (k-1)-faces as ``facets``,
        both as ascending vertex rows in sorted order.  The last entry is
        ``facet_table``."""
        return tuple(self.facet_levels())[::-1]

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of ``validate_pseudomanifold``, computed once."""
        return _validate(self)

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
    facet-dual graph is connected.  Boundary is a failure, not a warning.
    The complex is immutable, so the report is made once per complex and
    the same report is returned to every later call."""
    return c.validation


def _validate(c: AbstractComplex) -> ValidationReport:
    table = c.facet_table
    report = ValidationReport()
    report.boundary_faces = list(map(tuple, table.facets[table.counts == 1].tolist()))
    over = table.counts > 2
    report.overused_faces = list(zip(map(tuple, table.facets[over].tolist()),
                                     table.counts[over].tolist()))
    report.connected = not table.dual_components[0].any()
    return report


# ---------------------------------------------------------------------------
# barycentric subdivision

def face_ids(columns: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Number the nonempty faces of simplices given as rows of vertices.

    ``ids[t, m]`` is the id of the face spanned by ``columns[t, j]`` for
    the bits j of the mask m, and -1 for the empty mask.  Faces are
    numbered by size, then by ascending vertex row: ``faces[k]`` holds the
    faces of k + 1 vertices in id order, and its ids follow those of
    ``faces[k - 1]``.  The ids depend only on the set of faces, so the
    same simplices with their columns in another order get the same ids.
    """
    count, width = columns.shape
    vertices, rank = np.unique(columns, return_inverse=True)
    bits = np.arange(1, 1 << width)[:, None] >> np.arange(width) & 1
    # one row per (top, mask): the face's size, then the ranks of its
    # vertices ascending, then the rank past the last as padding
    rows = np.empty((count, len(bits), width + 1), dtype=np.int64)
    rows[:, :, 0] = bits.sum(axis=1)
    rows[:, :, 1:] = np.sort(np.where(bits, rank.reshape(count, 1, width),
                                      len(vertices)), axis=2)
    rows = rows.reshape(-1, width + 1)
    number, _ = group_rows(rows, len(vertices) + 1)
    ids = np.full((count, 1 << width), -1, dtype=np.int64)
    ids[:, 1:] = number.reshape(count, -1)
    first = np.empty((int(number.max()) + 1, width + 1), dtype=np.int64)
    first[number] = rows
    faces = [vertices[first[first[:, 0] == k, 1:k + 1]]
             for k in range(1, width + 1)]
    return ids, faces


@dataclass
class BarycentricSubdivision:
    """Subdivision data: one new vertex per nonempty face of the source.

    ``coloring`` is the canonical regular coloring (dimension of the source
    face, plus one).  ``ids`` and ``faces`` are ``face_ids`` of the
    source's top simplices: the new vertex at a face is its id.
    ``flag_top[t, a]`` is the subdivision top of the flag of source top t
    in the a-th vertex order of ``permutations(range(n + 1))``.
    """

    complex: AbstractComplex
    coloring: list[int]
    faces: list[np.ndarray]
    ids: np.ndarray
    flag_top: np.ndarray


def barycentric_subdivide(c: AbstractComplex) -> BarycentricSubdivision:
    """Order complex of the face poset.  Top simplices are the flags
    F_0 < F_1 < ... < F_n of faces of a common top simplex: the flag of a
    vertex order is the faces of its prefixes, one gather of the id table,
    and ascending since ids grow with face size."""
    ids, faces = face_ids(c.tops)
    orders = np.array(list(permutations(range(c.n + 1))))
    flags = ids[:, np.cumsum(1 << orders, axis=1)].reshape(-1, c.n + 1)
    num_faces = int(ids.max()) + 1
    sd = AbstractComplex(c.n, num_faces, flags)
    # AbstractComplex puts the flags in this order
    flag_top = np.empty(len(flags), dtype=np.int64)
    flag_top[_lex_order(flags, num_faces)] = np.arange(len(flags))
    coloring = np.repeat(np.arange(1, c.n + 2), [len(f) for f in faces])
    return BarycentricSubdivision(sd, coloring.tolist(), faces, ids,
                                  flag_top.reshape(len(ids), -1))


def check_regular_coloring(c: AbstractComplex, coloring) -> bool:
    """True iff every top simplex carries each of the n+1 colors exactly once.

    The complex is pure, so every edge lies inside some top simplex; the
    per-simplex check therefore already forbids equal colors across any edge.
    """
    coloring = np.asarray(coloring)
    if coloring.shape != (c.num_vertices,) or coloring.dtype.kind not in "iu":
        return False
    colors = np.sort(coloring[c.tops], axis=1)
    return bool((colors == np.arange(1, c.n + 2)).all())


# ---------------------------------------------------------------------------
# bipartition and orientation

def orient(c: AbstractComplex) -> list[int]:
    """Coherent orientation by sign propagation over the dual graph.

    Requires a closed pseudomanifold.  Signs are chosen so that the two top
    simplices at each facet induce opposite signs on it; the lowest top
    simplex of each dual component gets +1.  The propagated signs are then
    checked on every facet; the first facet (in sorted order) on which
    they agree is the witness of a NonOrientableError.
    """
    from .errors import NonOrientableError

    table = c.facet_table
    if (table.counts != 2).any():
        raise ValueError("orient requires every facet in exactly two top simplices")
    _, signs = table.dual_components
    agree = table.agreeing(signs)
    if agree.any():
        facet, i, other = _witness(table, agree)
        raise NonOrientableError(
            "sign propagation around a dual cycle is inconsistent",
            (facet, i, other), signs.tolist())
    return signs.tolist()


def _witness(table: FacetTable, agree: np.ndarray) -> tuple[tuple, int, int]:
    """The first facet, in sorted order, at which ``agree`` (tops x dropped
    positions) holds, and its two tops, lowest first."""
    f = int(table.facet[agree].min())
    i, other = sorted(np.argwhere(table.facet == f)[:, 0].tolist())
    return tuple(table.facets[f].tolist()), i, other


def permutation_signs(rows: np.ndarray) -> np.ndarray:
    """Sign of the permutation sorting each row of distinct integers, from
    the parity of its inversions over all column pairs."""
    inversions = np.zeros(len(rows), dtype=np.int64)
    for i, j in combinations(range(rows.shape[1]), 2):
        inversions += rows[:, i] > rows[:, j]
    return 1 - 2 * (inversions % 2)


def _parts(table: FacetTable, orientation, colors: np.ndarray) -> np.ndarray:
    """The part of every top: its orientation read in color order (``colors``
    holds each top's vertex colors), times that of the lowest top of its
    component.  Checked opposite across every facet; the first facet in
    sorted order where the parts agree names a ``TopologyError``."""
    from .errors import TopologyError

    sign = np.asarray(orientation, dtype=np.int64) * permutation_signs(colors)
    parts = sign * sign[table.dual_components[0]]
    agree = parts[:, None] == parts[table.neighbor]
    if agree.any():
        facet, i, other = _witness(table, agree)
        raise TopologyError(
            f"top simplices {i} and {other} share the facet "
            f"{facet} but lie in the same part")
    parts.flags.writeable = False
    return parts


def bipartition(c: AbstractComplex, coloring) -> list[int]:
    """Two-color the facet-dual graph; +1 on the lowest top simplex of each
    component.  The parts are the coherent orientation read in color order,
    so a non-orientable complex raises ``NonOrientableError``."""
    if not check_regular_coloring(c, coloring):
        raise ValueError("bipartition requires a regular coloring")
    colors = np.asarray(coloring)[c.tops]
    return _parts(c.facet_table, orient(c), colors).tolist()


def is_coherent_orientation(c: AbstractComplex, signs) -> bool:
    """Check that every facet receives opposite induced signs from its two
    cofaces (i.e. the signed sum of top simplices is a cycle)."""
    table = c.facet_table
    signs = np.asarray(signs, dtype=np.int64)
    if (table.counts != 2).any() or signs.shape != (len(table.tops),):
        return False
    return not table.agreeing(signs).any()


# ---------------------------------------------------------------------------
# the working bundle

class ColoredPseudomanifold:
    """An oriented closed pseudomanifold with a regular vertex coloring, as
    arrays: ``parts`` holds +1/-1 per top simplex, ``plus`` and ``minus``
    the ascending tops of each part, and ``by_color[t, c - 1]`` the vertex
    of color c in top t.

    Orientation is computed before the parts, which are read off it: for
    balanced closed pseudomanifolds the dual graph is bipartite exactly
    when the complex is orientable, and the orientation failure carries
    the witness.
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
        tops = complex.tops
        colors = np.asarray(self.coloring)[tops]
        self.parts = _parts(complex.facet_table, self.orientation, colors)
        self.by_color = np.empty_like(tops)
        self.by_color[np.arange(len(tops))[:, None], colors - 1] = tops
        self.by_color.flags.writeable = False
        self.plus = np.flatnonzero(self.parts == 1)
        self.minus = np.flatnonzero(self.parts == -1)

    @property
    def top_count(self) -> int:
        return len(self.complex.tops)


def colored_from_complex(complex: AbstractComplex, coloring=None,
                         orientation=None):
    """Build the working bundle, subdividing first when no regular coloring
    is supplied; a supplied orientation is then checked on the input and
    the subdivision is oriented afresh.  Returns (bundle,
    subdivision-or-None)."""
    if coloring is not None:
        return ColoredPseudomanifold(complex, coloring, orientation), None
    report = validate_pseudomanifold(complex)
    if not report.ok:
        raise ValueError(f"not a closed pseudomanifold: {report.summary()}")
    if orientation is not None and not is_coherent_orientation(complex, orientation):
        raise ValueError("supplied orientation is not coherent")
    sd = barycentric_subdivide(complex)
    return ColoredPseudomanifold(sd.complex, sd.coloring), sd
