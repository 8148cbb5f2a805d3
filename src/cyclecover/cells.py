"""Complexes of permutahedra glued facet-to-facet.

A permutahedral complex is a finite set of n-permutahedra together with a
pairing of their facets.  Facet F_w of a cell is always glued to facet F_w of
the partner cell by the identity on the permutahedron coordinate, which is
exactly how both the Tomei manifold and its covers are assembled; the face
identifications of lower-dimensional faces follow from the facet pairing.
The pairing is therefore one integer table, ``glue[cell, slot]``, with one
column per facet label in ``proper_subsets`` order, and every check on it is
a whole-column gather.

Face classes of codimension k are the orbits of (cell, chain) pairs under the
gluings along the k facets the face lies in.  The constructor checks that
every gluing is an involution and that gluings across nested facets commute,
so a chain's gluings generate a quotient of (Z/2)^k and its orbits are
closed by construction.  Their size, exactly 2^k, is checked, not assumed:
a chain's classes are built from those of the chain without its last
facet, and each class must join two different classes of that prefix.

No command certifies a complex from its face classes or its triangulation:
``verify`` and ``tomei`` read the flag template and the glue table
(``certificate``), and count classes in closed form.  ``face_classes`` and
``triangulate`` build them only to write a triangulation
(``tomei --out``, ``cover --cells-out``), for library use and as the
oracles of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentGluingError
from .permutahedron import Chain, flag_template, mask_elements, proper_subsets
from .pseudomanifold import AbstractComplex, lowest_labels

UNGLUED = -1  # a glue entry naming no partner cell


class PermutahedralComplex:
    """Cells 0..num_cells-1 with the facet pairing as an int32 table:
    ``glue[cell, slot]`` is the cell glued to facet F_w of ``cell``, where
    ``w = subsets[slot]``."""

    def __init__(self, n: int, num_cells: int, glue):
        self.n = n
        self.num_cells = num_cells
        self.subsets = proper_subsets(n)
        glue = np.asarray(glue)
        if glue.shape != (num_cells, len(self.subsets)) or glue.dtype.kind not in "iu":
            raise ValueError(
                f"glue must be an integer table of shape "
                f"({num_cells}, {len(self.subsets)}), got {glue.dtype} {glue.shape}")
        self._check(glue)
        self.glue = glue.astype(np.int32, copy=False)

    def _check(self, glue: np.ndarray):
        def first(bad):
            cell, slot = np.argwhere(bad)[0]
            return int(cell), int(slot)

        bad = glue == UNGLUED
        if bad.any():
            cell, slot = first(bad)
            raise InconsistentGluingError(
                f"cell {cell} facet {mask_elements(self.subsets[slot])} unglued")
        bad = (glue < 0) | (glue >= self.num_cells)
        if bad.any():
            cell, slot = first(bad)
            raise InconsistentGluingError(f"glue target {glue[cell, slot]} out of range")
        # every entry is now a cell id, so the checks below gather on int32
        # columns with np.take, which indexes without the slow path that
        # fancy indexing takes for non-intp indices
        columns = glue.T.astype(np.int32, order="C")
        cells = np.arange(self.num_cells, dtype=columns.dtype)
        bad = glue == cells[:, None]
        if bad.any():
            cell, slot = first(bad)
            raise InconsistentGluingError(
                f"facet {mask_elements(self.subsets[slot])} of cell {cell} glued to itself")
        for slot, w in enumerate(self.subsets):
            bad = np.take(columns[slot], columns[slot]) != cells
            if bad.any():
                raise InconsistentGluingError(
                    f"gluing across {mask_elements(w)} is not an involution "
                    f"at cell {np.flatnonzero(bad)[0]}")
        # identifications around a codimension-2 face must close up
        for a, w1 in enumerate(self.subsets):
            for b, w2 in enumerate(self.subsets):
                if w1 != w2 and (w1 & w2) == w1:
                    bad = (np.take(columns[b], columns[a])
                           != np.take(columns[a], columns[b]))
                    if bad.any():
                        raise InconsistentGluingError(
                            f"gluings across nested facets {mask_elements(w1)} "
                            f"and {mask_elements(w2)} do not commute at cell "
                            f"{np.flatnonzero(bad)[0]}")

    def __repr__(self):
        return f"PermutahedralComplex(n={self.n}, cells={self.num_cells})"


@dataclass
class FaceClasses:
    """Orbits of (cell, chain) pairs, one id array per chain.

    ``class_ids[r, cell]`` is the class of (cell, chains[r]).  Ids run
    codimension first, then chain enumeration order, then lowest cell;
    ``chain_start[r]`` is the first id of chain r and ``chain_start[-1]``
    the number of classes.
    """

    pc: PermutahedralComplex
    chains: list[Chain]
    class_ids: np.ndarray
    chain_start: list[int]
    codim_start: list[int]

    @property
    def num_classes(self) -> int:
        return self.chain_start[-1]

    @cached_property
    def members(self) -> list[list[tuple[int, Chain]]]:
        """``members[cid]`` lists the (cell, chain) pairs of face class cid,
        ascending by cell; classes are in id order.  Built whole on first
        read, by grouping each chain's cells by class id.  No command reads
        it: it is for library use and the tests."""
        return [[(cell, chain) for cell in group]
                for ids, chain in zip(self.class_ids, self.chains)
                for group in np.argsort(ids, kind="stable").reshape(
                    -1, 1 << len(chain)).tolist()]

    @cached_property
    def chain_of_class(self) -> list[Chain]:
        return [chain for r, chain in enumerate(self.chains)
                for _ in range(self.chain_start[r + 1] - self.chain_start[r])]

    def counts_by_codim(self) -> list[int]:
        ends = self.codim_start[1:] + [self.num_classes]
        return [end - start for start, end in zip(self.codim_start, ends)]


def face_classes(pc: PermutahedralComplex) -> FaceClasses:
    """Identify faces across the gluing.  Deterministic: codimension-major,
    then chain enumeration order, then lowest cell index.

    Chains are the rows of the permutahedron's ``flag_template``.  Each
    chain c = (w_1 < ... < w_k) takes its ids from those of its prefix
    c' = c[:-1], the template's ``prefix`` row, which is enumerated
    earlier, and crosses w_k, its ``last`` slot.  Since the gluings are
    involutions and those across nested facets commute (both checked when
    the complex is built), the orbit of a cell x under c is its c'-orbit
    together with the c'-orbit of t(x), t the gluing across w_k.  Two
    c'-orbits are equal or disjoint, so the c-orbit has 2^k cells exactly
    when x and t(x) have different c'-ids; otherwise it has 2^(k-1).  The
    lower of the two c'-ids belongs to the orbit's lowest cell, so ranking
    the lower ids that occur numbers the classes by lowest cell.
    """
    t = flag_template(pc.n)
    crossing = pc.glue.T.copy()  # crossing[slot] is one contiguous column
    class_ids = np.empty((len(t.chains), pc.num_cells), dtype=np.int32)
    class_ids[0] = np.arange(pc.num_cells)  # codimension 0: one class per cell
    chain_start = [0, pc.num_cells]
    codim_start = [0]
    rows = zip(t.chains[1:], t.prefix[1:].tolist(), t.last[1:].tolist())
    for r, (chain, prefix, slot) in enumerate(rows, start=1):
        next_id = chain_start[-1]
        if len(codim_start) == len(chain):
            codim_start.append(next_id)
        ids = class_ids[prefix]
        across = np.take(ids, crossing[slot])
        collapsed = across == ids
        if collapsed.any():
            raise InconsistentGluingError(
                f"face orbit of {chain} at cell {int(np.argmax(collapsed))} has "
                f"size {1 << (len(chain) - 1)}, expected {1 << len(chain)}")
        lower = np.minimum(ids, across, out=across).astype(np.intp)
        lower -= chain_start[prefix]
        present = np.zeros(chain_start[prefix + 1] - chain_start[prefix], dtype=bool)
        present[lower] = True
        rank = np.cumsum(present, dtype=np.int32)
        rank += next_id - 1
        class_ids[r] = np.take(rank, lower)
        chain_start.append(next_id + len(present) // 2)  # two prefix classes each
    return FaceClasses(pc, t.chains, class_ids, chain_start, codim_start)


def cell_components(pc: PermutahedralComplex) -> np.ndarray:
    """Connected component index of each cell, numbered in the order of
    the components' lowest cells."""
    return np.unique(lowest_labels(pc.glue), return_inverse=True)[1]


def euler_characteristic(pc: PermutahedralComplex,
                         classes: FaceClasses | None = None) -> int:
    classes = classes or face_classes(pc)
    return euler_of_counts(classes.counts_by_codim())


def euler_of_counts(counts: list[int]) -> int:
    """The Euler characteristic from the face counts of codimension
    0, ..., n."""
    n = len(counts) - 1
    return sum((-1) ** (n - k) * count for k, count in enumerate(counts))


@dataclass
class Triangulation:
    """Barycentric triangulation of a permutahedral complex.

    Vertices of the simplicial complex are face classes; each top simplex is
    a flag of one cell, and ``cell_of_top[t]`` is the cell of top simplex t
    of ``complex``.
    """

    pc: PermutahedralComplex
    classes: FaceClasses
    complex: AbstractComplex
    cell_of_top: np.ndarray


def triangulate(pc: PermutahedralComplex,
                classes: FaceClasses | None = None) -> Triangulation:
    classes = classes or face_classes(pc)
    flags = flag_template(pc.n).flags
    # ids[cell, f] holds the sorted class ids of flag f of the cell
    ids = np.sort(classes.class_ids[flags].transpose(2, 0, 1), axis=2)
    if (ids[..., 1:] == ids[..., :-1]).any():
        raise InconsistentGluingError("flag vertices collapsed in the quotient")
    tops = ids.reshape(-1, pc.n + 1)
    order = np.lexsort(tops.T[::-1])
    tops = tops[order]
    if (tops[1:] == tops[:-1]).all(axis=1).any():
        raise InconsistentGluingError("two flags produced the same simplex")
    complex_ = AbstractComplex(pc.n, classes.num_classes, tops)
    return Triangulation(pc, classes, complex_, order // len(flags))
