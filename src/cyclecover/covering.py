"""Finite covers of the Tomei manifold from tuples of involutions.

A cover cell is a triple (sigma, tuple_id, g): a top simplex of the colored
pseudomanifold, an interned tuple holding one compatible involution per color
subset, and an element of (Z_2)^n whose parity must match the part of sigma
(plus part iff evenly many bits).  Crossing facet F_w sends the triple to

    (L_w(sigma),  conjugate the components indexed by subsets of w,  g + e_|w|)

where L_w is the tuple's component at w.  This is an involution without fixed
points, it preserves the parity constraint, and crossings along nested facet
labels commute, so the glued cells form a permutahedral complex; forgetting
everything but g projects it onto the Tomei manifold cell by cell.

The new tuple depends only on the old tuple and w, never on sigma or g.  So
the builders first close their tuples under crossings, once per
(tuple, facet), and lay the result out as gather tables indexed by tuple.
A whole set of cells then crosses every facet in one array gather, and
cells are looked up in a dense (tuple, sigma, g) index.  A component is
numbered level by level from its seed cell, in breadth-first order; the
full cover set is numbered in (sigma, tuple, g) order.  Cover cells are
kept as three integer arrays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .cells import FaceClasses, PermutahedralComplex, face_classes
from .errors import CapExceededError, InconsistentGluingError, NotACoveringError
from .involutions import (
    Involution,
    canonical_involution,
    enumerate_compatible_involutions,
    is_compatible_involution,
    predicted_multiplicity,
)
from .permutahedron import mask_elements, proper_subsets
from .pseudomanifold import ColoredPseudomanifold
from .tomei import build_tomei, size_generator

DEFAULT_MAX_CELLS = 10 ** 6


def parity_sign(g: int) -> int:
    """The character of (Z_2)^n taking -1 on every generator."""
    return -1 if g.bit_count() % 2 else 1


def parity_signs(n: int) -> np.ndarray:
    """``parity_sign(g)`` for every g in range(2^n)."""
    return np.array([parity_sign(g) for g in range(1 << n)], dtype=np.int64)


class CoverCell(NamedTuple):
    sigma: int
    tuple_id: int
    g: int


class InvolutionRegistry:
    """Interning pool for involutions and involution tuples.

    Tuples are validated on first intern: the component in the slot of color
    subset w must be an involution compatible with w.  Conjugations are
    memoized, so repeated facet crossings stay cheap.
    """

    def __init__(self, cp: ColoredPseudomanifold):
        self.cp = cp
        self.subsets = proper_subsets(cp.n)
        self.slot_of = {w: k for k, w in enumerate(self.subsets)}
        self._involutions: list[Involution] = []
        self._inv_ids: dict[Involution, int] = {}
        self._tuples: list[tuple[int, ...]] = []
        self._tuple_ids: dict[tuple[int, ...], int] = {}
        self._conj: dict[tuple[int, int], int] = {}
        self._validated: set[tuple[int, int]] = set()

    def intern_involution(self, perm: Involution) -> int:
        iid = self._inv_ids.get(perm)
        if iid is None:
            iid = len(self._involutions)
            self._involutions.append(perm)
            self._inv_ids[perm] = iid
        return iid

    def involution(self, iid: int) -> Involution:
        return self._involutions[iid]

    def intern_tuple(self, inv_ids) -> int:
        key = tuple(inv_ids)
        tid = self._tuple_ids.get(key)
        if tid is None:
            if len(key) != len(self.subsets):
                raise ValueError("tuple must have one involution per proper subset")
            for slot, iid in enumerate(key):
                if (iid, slot) not in self._validated:
                    if not is_compatible_involution(
                            self.cp, self._involutions[iid], self.subsets[slot]):
                        raise ValueError(
                            f"component for subset {mask_elements(self.subsets[slot])} "
                            f"is not a compatible involution")
                    self._validated.add((iid, slot))
            tid = len(self._tuples)
            self._tuples.append(key)
            self._tuple_ids[key] = tid
        return tid

    def components(self, tid: int) -> tuple[int, ...]:
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
            self.intern_involution(canonical_involution(self.cp, w))
            for w in self.subsets)

    @property
    def tuple_count(self) -> int:
        return len(self._tuples)


def in_cover_set(cp: ColoredPseudomanifold, cell: CoverCell) -> bool:
    """Membership in the cover cell set: g in range and parity matching."""
    if not 0 <= cell.g < 1 << cp.n:
        return False
    return (cp.parts[cell.sigma] == 1) == (parity_sign(cell.g) == 1)


def tuple_crossing(reg: InvolutionRegistry, tuple_id: int, subset: int) -> tuple[int, int]:
    """The part of the crossing of F_subset that ignores sigma and g: the id
    of the crossed component L_w and the id of the conjugated tuple."""
    ids = reg.components(tuple_id)
    lam_id = ids[reg.slot_of[subset]]
    new_ids = list(ids)
    for slot, gamma in enumerate(reg.subsets):
        if gamma & ~subset == 0:  # gamma inside the crossed label
            new_ids[slot] = reg.conjugate(lam_id, ids[slot])
    return lam_id, reg.intern_tuple(new_ids)


def cross_facet(reg: InvolutionRegistry, cell: CoverCell, subset: int) -> CoverCell:
    """The gluing involution across facet F_subset."""
    lam_id, tuple_id = tuple_crossing(reg, cell.tuple_id, subset)
    return CoverCell(reg.involution(lam_id)[cell.sigma], tuple_id,
                     cell.g ^ size_generator(subset))


@dataclass
class _Orbit:
    """Gather tables over a list of tuples closed under facet crossings.

    Row t stands for the interned tuple ``tuple_ids[t]``: crossing F_w, with
    w = subsets[slot], sends (t, sigma, g) to
    (``newt[t, slot]``, ``lam[t, sigma, slot]``, g ^ ``gen[slot]``).
    """

    n: int
    tuple_ids: list[int]
    lam: np.ndarray  # int32 (tuples, top simplices, slots)
    newt: np.ndarray  # int32 (tuples, slots)
    gen: np.ndarray  # int32 (slots,)

    @property
    def size(self) -> int:
        """Entries of the dense (tuple row, sigma, g) index."""
        return self.lam.shape[0] * self.lam.shape[1] << self.n

    def key(self, t, sigma, g):
        """Position of (tuple row, sigma, g) in the dense index."""
        return (t * self.lam.shape[1] + sigma) << self.n | g

    def split(self, keys: np.ndarray):
        """The (tuple row, sigma, g) arrays at the given dense positions."""
        rest, g = np.divmod(keys, 1 << self.n)
        t, sigma = np.divmod(rest, self.lam.shape[1])
        return t, sigma, g

    def crossed(self, t: np.ndarray, sigma: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Dense index of the cell across every facet of each given cell, as
        an int64 (cells, slots) array in slot order."""
        return self.key(self.newt[t].astype(np.int64), self.lam[t, sigma],
                        g[:, None] ^ self.gen)


_LEFT_FULL_SET = "facet crossing left the full cover set; conjugation closure failed"


def _tuple_orbit(reg: InvolutionRegistry, tuple_ids: list[int],
                 max_tuples: int | None = None) -> _Orbit:
    """Close ``tuple_ids`` under the tuple part of every facet crossing,
    visiting the tuples in list order and appending each new one.

    Without ``max_tuples`` the list must need no new tuple (the full cover
    set).  With it, more than ``max_tuples`` tuples exceed the component
    cap, since every tuple of the orbit carries a cell of the component.
    """
    row = {tid: t for t, tid in enumerate(tuple_ids)}
    lam_ids, newt = [], []
    for tid in tuple_ids:  # the list grows while the loop runs
        for w in reg.subsets:
            lam_id, new_id = tuple_crossing(reg, tid, w)
            t = row.get(new_id)
            if t is None:
                if max_tuples is None:
                    raise InconsistentGluingError(_LEFT_FULL_SET)
                if len(tuple_ids) >= max_tuples:
                    raise CapExceededError(f"component exceeded {max_tuples} cells",
                                           max_tuples, max_tuples)
                t = row[new_id] = len(tuple_ids)
                tuple_ids.append(new_id)
            lam_ids.append(lam_id)
            newt.append(t)
    shape = (len(tuple_ids), len(reg.subsets))
    used, which = np.unique(np.array(lam_ids, dtype=np.int64), return_inverse=True)
    perms = np.array([reg.involution(i) for i in used.tolist()], dtype=np.int32)
    lam = np.ascontiguousarray(perms.T[:, which.reshape(shape)].transpose(1, 0, 2))
    gen = np.array([size_generator(w) for w in reg.subsets], dtype=np.int32)
    return _Orbit(reg.cp.n, tuple_ids, lam,
                  np.array(newt, dtype=np.int32).reshape(shape), gen)


@dataclass(eq=False)
class CoverComplex:
    """A set of cover cells closed under facet crossings, as a
    permutahedral complex plus the projection data: cell i is
    (``sigma[i]``, ``tuple_id[i]``, ``g[i]``)."""

    cp: ColoredPseudomanifold
    registry: InvolutionRegistry
    sigma: np.ndarray
    tuple_id: np.ndarray
    g: np.ndarray
    pc: PermutahedralComplex

    @property
    def num_cells(self) -> int:
        return len(self.g)

    @cached_property
    def cells(self) -> list[CoverCell]:
        return list(map(CoverCell, self.sigma.tolist(), self.tuple_id.tolist(),
                        self.g.tolist()))


def _cover(reg: InvolutionRegistry, orbit: _Orbit, t: np.ndarray,
           sigma: np.ndarray, g: np.ndarray, glue: np.ndarray) -> CoverComplex:
    """The cover whose cell i is (sigma[i], the tuple of row t[i], g[i])."""
    tuple_id = np.array(orbit.tuple_ids, dtype=np.int64)[t]
    return CoverComplex(reg.cp, reg, sigma, tuple_id, g,
                        PermutahedralComplex(reg.cp.n, len(g), glue))


def seed_cell(reg: InvolutionRegistry) -> CoverCell:
    """Deterministic starting cell: the smallest plus-part simplex, the
    canonical involution tuple, and g = 0."""
    return CoverCell(int(reg.cp.plus[0]), reg.canonical_tuple(), 0)


def build_component(cp: ColoredPseudomanifold, seed: CoverCell | None = None,
                    max_cells: int = DEFAULT_MAX_CELLS,
                    registry: InvolutionRegistry | None = None) -> CoverComplex:
    """The component of one cell under all facet crossings.

    The seed tuple's orbit is closed first, and gives the gather tables.
    The component is then numbered level by level over the dense
    (tuple, sigma, g) index: each level gathers its cells' neighbours in
    (cell, slot) order and numbers those not yet seen in order of first
    occurrence.  That is breadth-first order, so cell ids and the glue
    table do not depend on how the work is batched.
    """
    reg = registry or InvolutionRegistry(cp)
    if seed is None:
        seed = seed_cell(reg)
    if not in_cover_set(cp, seed):
        raise ValueError(f"seed {seed} violates the parity constraint")
    reg.intern_tuple(reg.components(seed.tuple_id))
    orbit = _tuple_orbit(reg, [seed.tuple_id], max_cells)
    number = np.full(orbit.size, -1, dtype=np.int32)
    frontier = np.array([orbit.key(0, seed.sigma, seed.g)], dtype=np.int64)
    number[frontier] = 0
    count = 1
    levels, rows = [frontier], []
    while frontier.size:
        crossed = orbit.crossed(*orbit.split(frontier))
        unseen = crossed[number[crossed] < 0]  # (cell, slot) order
        _, first = np.unique(unseen, return_index=True)
        frontier = unseen[np.sort(first)]
        if count + frontier.size > max_cells:
            raise CapExceededError(
                f"component exceeded {max_cells} cells", max_cells, max_cells)
        number[frontier] = np.arange(count, count + frontier.size, dtype=np.int32)
        count += frontier.size
        levels.append(frontier)
        rows.append(number[crossed])
    return _cover(reg, orbit, *orbit.split(np.concatenate(levels)),
                  np.concatenate(rows))


def build_full(cp: ColoredPseudomanifold,
               max_cells: int = DEFAULT_MAX_CELLS,
               counts: list[int] | None = None) -> CoverComplex:
    """Every cover cell at once: all top simplices, all tuples from the full
    product of compatible involutions, all parity-consistent g, numbered in
    (sigma, tuple, g) order.  The size comes from the involution counts and
    is checked against the cap before any involution is enumerated;
    ``counts`` may hand in the counts, one per proper subset in order."""
    reg = InvolutionRegistry(cp)
    total = cp.top_count * predicted_multiplicity(cp, counts)
    if total > max_cells:
        raise CapExceededError(
            f"full cover set has {total} cells, more than the cap {max_cells}",
            max_cells, total)
    pool_ids = [[reg.intern_involution(p)
                 for p in enumerate_compatible_involutions(cp, w)]
                for w in reg.subsets]
    tuple_ids = [reg.intern_tuple(combo) for combo in product(*pool_ids)]
    orbit = _tuple_orbit(reg, tuple_ids)
    # valid[sigma, t, g]: the parity constraint, numbered in C order
    valid = cp.parts[:, None] == parity_signs(cp.n)
    valid = np.broadcast_to(valid[:, None, :],
                            (cp.top_count, len(tuple_ids), 1 << cp.n))
    sigma, t, g = np.nonzero(valid)
    number = np.full(valid.shape, -1, dtype=np.int32)
    number[sigma, t, g] = np.arange(len(sigma), dtype=np.int32)
    number = number.transpose(1, 0, 2).ravel()  # dense (t, sigma, g) order
    glue = number[orbit.crossed(t, sigma, g)]
    if (glue < 0).any():
        raise InconsistentGluingError(_LEFT_FULL_SET)
    return _cover(reg, orbit, t, sigma, g, glue)


# ---------------------------------------------------------------------------
# verification

@dataclass
class CoveringReport:
    """The covering degree, the fibre size over every base cell and base
    class, and the base class under each cover class (``int32``)."""

    degree: int
    cell_fibers: dict[int, int]
    class_fibers: dict[int, int]
    cover_class_to_base: np.ndarray


def verify_cell_projection(cover_pc: PermutahedralComplex, projection,
                           base: PermutahedralComplex,
                           cover_classes: FaceClasses | None = None,
                           base_classes: FaceClasses | None = None) -> CoveringReport:
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

    moved = proj[cover_pc.glue] != base.glue[proj]
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

    cover_cls = cover_classes or face_classes(cover_pc)
    base_cls = base_classes or face_classes(base)
    # image[cid] is the base class under cover class cid: one chain at a
    # time, scatter the image of every (cell, chain), then check each member
    # agrees with its class
    image = np.empty(cover_cls.num_classes, dtype=np.int32)
    for r, chain in enumerate(cover_cls.chains):
        ids = cover_cls.class_ids[r]
        wanted = base_cls.class_ids[r][proj]
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


def verify_covering(cover: CoverComplex,
                    base: PermutahedralComplex | None = None,
                    cover_classes: FaceClasses | None = None,
                    base_classes: FaceClasses | None = None) -> CoveringReport:
    """Certify the parity constraint on the cover cells, then certify that
    forgetting (sigma, tuple) is a covering of the Tomei manifold."""
    cp = cover.cp
    base = base or build_tomei(cp.n)
    in_range = (cover.g >= 0) & (cover.g < 1 << cp.n)
    sign = parity_signs(cp.n)[np.where(in_range, cover.g, 0)]
    bad = ~in_range | (sign != cp.parts[cover.sigma])
    if bad.any():
        raise NotACoveringError(
            f"cell {cover.cells[int(np.argmax(bad))]} violates the parity constraint")
    return verify_cell_projection(cover.pc, cover.g, base, cover_classes,
                                  base_classes)
