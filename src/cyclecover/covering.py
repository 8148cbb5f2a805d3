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

The new tuple depends only on the old tuple and w, never on sigma or g.  The
registry holds the involutions as rows of one ``int32`` matrix and the tuples
as rows of involution ids, each numbered by first occurrence.  The builders
first close their tuples under crossings, a chunk of tuple rows at a time,
conjugating every distinct pair of involutions in a chunk with one gather,
and lay the result out as gather tables indexed by tuple.  A whole set of
cells then crosses every facet in one array gather, and cells are looked up
in a dense (tuple, sigma, g) index.  A component is numbered level by level
from its seed cell, in breadth-first order; the full cover set is numbered
in (sigma, tuple, g) order.  Cover cells are kept as three integer arrays.

The cover is a small cover in the sense of Davis and Januszkiewicz, so the
projection is fixed by how it acts on facet crossings, and it is certified
from the glue table alone: it commutes with every crossing and its cell
fibres are constant.  That each face class of the cover maps bijectively
onto a base class, and every class fibre is the degree, follows from the
base's class sizes (``verify_cell_projection``); the cover's face classes
are never built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cells import FaceClasses, PermutahedralComplex, face_classes
from .errors import CapExceededError, InconsistentGluingError, NotACoveringError
from .involutions import (
    canonical_involution,
    enumerate_compatible_involutions,
    is_compatible_involution,
    predicted_multiplicity,
)
from .permutahedron import mask_elements, proper_subsets
from .pseudomanifold import ColoredPseudomanifold
from .tomei import build_tomei, size_generator

DEFAULT_MAX_CELLS = 10 ** 6

# tuple rows crossed at once by the orbit closure, which bounds its
# (rows, slots, slots) array of crossed tuples
_ORBIT_CHUNK = 4096


def parity_sign(g: int) -> int:
    """The character of (Z_2)^n taking -1 on every generator."""
    return -1 if g.bit_count() % 2 else 1


def parity_signs(n: int) -> np.ndarray:
    """``parity_sign(g)`` for every g in range(2^n)."""
    return np.array([parity_sign(g) for g in range(1 << n)], dtype=np.int64)


class _Rows:
    """Distinct ``int32`` rows of one width, numbered by first occurrence
    through a dict keyed on each row's bytes."""

    def __init__(self, width: int):
        self._ids: dict[bytes, int] = {}
        self._buf = np.empty((16, width), dtype=np.int32)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def array(self) -> np.ndarray:
        return self._buf[:len(self._ids)]

    def intern(self, rows) -> np.ndarray:
        """The id of every given row, numbering new rows in row order."""
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        data, size = rows.tobytes(), rows.itemsize * rows.shape[1]
        ids, start = self._ids, len(self._ids)
        found = np.array([ids.setdefault(data[k:k + size], len(ids))
                          for k in range(0, len(data), size)], dtype=np.int32)
        end = len(ids)
        if end > start:
            if end > len(self._buf):
                buf = np.empty((max(end, 2 * len(self._buf)), rows.shape[1]),
                               dtype=np.int32)
                buf[:start] = self._buf[:start]
                self._buf = buf
            _, first = np.unique(found, return_index=True)
            self._buf[start:end] = rows[first[start - end:]]
        return found


class InvolutionRegistry:
    """Interning pool for involutions and involution tuples.

    ``perms[i]`` is involution i, one entry per top simplex, and
    ``tuples[t]`` holds the involution ids of tuple t, one per proper color
    subset in ``subsets`` order; both are numbered by first occurrence.  A
    tuple is validated on first intern: the component in the slot of color
    subset w must be an involution compatible with w, checked once per
    (involution, slot) pair.
    """

    def __init__(self, cp: ColoredPseudomanifold):
        self.cp = cp
        self.subsets = proper_subsets(cp.n)
        self._perms = _Rows(cp.top_count)
        self._tuples = _Rows(len(self.subsets))
        self._validated: set[tuple[int, int]] = set()

    @property
    def perms(self) -> np.ndarray:
        return self._perms.array

    @property
    def tuples(self) -> np.ndarray:
        return self._tuples.array

    @property
    def tuple_count(self) -> int:
        return len(self._tuples)

    def intern_involutions(self, perms) -> np.ndarray:
        return self._perms.intern(perms)

    def intern_tuples(self, rows) -> np.ndarray:
        start = self.tuple_count
        ids = self._tuples.intern(rows)
        used = np.zeros((len(self._perms), len(self.subsets)), dtype=bool)
        used[self.tuples[start:], np.arange(len(self.subsets))] = True
        for iid, slot in np.argwhere(used).tolist():
            if (iid, slot) not in self._validated:
                if not is_compatible_involution(self.cp, self.perms[iid],
                                                self.subsets[slot]):
                    raise ValueError(
                        f"component for subset {mask_elements(self.subsets[slot])} "
                        f"is not a compatible involution")
                self._validated.add((iid, slot))
        return ids

    def canonical_tuple(self) -> int:
        ids = self.intern_involutions(
            [canonical_involution(self.cp, w) for w in self.subsets])
        return int(self.intern_tuples(ids[None])[0])


@dataclass
class _Orbit:
    """Gather tables over the registry's tuples, closed under facet crossings.

    Row t stands for tuple t: crossing F_w, with w = subsets[slot], sends
    (t, sigma, g) to (``newt[t, slot]``, ``lam[t, sigma, slot]``,
    g ^ ``gen[slot]``).
    """

    n: int
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


def _conjugates(reg: InvolutionRegistry, outer: np.ndarray,
                inner: np.ndarray) -> np.ndarray:
    """The id of outer o inner o outer for every pair of involution ids.
    Each distinct pair is conjugated once, in order of first occurrence."""
    pairs = outer.astype(np.int64).ravel() * len(reg.perms) + inner.ravel()
    _, first, back = np.unique(pairs, return_index=True, return_inverse=True)
    order = np.argsort(first)
    at = first[order]
    p_o = reg.perms[outer.ravel()[at]]
    p_i = reg.perms[inner.ravel()[at]]
    ids = np.empty(len(first), dtype=np.int32)
    ids[order] = reg.intern_involutions(
        np.take_along_axis(p_o, np.take_along_axis(p_i, p_o, axis=1), axis=1))
    return ids[back].reshape(outer.shape)


def _tuple_orbit(reg: InvolutionRegistry, max_tuples: int | None = None) -> _Orbit:
    """Close the registry's tuples under the tuple part of every facet
    crossing, crossing the tuple rows in order, a chunk at a time, and
    interning each new tuple at the end.

    Without ``max_tuples`` the tuples must need no new one (the full cover
    set).  With it, more than ``max_tuples`` tuples exceed the component
    cap, since every tuple of the orbit carries a cell of the component.
    """
    slots = len(reg.subsets)
    # (w, gamma) slot pairs with gamma inside w, in crossing order
    w_slot, gamma_slot = np.nonzero([[gamma & ~w == 0 for gamma in reg.subsets]
                                     for w in reg.subsets])
    known, done, newt = reg.tuple_count, 0, []
    while done < reg.tuple_count:
        rows = reg.tuples[done:done + _ORBIT_CHUNK]
        crossed = np.repeat(rows[:, None, :], slots, axis=1)
        crossed[:, w_slot, gamma_slot] = _conjugates(reg, rows[:, w_slot],
                                                     rows[:, gamma_slot])
        # a crossing that leaves a tuple as it was keeps that tuple's id;
        # only the changed rows are interned, in the same order as before
        ids = np.repeat(np.arange(done, done + len(rows), dtype=np.int32),
                        slots).reshape(len(rows), slots)
        moved = (crossed != rows[:, None, :]).any(axis=2)
        ids[moved] = reg.intern_tuples(crossed[moved])
        newt.append(ids)
        done += len(rows)
        if max_tuples is None:
            if reg.tuple_count > known:
                raise InconsistentGluingError(_LEFT_FULL_SET)
        elif reg.tuple_count > max_tuples:
            raise CapExceededError(f"component exceeded {max_tuples} cells",
                                   max_tuples, max_tuples)
    lam = np.ascontiguousarray(reg.perms[reg.tuples].transpose(0, 2, 1))
    gen = np.array([size_generator(w) for w in reg.subsets], dtype=np.int32)
    return _Orbit(reg.cp.n, lam, np.concatenate(newt), gen)


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


def _cover(reg: InvolutionRegistry, t: np.ndarray, sigma: np.ndarray,
           g: np.ndarray, glue: np.ndarray) -> CoverComplex:
    """The cover whose cell i is (sigma[i], tuple t[i], g[i])."""
    return CoverComplex(reg.cp, reg, sigma, t, g,
                        PermutahedralComplex(reg.cp.n, len(g), glue))


def build_component(cp: ColoredPseudomanifold,
                    max_cells: int = DEFAULT_MAX_CELLS) -> CoverComplex:
    """The component of the seed cell under all facet crossings.  The seed
    is the smallest plus-part simplex with the canonical involution tuple
    and g = 0.

    The seed tuple's orbit is closed first, and gives the gather tables.
    The component is then numbered level by level over the dense
    (tuple, sigma, g) index: each level gathers its cells' neighbours in
    (cell, slot) order and numbers those not yet seen in order of first
    occurrence.  That is breadth-first order, so cell ids and the glue
    table do not depend on how the work is batched.
    """
    reg = InvolutionRegistry(cp)
    reg.canonical_tuple()
    orbit = _tuple_orbit(reg, max_cells)
    number = np.full(orbit.size, -1, dtype=np.int32)
    frontier = np.array([orbit.key(0, int(cp.plus[0]), 0)], dtype=np.int64)
    number[frontier] = 0
    count = 1
    levels, rows = [frontier], []
    while frontier.size:
        crossed = orbit.crossed(*orbit.split(frontier))
        unseen = crossed[number[crossed] < 0]  # (cell, slot) order
        # scatter positions in reverse, so each key keeps its first one
        position = np.arange(unseen.size, dtype=np.int32)
        number[unseen[::-1]] = position[::-1]
        frontier = unseen[number[unseen] == position]
        if count + frontier.size > max_cells:
            raise CapExceededError(
                f"component exceeded {max_cells} cells", max_cells, max_cells)
        number[frontier] = np.arange(count, count + frontier.size, dtype=np.int32)
        count += frontier.size
        levels.append(frontier)
        rows.append(number[crossed])
    return _cover(reg, *orbit.split(np.concatenate(levels)), np.concatenate(rows))


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
    pools = []
    for w in reg.subsets:
        perms = np.reshape(enumerate_compatible_involutions(cp, w), (-1, cp.top_count))
        pools.append(reg.intern_involutions(perms).tolist())
    reg.intern_tuples(np.reshape(list(product(*pools)), (-1, len(pools))))
    orbit = _tuple_orbit(reg)
    # valid[sigma, t, g]: the parity constraint, numbered in C order
    valid = cp.parts[:, None] == parity_signs(cp.n)
    valid = np.broadcast_to(valid[:, None, :],
                            (cp.top_count, reg.tuple_count, 1 << cp.n))
    sigma, t, g = np.nonzero(valid)
    number = np.full(valid.shape, -1, dtype=np.int32)
    number[sigma, t, g] = np.arange(len(sigma), dtype=np.int32)
    number = number.transpose(1, 0, 2).ravel()  # dense (t, sigma, g) order
    glue = number[orbit.crossed(t, sigma, g)]
    if (glue < 0).any():
        raise InconsistentGluingError(_LEFT_FULL_SET)
    return _cover(reg, t, sigma, g, glue)


# ---------------------------------------------------------------------------
# verification

@dataclass
class CoveringReport:
    """The covering degree and the fibre size over every base cell."""

    degree: int
    cell_fibers: dict[int, int]


def verify_cell_projection(cover_pc: PermutahedralComplex, projection,
                           base: PermutahedralComplex,
                           base_classes: FaceClasses | None = None) -> CoveringReport:
    """Certify that a cell map is a covering of permutahedral complexes.

    ``projection[i]`` is the base cell under cover cell i (the permutahedron
    coordinate maps by the identity).  Checks, in order: the projection
    commutes with every facet crossing; fibers over cells are constant with
    integral degree.  The base's face classes are built, or handed in,
    which checks that each of codimension k has 2^k members.

    Face classes then need no check on the cover.  Both complexes passed
    the constructor's check: their gluings are fixed-point-free involutions
    and gluings across nested facets commute.  The facets of a chain c of
    length k are nested, so on either complex c's gluings generate an
    action of (Z/2)^k, and the classes of c are its orbits.  The
    projection commutes with each gluing, so it is equivariant and maps
    the orbit of a cover cell x onto the orbit of its image.  On the base,
    (Z/2)^k acts freely on each orbit, since the orbit has 2^k members.  An
    element fixing x fixes the image of x, so it is the identity: the
    orbit of x has 2^k members too, and it maps bijectively onto one base
    class.  A base class of codimension k then has 2^k * degree cells over
    it, which split into exactly degree cover classes: every class fibre
    is the degree.
    """
    if base.n != cover_pc.n:
        raise NotACoveringError("base and cover dimensions differ")
    if len(projection) != cover_pc.num_cells:
        raise NotACoveringError("projection must assign a base cell to every cell")
    proj = np.asarray(projection, dtype=np.int64)
    if ((proj < 0) | (proj >= base.num_cells)).any():
        raise NotACoveringError("projection sends a cell outside the base")
    # base cell ids fit int32, like the glue tables: np.take of int32 entries
    # by an int32 table is the fast gather (int64 entries, or fancy indexing
    # with an int32 index, take a slower path)
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

    if base_classes is None:
        face_classes(base)  # raises unless every class has 2^k members
    return CoveringReport(degree, dict(enumerate(fibers.tolist())))


def verify_covering(cover: CoverComplex,
                    base: PermutahedralComplex | None = None,
                    base_classes: FaceClasses | None = None) -> CoveringReport:
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
    return verify_cell_projection(cover.pc, cover.g, base, base_classes)
