"""Finite covers of the Tomei manifold from tuples of involutions.

A cover cell is a triple (sigma, tuple_id, g): a top simplex of the colored
pseudomanifold, an interned tuple holding one compatible involution per color
subset, and an element of (Z_2)^n whose parity must match the part of sigma
(plus part iff evenly many bits).  Crossing facet F_w sends the triple to

    (L_w(sigma),  conjugate the components indexed by subsets of w,  g + e_|w|)

where L_w is the tuple's component at w.  The new tuple depends only on the
old tuple and w, and the new sigma only on the old pair, so crossing F_w is
a permutation pi_w of the pairs x = (tuple, sigma), and g moves by the fixed
generator gen[w] = e_|w|.  The cover is the Tomei manifold's covering with
monodromy pi_w and a (Z_2)^n voltage on each edge: a small cover in the sense
of Davis and Januszkiewicz.

The registry holds the involutions as rows of one ``int32`` matrix and the
tuples as rows of involution ids, each numbered by first occurrence.  The
builders first close their tuples under crossings, a chunk of tuple rows at
a time, conjugating every distinct pair of involutions in a chunk with one
gather, and lay the result out as gather tables indexed by tuple.  A whole
set of pairs then crosses every facet in one array gather.

A component numbers its pairs X in breadth-first order from its seed, each
pair x with the g value g0(x) it is first reached with.  The holonomies
g0(x) + gen[w] + g0(pi_w x) of the edges span a subgroup H of the even part
of (Z_2)^n, kept as a reduced-echelon basis, and the component is the cells
(x, g0(x) + h), h in H: |X| |H| cells, known before any is made.  The full
cover set has every pair, in (sigma, tuple) order, with g0 = 0 on plus
simplices and 1 on minus ones, and H the whole even part.

The covering (``verify_covering``) and the realization (``certificate``)
are certified on this monodromy.  The cell arrays and the cell glue are
expanded in closed form for the writers and the test oracles only: cell
(x, i) is (x, g0(x) + h_i), h_i the i-th element of H in ascending order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .cells import PermutahedralComplex, face_classes
from .errors import CapExceededError, InconsistentGluingError, NotACoveringError
from .involutions import (
    canonical_involution,
    enumerate_compatible_involutions,
    is_compatible_involution,
    predicted_multiplicity,
)
from .permutahedron import mask_elements, proper_subsets
from .pseudomanifold import ColoredPseudomanifold, lowest_labels
from .tomei import build_tomei, generators, glued_as_tomei

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
    the pair (t, sigma) to (``newt[t, slot]``, ``lam[t, sigma, slot]``).
    """

    lam: np.ndarray  # int32 (tuples, top simplices, slots)
    newt: np.ndarray  # int32 (tuples, slots)

    def crossed(self, pairs: np.ndarray) -> np.ndarray:
        """The dense index t * tops + sigma of the pair across every facet
        of each given pair, as an int64 (pairs, slots) array in slot
        order."""
        tops = self.lam.shape[1]
        t, sigma = np.divmod(pairs, tops)
        return self.newt[t].astype(np.int64) * tops + self.lam[t, sigma]


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
    return _Orbit(lam, np.concatenate(newt))


# ---------------------------------------------------------------------------
# subgroups of (Z_2)^n, as reduced-echelon bases of bitmasks

def span_basis(vectors) -> tuple[int, ...]:
    """The reduced-echelon basis of the GF(2) span of the given bitmasks:
    one vector per pivot, its highest bit, no pivot set in any other basis
    vector, sorted by pivot.  Equal spans give equal bases."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v >> (b.bit_length() - 1) & 1:
                v ^= b
        if v:
            pivot = v.bit_length() - 1
            basis = [b ^ v if b >> pivot & 1 else b for b in basis]
            basis.append(v)
    return tuple(sorted(basis))


def span_elements(basis: tuple[int, ...]) -> np.ndarray:
    """Every element of the span, as ``int32``: element i is the sum of
    ``basis[k]`` over the bits k of i.  For a reduced-echelon basis this is
    ascending order: the highest bit in which i and j differ is some k, and
    then the elements differ first at the pivot of ``basis[k]``, which only
    ``basis[k]`` holds."""
    elements = np.zeros(1, dtype=np.int32)
    for b in basis:
        elements = np.concatenate([elements, elements ^ b])
    return elements


def span_split(values, basis: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``(coord, rest)`` with ``values = span_elements(basis)[coord] ^ rest``
    entry by entry, for a reduced-echelon basis: coordinate k is the bit of
    the value at the pivot of ``basis[k]``, and ``rest`` holds no pivot
    bit.  So ``rest`` is the least element of the value's coset, and 0
    exactly on the span."""
    values = np.asarray(values, dtype=np.int32)
    coord = np.zeros(values.shape, dtype=np.int32)
    rest = values.copy()
    for k, b in enumerate(basis):
        bit = (values >> (b.bit_length() - 1)) & 1
        coord |= bit << k
        rest ^= bit * np.int32(b)
    return coord, rest


def holonomy(g0: np.ndarray, glue: np.ndarray, n: int) -> np.ndarray:
    """g0(x) + gen[w] + g0(pi_w x) on every edge of the pair complex, as an
    ``int32`` (pairs, slots) array: what the g value gained along the edge
    differs from the lift of its far end by."""
    return np.take(g0, glue) ^ generators(n) ^ g0[:, None]


def holonomy_basis(g0: np.ndarray, glue: np.ndarray, n: int) -> tuple[int, ...]:
    """The reduced-echelon basis of the span of every holonomy."""
    seen = np.bincount(holonomy(g0, glue, n).ravel(), minlength=1 << n)
    return span_basis(np.flatnonzero(seen).tolist())


# ---------------------------------------------------------------------------
# covers

@dataclass(eq=False)
class CoverComplex:
    """A set of cover cells closed under facet crossings, given by its
    monodromy: pair x is (``pair_t[x]``, ``pair_sigma[x]``), ``pairs`` glues
    x to pi_w(x) across F_w, and the cells over x are (x, ``g0[x]`` + h)
    for h in the span H of ``basis``, a reduced-echelon basis.

    Cell ``x * |H| + i`` is (x, g0[x] + h_i), h_i the i-th element of H in
    ascending order.  ``sigma``, ``tuple_id``, ``g`` and the permutahedral
    complex ``pc`` of the cells are expanded in closed form on first use,
    by the writers and the test oracles only.  ``connected`` says the
    cells are one component, as ``build_component`` makes them.
    """

    cp: ColoredPseudomanifold
    registry: InvolutionRegistry
    pair_t: np.ndarray
    pair_sigma: np.ndarray
    g0: np.ndarray
    pairs: PermutahedralComplex
    basis: tuple[int, ...]
    connected: bool

    @property
    def num_cells(self) -> int:
        return self.pairs.num_cells << len(self.basis)

    @cached_property
    def sigma(self) -> np.ndarray:
        return np.repeat(self.pair_sigma, 1 << len(self.basis))

    @cached_property
    def tuple_id(self) -> np.ndarray:
        return np.repeat(self.pair_t, 1 << len(self.basis))

    @cached_property
    def g(self) -> np.ndarray:
        return (self.g0[:, None] ^ span_elements(self.basis)).ravel()

    @cached_property
    def pc(self) -> PermutahedralComplex:
        """Crossing F_w sends cell (x, i) to the cell over pi_w(x) whose g
        is g0(x) + h_i + gen[w] = g0(pi_w x) + h_i + hol(x, w), which is
        (pi_w x, i ^ coord(hol(x, w)))."""
        size = 1 << len(self.basis)
        glue = self.pairs.glue
        coord, _ = span_split(holonomy(self.g0, glue, self.cp.n), self.basis)
        cells = ((glue * size)[:, None, :]
                 + (np.arange(size, dtype=np.int32)[:, None] ^ coord[:, None, :]))
        return PermutahedralComplex(self.cp.n, self.num_cells,
                                    cells.reshape(self.num_cells, -1))

    @cached_property
    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """``(label, rank)``: the component C of every pair, numbered by
        lowest pair, and the rank of each C's group H_C of the g gained
        around its loops.  H_C splits the cells over C into |H| / |H_C|
        components of |H_C| cells over each pair of C, numbered in a row by
        lowest cell, as each meets the cells over the lowest pair of C.

        For one component H_C is H.  Otherwise g0 is lifted anew along a
        spanning forest, which ``lowest_labels`` hooks whatever the flips,
        one sign per bit; an edge's holonomy is then the g gained around the
        loop that it closes with the forest, and H_C their span.
        """
        if self.connected:
            return (np.zeros(self.pairs.num_cells, dtype=np.int64),
                    np.array([len(self.basis)]))
        n, glue = self.cp.n, self.pairs.glue
        hol = holonomy(self.g0, glue, n)
        lift = np.zeros(len(glue), dtype=np.int32)
        for bit in range(n):
            root, sign = lowest_labels(glue, (1 - 2 * (hol >> bit & 1)).astype(np.int8))
            lift |= (sign < 0).astype(np.int32) << bit
        hol ^= lift[:, None] ^ np.take(lift, glue)
        label = np.unique(root, return_inverse=True)[1]
        comp, value = np.divmod(np.unique(label[:, None] << n | hol), 1 << n)
        rank_of = cache(lambda values: len(span_basis(values)))
        sets = np.split(value, np.flatnonzero(np.diff(comp)) + 1)
        return label, np.array([rank_of(tuple(s.tolist())) for s in sets])


def _cover(reg: InvolutionRegistry, t: np.ndarray, sigma: np.ndarray,
           g0: np.ndarray, glue: np.ndarray, connected: bool) -> CoverComplex:
    """The cover over the pairs (t[x], sigma[x]) glued by ``glue``, with H
    the span of the holonomies."""
    pairs = PermutahedralComplex(reg.cp.n, len(g0), glue)
    basis = holonomy_basis(g0, pairs.glue, reg.cp.n)
    return CoverComplex(reg.cp, reg, t.astype(np.int32), sigma.astype(np.int32),
                        g0, pairs, basis, connected)


def build_component(cp: ColoredPseudomanifold,
                    max_cells: int = DEFAULT_MAX_CELLS) -> CoverComplex:
    """The component of the seed cell under all facet crossings.  The seed
    is the smallest plus-part simplex with the canonical involution tuple
    and g = 0.

    The seed tuple's orbit is closed first, and gives the gather tables.
    The pairs are then numbered level by level over the dense
    (tuple, sigma) index: each level gathers its pairs' neighbours in
    (pair, slot) order and numbers those not yet seen in order of first
    occurrence, each with the g value of its first occurrence.  That is
    breadth-first order, so pair ids, g0 and the glue table do not depend
    on how the work is batched.  Every pair carries at least one cell, so
    the cap is checked on the pairs as they are numbered, and on the cells
    once H is known.
    """
    reg = InvolutionRegistry(cp)
    reg.canonical_tuple()
    orbit = _tuple_orbit(reg, max_cells)
    gen = generators(cp.n)
    number = np.full(orbit.lam.shape[0] * cp.top_count, -1, dtype=np.int32)
    frontier = np.array([cp.plus[0]], dtype=np.int64)  # tuple 0, g = 0
    lift = np.zeros(1, dtype=np.int32)
    number[frontier] = 0
    count = 1
    levels, lifts, rows = [frontier], [lift], []
    while frontier.size:
        crossed = orbit.crossed(frontier)
        fresh = number[crossed] < 0
        unseen = crossed[fresh]  # (pair, slot) order
        # scatter positions in reverse, so each key keeps its first one
        position = np.arange(unseen.size, dtype=np.int32)
        number[unseen[::-1]] = position[::-1]
        first = number[unseen] == position
        frontier = unseen[first]
        lift = (lift[:, None] ^ gen)[fresh][first]
        if count + frontier.size > max_cells:
            raise CapExceededError(
                f"component exceeded {max_cells} cells", max_cells, max_cells)
        number[frontier] = np.arange(count, count + frontier.size, dtype=np.int32)
        count += frontier.size
        levels.append(frontier)
        lifts.append(lift)
        rows.append(number[crossed])
    t, sigma = np.divmod(np.concatenate(levels), cp.top_count)
    cover = _cover(reg, t, sigma, np.concatenate(lifts), np.concatenate(rows), True)
    if cover.num_cells > max_cells:
        raise CapExceededError(
            f"component exceeded {max_cells} cells", max_cells, max_cells)
    return cover


def build_full(cp: ColoredPseudomanifold,
               max_cells: int = DEFAULT_MAX_CELLS,
               counts: list[int] | None = None) -> CoverComplex:
    """Every cover cell at once: all top simplices, all tuples from the full
    product of compatible involutions, all parity-consistent g.  The size
    comes from the involution counts and is checked against the cap before
    any involution is enumerated; ``counts`` may hand in the counts, one
    per proper subset in order.

    The pairs are numbered in (sigma, tuple) order with g0 = 0 over plus
    simplices and 1 over minus ones.  Every crossing flips the part (which
    ``verify_covering`` checks), so its holonomy is gen[w] + 1: over the
    generators e_1, ..., e_n of every facet size these span the even part
    of (Z_2)^n, whose ascending elements, added to g0, run through the
    parity-consistent g in order.  The cells come out in
    (sigma, tuple, g) order."""
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
    tuples = reg.tuple_count
    sigma, t = np.divmod(np.arange(cp.top_count * tuples), tuples)
    glue = orbit.lam[t, sigma] * tuples + orbit.newt[t]
    g0 = (cp.parts[sigma] < 0).astype(np.int32)
    return _cover(reg, t, sigma, g0, glue, False)


@dataclass
class CoveringReport:
    """The covering degree and the fibre size over every base cell."""

    degree: int
    cell_fibers: dict[int, int]


def verify_cell_projection(cover_pc: PermutahedralComplex, projection,
                           base: PermutahedralComplex) -> CoveringReport:
    """Certify that a cell map is a covering of permutahedral complexes.

    ``projection[i]`` is the base cell under cover cell i (the permutahedron
    coordinate maps by the identity).  Checks, in order: the projection
    commutes with every facet crossing; fibers over cells are constant with
    integral degree.  The base's face classes are built, which checks that
    each of codimension k has 2^k members.

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

    face_classes(base)  # raises unless every class has 2^k members
    return CoveringReport(degree, dict(enumerate(fibers.tolist())))


def verify_covering(cover: CoverComplex,
                    base: PermutahedralComplex | None = None) -> CoveringReport:
    """Certify that forgetting (sigma, tuple) is a covering of the Tomei
    manifold, on the cover's monodromy, without making a cell.

    Checks, in order:

    - pi_w is an involution without fixed points on the pairs, and pi_w
      commute across nested facets: the pair complex checked both when it
      was built (``PermutahedralComplex``);
    - the parity of g0(x) is the part of sigma(x), for every pair;
    - the part of sigma flips across every crossing;
    - the cell fibres are constant: the cells over base cell g are the pairs
      x with g0(x) in g + H, one each, counted by one bincount of the
      least elements of the cosets of H that the g0(x) lie in;
    - H, given by its basis, is the span of the holonomies
      hol(x, w) = g0(x) + gen[w] + g0(pi_w x), so the basis is the
      reduced-echelon one that the fibre count took it to be;
    - the base glues g to g + gen[w] across F_w (``glued_as_tomei``), so
      its class of a chain of length k has 2^k members.

    These give every claim ``verify_cell_projection`` checks on the cells.
    Parity: each hol(x, w) is even, since g0 matches the part and the part
    flips while gen[w] is one bit, so H is even and every cell
    (x, g0(x) + h) has the parity of sigma(x).  Crossing F_w sends the cell
    (x, g) to (pi_w x, g + gen[w]), a cell, as g + gen[w] - g0(pi_w x) is
    (g - g0(x)) + hol(x, w), in H; a cell is fixed by its pair and g.  Since
    hol(pi_w x, w) = hol(x, w) and pi_w is an involution without fixed
    points, so is the crossing, and crossings across nested facets commute,
    since the pi_w do and g moves by gen[w1] + gen[w2] either way.  The
    projection to g commutes with every crossing, as the base moves g by
    gen[w] too, and its fibres are the ones counted.  So the cells with their
    closed-form glue (``CoverComplex.pc``) pass the checks of
    ``verify_cell_projection``, whose proof then shows that every face class
    of codimension k has 2^k members and maps bijectively onto one base
    class, each base class with the degree's worth of classes over it.
    """
    cp = cover.cp
    n = cp.n
    base = base or build_tomei(n)
    if base.n != n:
        raise NotACoveringError("base and cover dimensions differ")
    g0, glue = cover.g0, cover.pairs.glue

    in_range = (g0 >= 0) & (g0 < 1 << n)
    part = cp.parts[cover.pair_sigma]
    bad = ~in_range | (parity_signs(n)[np.where(in_range, g0, 0)] != part)
    if bad.any():
        x = int(np.argmax(bad))
        raise NotACoveringError(
            f"pair {x} (sigma {cover.pair_sigma[x]}, tuple_id {cover.pair_t[x]}, "
            f"g0 {g0[x]}) violates the parity constraint")

    kept = np.take(part, glue) == part[:, None]
    if kept.any():
        x, slot = np.argwhere(kept)[0]
        raise NotACoveringError(
            f"crossing {mask_elements(cover.pairs.subsets[slot])} keeps the "
            f"part of sigma at pair {x}")

    _, rest = span_split(np.arange(1 << n), cover.basis)
    _, coset = span_split(g0, cover.basis)
    fibers = np.bincount(coset, minlength=1 << n)[rest]
    if (fibers != fibers[0]).any():
        raise NotACoveringError(
            f"cell fibers are not constant: {dict(enumerate(fibers.tolist()))}")

    if holonomy_basis(g0, glue, n) != tuple(cover.basis):
        raise NotACoveringError(
            f"the holonomies do not span the subgroup with basis "
            f"{list(cover.basis)}")

    if not glued_as_tomei(base):
        raise NotACoveringError("the base is not glued as the Tomei manifold")
    return CoveringReport(int(fibers[0]), dict(enumerate(fibers.tolist())))
