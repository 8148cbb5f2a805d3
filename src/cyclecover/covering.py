"""Finite covers of the Tomei manifold from tuples of involutions.

A cover cell is a triple (sigma, tuple_id, g): a top simplex of the colored
pseudomanifold, a numbered tuple holding one compatible involution per color
subset, and an element of (Z_2)^n whose parity must match the part of sigma
(plus part iff evenly many bits).  Crossing facet F_w sends the triple to

    (L_w(sigma),  conjugate the components indexed by subsets of w,  g + e_|w|)

where L_w is the tuple's component at w.  The new tuple depends only on the
old tuple and w, and the new sigma only on the old pair, so crossing F_w is
a permutation pi_w of the pairs x = (tuple, sigma), and g moves by the fixed
generator gen[w] = e_|w|.  The cover is the Tomei manifold's covering with
monodromy pi_w and a (Z_2)^n voltage on each edge: a small cover in the sense
of Davis and Januszkiewicz.

The builders close each slot's involutions under conjugation by the
closures of the slots above it and code a tuple as a mixed-radix integer
over the closures, so a set of tuples crosses facet F_w by adding one
step-table entry per slot nested in w (``_tuple_codes``).  The registry is
the one tuple table: each slot's closure, each tuple's closure index in
every slot and the tuple each crossing leads to.  A whole set of pairs
then crosses every facet in one array gather.

A cover is the breadth-first closure under crossings of its seed pairs:
its pairs X are numbered seeds first, each pair x with the g value g0(x)
it is given or first reached with.  The holonomies g0(x) + gen[w] +
g0(pi_w x) of the edges span a subgroup H of the even part of (Z_2)^n,
kept as a reduced-echelon basis, and the cover is the cells
(x, g0(x) + h), h in H: |X| |H| cells, known before any is made.  A
component has one seed; the full cover set has every pair, in
(sigma, tuple) order, with g0 = 0 on plus simplices and 1 on minus ones,
and H the whole even part.  The holonomies are computed once per cover,
from its own g0 and pair glue, and cached with it
(``CoverComplex.holonomy_table``).  So a cover's pair arrays and glue are
read-only, and a changed g0 or glue needs a new cover, made with
``dataclasses.replace``, as every planted defect in the tests is.

The covering (``verify_covering``) and the realization (``certificate``)
are certified on this monodromy; ``verify_covering`` proves there that the
face classes of the cells cover the base's class by class.  The cell
arrays and the cell glue are expanded in closed form for the writers and
the test oracles only: cell (x, i) is (x, g0(x) + h_i), h_i the i-th
element of H in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import prod

import numpy as np

from .cells import PermutahedralComplex
from .errors import (DEFAULT_MAX_CELLS, InconsistentGluingError, NotACoveringError,
                     check_cap)
from .involutions import (
    canonical_involution,
    compatible_rows,
    enumerate_compatible_involutions,
    predicted_multiplicity,
)
from .permutahedron import mask_elements, proper_subsets
from .pseudomanifold import ColoredPseudomanifold, lowest_labels
from .tomei import generators

_ORBIT_CHUNK = 4096  # frontier tuples crossed at once; the cap is checked after each


def parity_sign(g: int) -> int:
    """The character of (Z_2)^n taking -1 on every generator."""
    return -1 if g.bit_count() % 2 else 1


def parity_signs(n: int) -> np.ndarray:
    """``parity_sign(g)`` for every g in range(2^n)."""
    return np.array([parity_sign(g) for g in range(1 << n)], dtype=np.int64)


@dataclass(frozen=True)
class InvolutionRegistry:
    """The tuples of a cover and their crossings, read only.  ``closures[s]``
    holds the involutions that slot s takes, one entry per top simplex, and
    tuple t holds ``closures[s][digits[t, s]]`` in slot s, one slot per
    proper color subset in ``subsets`` order.  Crossing F_w, with
    w = subsets[slot], sends tuple t to ``newt[t, slot]``."""

    cp: ColoredPseudomanifold
    closures: list[np.ndarray]  # int32 (closure size, tops) per slot
    digits: np.ndarray  # int32 (tuples, slots)
    newt: np.ndarray  # int32 (tuples, slots)

    @property
    def subsets(self) -> list[int]:
        return proper_subsets(self.cp.n)

    @property
    def tuple_count(self) -> int:
        return len(self.digits)

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        """The closures stacked and raveled, and where each slot of each
        tuple starts in them, as ``int64`` (tuples, slots)."""
        offset = np.cumsum([0] + [len(c) for c in self.closures[:-1]], dtype=np.int64)
        return (np.concatenate(self.closures).ravel(),
                (offset + self.digits) * self.cp.top_count)

    def moved(self, t: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """The simplex across every facet of each pair (t, sigma), as an
        ``int32`` (pairs, slots) array."""
        images, rows = self._gather
        return np.take(images, np.take(rows, t, axis=0) + sigma[:, None])


def _number_new(index: np.ndarray, ids: np.ndarray, found: np.ndarray,
                start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Number the values of ``found`` against the known values ``index``,
    ascending, whose numbers are ``ids``; new values are numbered from
    ``start`` in order of first occurrence.  Return the index and ids with
    the new values merged in, the number of every entry of ``found``, and
    where in ``found`` each new value first occurs, ascending.

    ``found`` is binary-searched in ``index``, and only the misses are
    sorted; the new values, sorted, go to their places in the merged index
    in one scatter, the old ones to the places left."""
    at = np.searchsorted(index, found)
    hit = at < len(index)
    hit[hit] = index[at[hit]] == found[hit]
    number = np.empty(len(found), dtype=np.int64)
    number[hit] = ids[at[hit]]
    miss = np.flatnonzero(~hit)
    values, first, inverse = np.unique(found[miss], return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)  # the new values by first occurrence
    new_ids = np.empty(len(values), dtype=np.int64)
    new_ids[order] = np.arange(start, start + len(values))
    number[miss] = new_ids[inverse]
    place = at[miss[first]] + np.arange(len(values))
    old = np.ones(len(index) + len(values), dtype=bool)
    old[place] = False
    merged = np.empty(len(old), dtype=np.int64)
    merged_ids = np.empty(len(old), dtype=np.int64)
    merged[place], merged_ids[place] = values, new_ids
    merged[old], merged_ids[old] = index, ids
    return merged, merged_ids, number, miss[first[order]]


def _close_slot(outer: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Close the distinct ``rows`` under conjugation by every row of
    ``outer``, new rows in order of first occurrence, and return the
    closure and the closure index of o x o for each outer row o and
    closure row x.  Rows are numbered by a dict keyed by their bytes, which
    are equal exactly when the rows are, as both builders hand in ``int32``
    pools and closures."""
    tops = rows.shape[1]
    shift = (np.arange(len(outer)) * tops)[:, None, None]
    number = {row.tobytes(): x for x, row in enumerate(rows)}
    while len(outer):
        # o x o at [o, x, i] is outer[o, rows[x, outer[o, i]]]
        conj = np.take(outer, rows[:, outer].transpose(1, 0, 2) + shift).reshape(-1, tops)
        index = np.array([number.setdefault(row.tobytes(), len(number)) for row in conj])
        if len(number) == len(rows):
            return rows, index.reshape(len(outer), len(rows))
        fresh = np.flatnonzero(index >= len(rows))
        _, first = np.unique(index[fresh], return_index=True)
        rows = np.concatenate([rows, conj[fresh[first]]])
    return rows, np.empty((0, len(rows)), dtype=np.int64)


def _check_compatible(cp: ColoredPseudomanifold, closures: list[np.ndarray]) -> None:
    """Refuse the first slot whose closure holds an involution that is not
    compatible with the slot's subset, by one test over the stacked
    closures (``compatible_rows``)."""
    subsets = np.repeat(proper_subsets(cp.n), [len(c) for c in closures])
    ok = compatible_rows(cp, np.concatenate(closures), subsets)
    if not ok.all():
        raise InconsistentGluingError(
            f"component for subset {mask_elements(int(subsets[np.argmin(ok)]))} "
            f"is not a compatible involution")


def _tuple_codes(cp: ColoredPseudomanifold, pools: list[np.ndarray],
                 max_cells: int) -> InvolutionRegistry:
    """Close the involutions of every slot, then the seed tuples under
    crossings.

    Crossing F_w conjugates the components at the subsets gamma inside w by
    the one at w, so slot gamma only takes values in the closure C_gamma of
    ``pools[gamma]`` under conjugation by the closures of the slots above
    it, which are closed first, each w giving a |C_w| x |C_gamma| table of
    closure indices.  A tuple's code is its closure indices in mixed radix,
    the last slot least significant, and crossing F_w adds to it, for each
    gamma inside w, the entry at its digits (w, gamma) of the step table
    (conj[w, gamma] - arange(|C_gamma|)) * radix[gamma].  The product of
    the closure sizes must fit ``int64``; then each closure element is
    checked compatible, and an incompatible one is a gluing error.  The
    tuples are the crossings' closure of the seeds, the codes of the pools'
    product, ascending and numbered by their places: each pool comes first
    in its closure.  A component's pools hold one row each, its one seed
    is code 0, and its orbit need not be the whole product (on the
    subdivided suspended octahedron, slots {1} and {1, 4} take 6 of their 9
    joint values, and the orbit has 432 of the 648 codes).  The full set's
    pools hold every compatible involution, so what closing adds to one is
    refused as not compatible, and its seeds are every code.  The orbit is
    refused as soon as twice its size passes ``max_cells``, for its cover
    has at least 2 |orbit| cells.  A tuple's crossing never reads sigma, so
    every orbit tuple lies on some pair of the cover.  Crossing a one-color
    facet F_{c} changes no slot, since no slot lies strictly inside {c}; it
    moves sigma by the tuple's involution at {c}, which
    ``_check_compatible`` has checked is fixed-point free.  So the cover
    has at least 2 |orbit| pairs, and pairs * |H| >= 2 |orbit| cells.  The
    registry returned holds the closures, each tuple's closure indices and
    the crossing table.

    Only the moving slots are crossed, those with a step table that is not
    all 0; crossing any other slot keeps every code, so its column of the
    crossing table is each tuple's own id.  Each level is crossed in chunks
    of ``_ORBIT_CHUNK`` frontier tuples, and the cap is checked after each
    chunk, so a refused orbit stops within one chunk of the cap.  The known
    codes are kept in an ascending index beside their ids, and each chunk's
    crossed codes are numbered against it (``_number_new``): only the codes
    it misses are sorted, and the new ones are merged in.  The ids do not
    depend on the chunks: a level's crossed codes are numbered in
    (tuple, slot) order, new codes in order of first occurrence, and the
    chunks cut that order into consecutive runs, each numbered after the
    runs before it, so a code new in a chunk is new over the level and is
    first met there.  The dropped identity columns hold known codes only,
    and change no first occurrence.
    """
    subsets = proper_subsets(cp.n)
    slots, tops = len(subsets), cp.top_count
    closures, conj = list(pools), {}
    for gamma in reversed(range(slots)):
        above = [w for w in range(gamma + 1, slots) if subsets[gamma] & ~subsets[w] == 0]
        outer = np.concatenate([closures[w] for w in above]
                               + [np.empty((0, tops), dtype=np.int32)])
        closures[gamma], index = _close_slot(outer, closures[gamma])
        stops = np.cumsum([0] + [len(closures[w]) for w in above])
        conj.update(((w, gamma), index[a:b]) for w, a, b in zip(above, stops, stops[1:]))
    sizes = [len(c) for c in closures]
    total = prod(sizes)
    check_cap("the int64 tuple code range, the product of the slot closure sizes,",
              total, "codes", int(np.iinfo(np.int64).max))
    _check_compatible(cp, closures)
    size = np.array(sizes, dtype=np.int64)
    radix = np.append(np.cumprod(size[:0:-1])[::-1], 1)

    # step tables that are all 0 are left out, and a slot with none keeps
    # every code: its column of the crossing table is the identity
    steps = [(w, gamma, (index - np.arange(sizes[gamma])) * radix[gamma])
             for (w, gamma), index in conj.items()]
    steps = [step for step in steps if step[2].any()]
    moving = sorted({w for w, _, _ in steps})
    column = {w: k for k, w in enumerate(moving)}

    def digits(codes: np.ndarray) -> np.ndarray:
        return (codes[:, None] // radix % size).astype(np.int32)

    def cross(codes: np.ndarray) -> np.ndarray:
        held = digits(codes)
        crossed = np.repeat(codes[:, None], len(moving), axis=1)
        for w, gamma, table in steps:
            crossed[:, column[w]] += table[held[:, w], held[:, gamma]]
        return crossed

    # the seeds, numbered by their places; then level by level, chunk by chunk
    frontier = np.zeros(1, dtype=np.int64)
    for pool, step in zip(pools, radix):
        frontier = (frontier[:, None] + np.arange(len(pool)) * step).ravel()
    index, ids, codes, newt, done = frontier, np.arange(len(frontier)), [frontier], [], 0
    while len(frontier):
        found = []
        for start in range(0, len(frontier), _ORBIT_CHUNK):
            crossed = cross(frontier[start:start + _ORBIT_CHUNK])
            index, ids, number, first = _number_new(index, ids, crossed.ravel(),
                                                    len(ids))
            check_cap("the cover component", 2 * len(ids), "cells at least, two "
                      "per tuple of the seed's orbit so far", max_cells)
            row = np.empty((len(crossed), slots), dtype=np.int32)
            row[:] = np.arange(done, done + len(crossed))[:, None]
            row[:, moving] = number.reshape(crossed.shape)
            newt.append(row)
            done += len(crossed)
            found.append(crossed.ravel()[first])
        frontier = np.concatenate(found)
        codes.append(frontier)
    codes = np.concatenate(codes)
    return InvolutionRegistry(cp, closures, digits(codes), np.concatenate(newt))


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
    hol = np.take(g0, glue)
    hol ^= generators(n)
    hol ^= g0[:, None]
    return hol


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
    cells are one component, as the closure of one seed is.
    """

    cp: ColoredPseudomanifold
    registry: InvolutionRegistry
    pair_t: np.ndarray
    pair_sigma: np.ndarray
    g0: np.ndarray
    pairs: PermutahedralComplex
    basis: tuple[int, ...]
    connected: bool

    def __post_init__(self):
        # the holonomies are cached from these arrays
        for array in (self.pair_t, self.pair_sigma, self.g0, self.pairs.glue):
            array.flags.writeable = False

    @cached_property
    def holonomy_table(self) -> np.ndarray:
        """``holonomy`` of every edge, read-only: the one pass over the
        pair glue that every reader of the holonomies shares."""
        hol = holonomy(self.g0, self.pairs.glue, self.cp.n)
        hol.flags.writeable = False
        return hol

    @cached_property
    def holonomies(self) -> np.ndarray:
        """The distinct holonomies, ascending: ``_cover`` takes H as their
        span, and ``verify_covering`` checks H and the part flips on them."""
        return np.flatnonzero(np.bincount(self.holonomy_table.ravel(),
                                          minlength=1 << self.cp.n))

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
        coord, _ = span_split(self.holonomy_table, self.basis)
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
        hol = self.holonomy_table
        lift = np.zeros(len(glue), dtype=np.int32)
        for bit in range(n):
            root, sign = lowest_labels(glue, (1 - 2 * (hol >> bit & 1)).astype(np.int8))
            lift |= (sign < 0).astype(np.int32) << bit
        hol = hol ^ lift[:, None] ^ np.take(lift, glue)
        label = np.unique(root, return_inverse=True)[1]
        comp, value = np.divmod(np.unique(label[:, None] << n | hol), 1 << n)
        rank_of = cache(lambda values: len(span_basis(values)))
        sets = np.split(value, np.flatnonzero(np.diff(comp)) + 1)
        return label, np.array([rank_of(tuple(s.tolist())) for s in sets])


def _cover(reg: InvolutionRegistry, seeds: np.ndarray, lift: np.ndarray,
           max_cells: int) -> CoverComplex:
    """The breadth-first closure under crossings of the ``seeds``, pairs
    keyed t * tops + sigma over the dense (tuple, sigma) index, with g
    values ``lift``, and H the span of its holonomies.

    The seeds are numbered by their places, then the pairs level by level:
    each level gathers its pairs' neighbours in (pair, slot) order, the
    tuple part read off the ``int32`` newt rows of the level's tuples and
    scaled by tops in ``int64`` for that level only, and numbers those not
    yet seen in order of first occurrence, each with the g value of its
    first occurrence.  That is breadth-first order, so pair ids, g0 and the
    glue table do not depend on how the work is batched.  A key's first
    occurrence is its least position among the level's unseen entries,
    kept by ``np.minimum.at``, which NumPy defines for repeated indices
    where a plain assignment leaves the order of the writes open.  The new
    pairs are picked by their entry e in the level's (pair, slot) order,
    and each is first reached from pair e // slots across slot e % slots,
    so its g value is that pair's plus gen[e % slots].  Every pair carries
    at least one cell, so the cap is checked on the pairs as they are
    numbered, and on the cells once H is known.
    """
    cp = reg.cp
    gen = generators(cp.n)
    slots = len(gen)
    number = np.full(reg.tuple_count * cp.top_count, -1, dtype=np.int32)
    number[seeds] = np.arange(len(seeds), dtype=np.int32)
    frontier, count = seeds, len(seeds)
    levels, lifts, rows = [seeds], [lift], []
    while frontier.size:
        t, sigma = np.divmod(frontier, cp.top_count)
        crossed = (np.take(reg.newt, t, axis=0).astype(np.int64) * cp.top_count
                   + reg.moved(t, sigma)).ravel()
        entry = np.flatnonzero(number[crossed] < 0)  # (pair, slot) order
        unseen = crossed[entry]
        position = np.arange(unseen.size, dtype=np.int32)
        number[unseen] = unseen.size
        np.minimum.at(number, unseen, position)
        entry = entry[number[unseen] == position]
        frontier = crossed[entry]
        lift = lift[entry // slots] ^ gen[entry % slots]
        check_cap("the cover component", count + frontier.size,
                  "cells at least, one per pair numbered so far", max_cells)
        number[frontier] = np.arange(count, count + frontier.size, dtype=np.int32)
        count += frontier.size
        levels.append(frontier)
        lifts.append(lift)
        rows.append(number[crossed].reshape(-1, slots))
    t, sigma = np.divmod(np.concatenate(levels), cp.top_count)
    pairs = PermutahedralComplex(cp.n, count, np.concatenate(rows))
    cover = CoverComplex(cp, reg, t.astype(np.int32), sigma.astype(np.int32),
                         np.concatenate(lifts), pairs, (), len(seeds) == 1)
    cover.basis = span_basis(cover.holonomies.tolist())
    check_cap("the cover component", cover.num_cells, "cells", max_cells)
    return cover


def build_component(cp: ColoredPseudomanifold,
                    max_cells: int = DEFAULT_MAX_CELLS) -> CoverComplex:
    """The component of the seed cell under all facet crossings: the cover
    of one seed, the smallest plus-part simplex with tuple 0, whose pools
    are the canonical involutions, and g = 0."""
    reg = _tuple_codes(cp, [np.array([canonical_involution(cp, w)], dtype=np.int32)
                            for w in proper_subsets(cp.n)], max_cells)
    return _cover(reg, np.array([cp.plus[0]], dtype=np.int64),
                  np.zeros(1, dtype=np.int32), max_cells)


def build_full(cp: ColoredPseudomanifold,
               max_cells: int = DEFAULT_MAX_CELLS,
               counts: list[int] | None = None) -> CoverComplex:
    """Every cover cell at once: all top simplices, all tuples from the full
    product of compatible involutions, all parity-consistent g.  The size
    comes from the involution counts and is checked against the cap before
    any involution is enumerated; ``counts`` may hand in the counts, one
    per proper subset in order.

    Its pools are every compatible involution, and its seeds every pair, in
    (sigma, tuple) order, with g0 = 0 over plus simplices and 1 over minus
    ones.  The tuples must be the pools' product, prod |P_w|, or crossing
    has left the full set.  Every crossing flips the part (which
    ``verify_covering`` checks), so its holonomy is gen[w] + 1: over the
    generators e_1, ..., e_n of every facet size these span the even part
    of (Z_2)^n, whose ascending elements, added to g0, run through the
    parity-consistent g in order.  The cells come out in
    (sigma, tuple, g) order."""
    check_cap("full cover set", cp.top_count * predicted_multiplicity(cp, counts),
              "cells", max_cells)
    pools = [np.reshape(enumerate_compatible_involutions(cp, w),
                        (-1, cp.top_count)).astype(np.int32)
             for w in proper_subsets(cp.n)]
    reg = _tuple_codes(cp, pools, max_cells)
    tuples = reg.tuple_count
    if tuples != prod(len(pool) for pool in pools):
        raise InconsistentGluingError(
            "facet crossing left the full cover set; conjugation closure failed")
    sigma, t = np.divmod(np.arange(cp.top_count * tuples), tuples)
    return _cover(reg, t * cp.top_count + sigma,
                  (cp.parts[sigma] < 0).astype(np.int32), max_cells)


@dataclass
class CoveringReport:
    """The covering degree and the fibre size over every base cell."""

    degree: int
    cell_fibers: dict[int, int]


def verify_covering(cover: CoverComplex) -> CoveringReport:
    """Certify that forgetting (sigma, tuple) is a covering of the Tomei
    manifold, on the cover's monodromy, without making a cell.

    Checks, in order:

    - pi_w is an involution without fixed points on the pairs, and pi_w
      commute across nested facets: the pair complex checked both when it
      was built (``PermutahedralComplex``);
    - the parity of g0(x) is the part of sigma(x), for every pair;
    - the part of sigma flips across every crossing, read off the distinct
      holonomies (below);
    - the cell fibres are constant: the cells over base cell g are the pairs
      x with g0(x) in g + H, one each, counted by one bincount of the
      least elements of the cosets of H that the g0(x) lie in;
    - H, given by its basis, is the span of the holonomies
      hol(x, w) = g0(x) + gen[w] + g0(pi_w x), so the basis is the
      reduced-echelon one that the fibre count took it to be.

    The base is M^n glued by ``generators(n)``, g to g + gen[w] across F_w,
    so its class of a chain of length k has 2^k members; the ledger and
    ``tomei`` check a built M^n against it (``glued_as_tomei``).

    The part check reads no glue entry: given the parity check, the part
    of sigma flips across F_w at x exactly when hol(x, w) is even.  The
    parity of hol(x, w) is parity(g0(x)) + parity(gen[w]) +
    parity(g0(pi_w x)); the outer terms are the parts of sigma(x) and
    sigma(pi_w x), and gen[w] is one bit, so hol(x, w) is even exactly when
    the two parts differ.  Only when some distinct holonomy is odd is the
    glue scanned, to name the first (pair, slot) that keeps the part.  The
    distinct holonomies are those cached with the cover
    (``CoverComplex.holonomies``), from its read-only g0 and glue.

    So the cells with their closed-form glue (``CoverComplex.pc``) form a
    covering of the base.  Parity: each hol(x, w) is even, since g0 matches
    the part and the part flips while gen[w] is one bit, so H is even and
    every cell (x, g0(x) + h) has the parity of sigma(x).  Crossing F_w
    sends the cell (x, g) to (pi_w x, g + gen[w]), a cell, as
    g + gen[w] - g0(pi_w x) is (g - g0(x)) + hol(x, w), in H; a cell is
    fixed by its pair and g.  Since hol(pi_w x, w) = hol(x, w) and pi_w is
    an involution without fixed points, so is the crossing, and crossings
    across nested facets commute, since the pi_w do and g moves by
    gen[w1] + gen[w2] either way.  The projection to g commutes with every
    crossing, as the base moves g by gen[w] too, and its fibres are the
    ones counted, so they are constant with the degree as their size.

    Face classes then need no check on the cells.  The facets of a chain c
    of length k are nested, so on either complex c's gluings generate an
    action of (Z/2)^k, and the classes of c are its orbits.  The projection
    commutes with each gluing, so it is equivariant and maps the orbit of a
    cover cell onto the orbit of its image.  On the base, (Z/2)^k acts
    freely on each orbit, since the orbit has 2^k members.  An element
    fixing a cover cell fixes its image, so it is the identity: the orbit
    of the cell has 2^k members too, and it maps bijectively onto one base
    class.  A base class of codimension k then has 2^k * degree cells over
    it, which split into exactly degree cover classes: every class fibre
    is the degree.
    """
    cp = cover.cp
    n = cp.n
    g0, glue = cover.g0, cover.pairs.glue

    in_range = (g0 >= 0) & (g0 < 1 << n)
    part = cp.parts[cover.pair_sigma]
    bad = ~in_range | (parity_signs(n)[np.where(in_range, g0, 0)] != part)
    if bad.any():
        x = int(np.argmax(bad))
        raise NotACoveringError(
            f"pair {x} (sigma {cover.pair_sigma[x]}, tuple_id {cover.pair_t[x]}, "
            f"g0 {g0[x]}) violates the parity constraint")

    if (parity_signs(n)[cover.holonomies] < 0).any():
        kept = np.take(part, glue) == part[:, None]
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

    if span_basis(cover.holonomies.tolist()) != tuple(cover.basis):
        raise NotACoveringError(
            f"the holonomies do not span the subgroup with basis "
            f"{list(cover.basis)}")
    return CoveringReport(int(fibers[0]), dict(enumerate(fibers.tolist())))
