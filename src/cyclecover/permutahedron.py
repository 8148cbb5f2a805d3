"""Face lattice of the n-dimensional permutahedron, and its flag template.

Facets correspond to the nonempty proper subsets of {1, ..., n+1}; a face of
codimension k corresponds to a strictly increasing chain of k such subsets,
since two facets meet exactly when their subsets are nested.  The polytope
itself is the empty chain.  Subsets are bitmasks (bit c-1 for color c) and
chains are tuples of masks ordered by inclusion.

Everything downstream leans on this correspondence: vertices are complete
chains, the prefixes of an ordering of {1, ..., n+1}, so every face is a
set of subsets of one complete chain, and the barycentric triangulation of
the permutahedron is the barycentric subdivision of its complete chains.
``flag_template`` builds it that way, in closed form, and its chain rows
are the one numbering of faces that face classes and triangulations read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from math import factorial

import numpy as np

from .errors import check_cap
from .pseudomanifold import face_ids, group_rows, permutation_signs

Chain = tuple[int, ...]


def full_mask(n: int) -> int:
    return (1 << (n + 1)) - 1


def mask_elements(mask: int) -> tuple[int, ...]:
    """Colors present in a mask, ascending (1-based)."""
    return tuple(c + 1 for c in range(mask.bit_length()) if mask >> c & 1)


def proper_subsets(n: int) -> list[int]:
    """The 2^(n+1) - 2 facet labels, sorted by size then lexicographically
    by element tuple.  This order fixes tuple slots and traversal order.
    Sorted once per n and process (``_subset_order``); each call gets its
    own list."""
    return list(_subset_order(n))


@cache
def _subset_order(n: int) -> tuple[int, ...]:
    return tuple(sorted(range(1, full_mask(n)),
                        key=lambda m: (m.bit_count(), mask_elements(m))))


@dataclass(frozen=True)
class FlagTemplate:
    """The flag triangulation of one n-permutahedron.

    ``chains`` are its faces, codimension first, then lexicographic in
    ``proper_subsets``, as ``face_classes`` numbers classes.  Chain r > 0
    is chain ``prefix[r]`` followed by the subset in slot ``last[r]`` of
    ``proper_subsets``; both are -1 for the empty chain, row 0.
    ``flags[f, k]`` is the row of the k-th chain of flag f, and ``sign[f]``
    is tau(f).  ``colors[f, k]`` is the color set W_k of the flag's image,
    and ``spells[f]`` the index, in ``orders``, of the color order it
    spells, or -1 for a degenerate flag.
    """

    n: int
    chains: list[Chain]
    prefix: np.ndarray
    last: np.ndarray
    flags: np.ndarray
    sign: np.ndarray
    colors: np.ndarray
    orders: np.ndarray
    spells: np.ndarray

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(facet, counts)``: the id of the face of flag f without its
        k-th chain at ``facet[f, k]``, and the flags through each face.
        Grouped on first use and kept with the template."""
        width = self.n + 1
        keep = [[j for j in range(width) if j != k] for k in range(width)]
        rows = self.flags[:, keep].reshape(-1, self.n)
        facet, _ = group_rows(rows, len(self.chains))
        return facet.reshape(-1, width), np.bincount(facet)


def check_template_size(n: int, cap: int) -> None:
    """Refuse the template of dimension n over the cap before it is built:
    its n!(n+1)! flags and the (n+1) n!(n+1)! flag faces ``facets`` groups."""
    flags = factorial(n) * factorial(n + 1)
    check_cap(f"the flag template of dimension {n}", flags, "flags", cap)
    check_cap(f"the flag template of dimension {n}", (n + 1) * flags,
              "flag faces", cap)


def check_subdivision_size(n: int, tops: int, cap: int) -> None:
    """Refuse the barycentric subdivision of ``tops`` n-simplices over the
    cap before it is built: it has tops (n+1)! top simplices."""
    check_cap(f"the barycentric subdivision of {tops} {n}-simplices",
              tops * factorial(n + 1), "top simplices", cap)


@cache
def flag_template(n: int) -> FlagTemplate:
    """The template of dimension n, made once per process.

    The complete chain of color order a holds its first 1, ..., n colors.
    Sorted by their subsets' slots, the complete chains are the rows of a
    simplicial complex on the proper subsets, and ``face_ids`` numbers its
    faces by size, then lexicographically: that is chain order, once the
    empty chain takes row 0.  The flag of a complete chain with insertion
    order iota, a permutation of its n positions, grows the subchains of
    the first k insertions: one gather of the id table, as in
    ``barycentric_subdivide``.  Its sign is sgn(a) sgn(iota), its W_k is
    the complete chain's subset at the least of the first k insertions,
    and only iota = (n-1, ..., 0) drops one color at a time, spelling a.
    """
    subsets = np.array(proper_subsets(n))
    slot = np.empty(full_mask(n) + 1, dtype=np.int64)
    slot[subsets] = np.arange(len(subsets))
    orders = np.array(list(permutations(range(1, n + 2))))
    complete = np.cumsum(1 << (orders - 1), axis=1)[:, :n]
    by_chain = np.lexsort(slot[complete].T[::-1])
    complete = complete[by_chain]
    ids, faces = face_ids(slot[complete])
    ids += 1  # row 0 is the empty chain
    chains = [()] + [tuple(chain) for size in faces
                     for chain in subsets[size].tolist()]

    mask = np.arange(1, 1 << n)
    high = np.array([m.bit_length() - 1 for m in mask.tolist()])
    prefix = np.full(len(chains), -1, dtype=np.int64)
    last = np.full(len(chains), -1, dtype=np.int64)
    prefix[ids[:, mask]] = ids[:, mask - (1 << high)]
    last[ids[:, mask]] = slot[complete[:, high]]

    steps = np.array(list(permutations(range(n))))
    flags = np.zeros((len(complete), len(steps), n + 1), dtype=np.int64)
    flags[:, :, 1:] = ids[:, np.cumsum(1 << steps, axis=1)]
    sign = np.outer(permutation_signs(orders[by_chain]), permutation_signs(steps))
    colors = np.full((len(complete), len(steps), n + 1), full_mask(n), dtype=np.int64)
    colors[:, :, 1:] = complete[:, np.minimum.accumulate(steps, axis=1)]
    spells = np.full((len(complete), len(steps)), -1, dtype=np.int64)
    spells[:, -1] = by_chain  # permutations end with (n-1, ..., 0)
    return FlagTemplate(n, chains, prefix, last, flags.reshape(-1, n + 1),
                        sign.ravel(), colors.reshape(-1, n + 1), orders,
                        spells.ravel())
