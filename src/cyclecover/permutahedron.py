"""Face lattice of the n-dimensional permutahedron.

Facets correspond to the nonempty proper subsets of {1, ..., n+1}; a face of
codimension k corresponds to a strictly increasing chain of k such subsets,
since two facets meet exactly when their subsets are nested.  The polytope
itself is the empty chain.  Subsets are bitmasks (bit c-1 for color c) and
chains are tuples of masks ordered by inclusion.

Everything downstream leans on this correspondence: vertices are complete
chains (orderings of {1, ..., n+1}), and the k-th barycentric triangulation
simplex of a cell is a flag of chains growing one subset at a time.
"""

from __future__ import annotations

from itertools import permutations

Chain = tuple[int, ...]


def full_mask(n: int) -> int:
    return (1 << (n + 1)) - 1


def mask_elements(mask: int) -> tuple[int, ...]:
    """Colors present in a mask, ascending (1-based)."""
    return tuple(c + 1 for c in range(mask.bit_length()) if mask >> c & 1)


def mask_of(colors) -> int:
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


def proper_subsets(n: int) -> list[int]:
    """The 2^(n+1) - 2 facet labels, sorted by size then lexicographically
    by element tuple.  This order fixes tuple slots and traversal order."""
    subsets = [m for m in range(1, full_mask(n))]
    subsets.sort(key=lambda m: (m.bit_count(), mask_elements(m)))
    return subsets


def is_chain(masks) -> bool:
    return all(a != b and a & b == a for a, b in zip(masks, masks[1:]))


def enumerate_faces(n: int, codim: int) -> list[Chain]:
    """All codimension-``codim`` faces as chains of ``codim`` nested subsets,
    in lexicographic order with respect to ``proper_subsets``."""
    if codim == 0:
        return [()]
    subsets = proper_subsets(n)
    out: list[Chain] = []

    def grow(chain: Chain):
        if len(chain) == codim:
            out.append(chain)
            return
        last = chain[-1] if chain else 0
        for m in subsets:
            if m != last and (m & last) == last:
                grow(chain + (m,))

    grow(())
    return out


def vertex_chains(n: int) -> list[Chain]:
    """Complete chains (codimension n); one per ordering of {1, ..., n+1}
    with the last element dropped."""
    return enumerate_faces(n, n)


def face_counts(n: int) -> list[int]:
    """Number of codimension-k faces for k = 0..n."""
    return [len(enumerate_faces(n, k)) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# barycentric triangulation of a single permutahedron

def triangulation_flags(n: int) -> list[tuple[Chain, ...]]:
    """Top simplices of the barycentric triangulation, one per flag of faces.

    A flag is a sequence of chains () = c_0 < c_1 < ... < c_n where each step
    inserts one subset; equivalently a complete chain together with the order
    of insertion of its subsets.  There are n! * (n+1)! flags.
    """
    flags = []
    for complete in vertex_chains(n):
        for insert_order in permutations(range(n)):
            chains: list[Chain] = [()]
            held: list[int] = []
            for pos in insert_order:
                held.append(complete[pos])
                held.sort(key=lambda m: (m.bit_count(), mask_elements(m)))
                chains.append(tuple(held))
            flags.append(tuple(chains))
    return flags
