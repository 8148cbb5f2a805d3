"""The Tomei manifold as a permutahedral complex.

Take one permutahedron per element of (Z_2)^n and glue facet F_w of cell g to
facet F_w of cell g + e_{|w|}, where |w| is the size of the subset labeling
the facet.  Only the size of the label matters, so the 2^(n+1) - 2 facets of
each cell are matched through just n distinct reflections.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .cells import PermutahedralComplex
from .permutahedron import proper_subsets


def size_generator(subset: int) -> int:
    """The (Z_2)^n basis vector e_{|subset|} as a bitmask."""
    return 1 << (subset.bit_count() - 1)


@cache
def generators(n: int) -> np.ndarray:
    """``size_generator`` of every facet label, in slot order, as a
    read-only ``int32`` array made once per n and process."""
    gen = np.array([size_generator(w) for w in proper_subsets(n)], dtype=np.int32)
    gen.flags.writeable = False
    return gen


def build_tomei(n: int) -> PermutahedralComplex:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    glue = np.arange(1 << n, dtype=np.int32)[:, None] ^ generators(n)
    return PermutahedralComplex(n, 1 << n, glue)


def glued_as_tomei(pc: PermutahedralComplex) -> bool:
    """Are 2^n cells g glued to g + e_|w| across F_w?  Then the class of
    (g, w_1 < ... < w_k) is g + span{e_|w_i|}, with 2^k members, as nested
    subsets differ in size; and e_1, ..., e_n connect the cells."""
    n = pc.n
    return np.array_equal(pc.glue, np.arange(1 << n)[:, None] ^ generators(n))
