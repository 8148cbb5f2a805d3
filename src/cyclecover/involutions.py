"""Part-swapping involutions compatible with a set of colors.

For a colored pseudomanifold with top simplices split into parts U+ and U-,
an involution L on the top simplices is *compatible with the color subset w*
when it is fixed-point free, swaps the parts, and for every simplex s the
simplices s and L(s) carry the same vertex in each color of w.  Carrying the
same w-colored vertices means lying in the star of the same face F spanned
by the colors of w, an equivalence relation.  So L is compatible exactly
when it pairs the plus and minus simplices within each star by a
bijection: one exists iff every star holds as many plus simplices a_F as
minus ones, and there are prod_F a_F! of them.

Involutions are stored as permutation tuples over top-simplex indices.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from .pseudomanifold import ColoredPseudomanifold

Involution = tuple[int, ...]


def compatible(cp: ColoredPseudomanifold, i: int, j: int, subset: int) -> bool:
    """Do top simplices i and j share their color-c vertex for every c in
    the subset?"""
    bi, bj = cp.by_color[i], cp.by_color[j]
    m = subset
    while m:
        c = m & -m
        if bi[c.bit_length() - 1] != bj[c.bit_length() - 1]:
            return False
        m ^= c
    return True


def extend_to_facet_colors(subset: int, n: int) -> int:
    """Grow a color subset to size n by adding the smallest missing colors;
    the result labels a facet color set of every top simplex."""
    if subset == 0 or subset >> (n + 1):
        raise ValueError("subset must be a nonempty set of the n+1 colors")
    ext, c = subset, 0
    while ext.bit_count() < n:
        while ext >> c & 1:
            c += 1
        ext |= 1 << c
    return ext


def canonical_involution(cp: ColoredPseudomanifold, subset: int) -> Involution:
    """Pair every top simplex with its neighbor across the facet colored by
    the canonical size-n extension of the subset."""
    ext = extend_to_facet_colors(subset, cp.n)
    return tuple(cp.neighbor_across(i, ext) for i in range(cp.top_count))


def is_compatible_involution(cp: ColoredPseudomanifold, perm, subset: int) -> bool:
    if len(perm) != cp.top_count:
        return False
    for i, j in enumerate(perm):
        if j == i or not 0 <= j < cp.top_count:
            return False
        if perm[j] != i or cp.parts[i] == cp.parts[j]:
            return False
        if not compatible(cp, i, j, subset):
            return False
    return True


def _stars(cp: ColoredPseudomanifold, subset: int) -> list[tuple[list[int], list[int]]]:
    """The (plus, minus) top simplices in the star of each face spanned by
    the colors of the subset, in order of first appearance."""
    colors = [c for c in range(cp.n + 1) if subset >> c & 1]
    stars: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for i, vertices in enumerate(cp.by_color):
        plus, minus = stars.setdefault(tuple(vertices[c] for c in colors), ([], []))
        (plus if cp.parts[i] == 1 else minus).append(i)
    return list(stars.values())


def count_compatible_involutions(cp: ColoredPseudomanifold, subset: int) -> int:
    """The product over the stars of a_F!, where a_F is the star's number of
    plus-part simplices; 0 if a star has more of one part than the other."""
    count = 1
    for plus, minus in _stars(cp, subset):
        if len(plus) != len(minus):
            return 0
        count *= factorial(len(plus))
    return count


def enumerate_compatible_involutions(cp: ColoredPseudomanifold,
                                     subset: int) -> list[Involution]:
    """All involutions compatible with the subset: every combination of one
    bijection per star.  The ``count_compatible_involutions`` entries are
    sorted by the partners of the plus-part simplices in index order."""
    stars = _stars(cp, subset)
    if any(len(plus) != len(minus) for plus, minus in stars):
        return []
    found = []
    for images in product(*(permutations(minus) for _, minus in stars)):
        perm = [-1] * cp.top_count
        for (plus, _), image in zip(stars, images):
            for i, j in zip(plus, image):
                perm[i], perm[j] = j, i
        found.append(tuple(perm))
    found.sort(key=lambda perm: [perm[i] for i in cp.plus])
    return found
