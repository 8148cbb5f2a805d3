"""Part-swapping involutions compatible with a set of colors.

For a colored pseudomanifold with top simplices split into parts U+ and U-,
an involution L on the top simplices is *compatible with the color subset w*
when it is fixed-point free, swaps the parts, and for every simplex s the
simplices s and L(s) carry the same vertex in each color of w.  Carrying the
same w-colored vertices means lying in the star of the same face F spanned
by the colors of w, an equivalence relation.  So L is compatible exactly
when it pairs the plus and minus simplices within each star by a
bijection: one exists iff every star holds as many plus simplices a_F as
minus ones, and there are prod_F a_F! of them.  The full cover realizes
q = 2^(n-1) times the product of these counts over all w.

Everything here reads the bundle's arrays.  The stars of w are the
distinct rows of ``by_color`` restricted to the colors of w, and a_F is a
``bincount`` of the plus part over them.  The canonical involution for w
pairs each top with its neighbor across the facet that drops the vertex
of the one color missing from a size-n extension of w.  A candidate is
checked compatible by one test over the whole array.

Involutions are stored as permutation tuples over top-simplex indices.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial, prod

import numpy as np

from .permutahedron import full_mask, mask_elements, proper_subsets
from .pseudomanifold import ColoredPseudomanifold, group_rows

Involution = tuple[int, ...]


def _colored(cp: ColoredPseudomanifold, subset: int) -> np.ndarray:
    """The vertices of the subset's colors in every top simplex."""
    return cp.by_color[:, [c - 1 for c in mask_elements(subset)]]


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
    missing = full_mask(cp.n) & ~extend_to_facet_colors(subset, cp.n)
    table = cp.complex.facet_table
    dropped = cp.by_color[:, missing.bit_length() - 1]
    position = np.argmax(table.tops == dropped[:, None], axis=1)
    return tuple(table.neighbor[np.arange(len(position)), position].tolist())


def is_compatible_involution(cp: ColoredPseudomanifold, perm, subset: int) -> bool:
    """Is ``perm`` a fixed-point-free involution of the top simplices that
    swaps the parts and keeps the vertex of every color of the subset?  A
    2-D ``perm`` asks it of every row."""
    perm = np.asarray(perm)
    if perm.ndim not in (1, 2) or perm.shape[-1] != cp.top_count:
        return False
    rows = np.atleast_2d(perm)
    return bool(compatible_rows(cp, rows, np.full(len(rows), subset)).all())


def compatible_rows(cp: ColoredPseudomanifold, perms: np.ndarray,
                    subsets: np.ndarray) -> np.ndarray:
    """``is_compatible_involution`` of each row of the 2-D ``perms`` with
    the subset of the same index in ``subsets``, as one boolean per row,
    from one test over all the rows.  A row with an entry out of range
    fails, and is read as the identity by the other tests."""
    perms = np.asarray(perms, dtype=np.int64)
    tops = np.arange(cp.top_count)
    ok = ((perms >= 0) & (perms < cp.top_count)).all(axis=1)
    perms = np.where(ok[:, None], perms, tops)
    ok &= (np.take_along_axis(perms, perms, axis=1) == tops).all(axis=1)
    # a fixed point keeps its part, so the part swap rules fixed points out
    ok &= (cp.parts[perms] != cp.parts).all(axis=1)
    # kept[r, c]: row r keeps the vertex of color c + 1 in every simplex
    kept = (cp.by_color[perms] == cp.by_color).all(axis=1)
    colors = np.asarray(subsets, dtype=np.int64)[:, None] >> np.arange(cp.n + 1) & 1
    return ok & (kept | (colors == 0)).all(axis=1)


def _stars(cp: ColoredPseudomanifold, subset: int):
    """The star of the subset's face that holds each top simplex, numbered
    in sorted order of the faces, and each star's plus and minus counts."""
    colored = _colored(cp, subset)
    star, _ = group_rows(colored, int(colored.max()) + 1)
    count = int(star.max()) + 1
    return (star, np.bincount(star[cp.plus], minlength=count),
            np.bincount(star[cp.minus], minlength=count))


def count_compatible_involutions(cp: ColoredPseudomanifold, subset: int) -> int:
    """The product over the stars of a_F!, where a_F is the star's number of
    plus-part simplices; 0 if a star has more of one part than the other."""
    _, plus, minus = _stars(cp, subset)
    if (plus != minus).any():
        return 0
    return prod(factorial(a) ** stars
                for a, stars in enumerate(np.bincount(plus).tolist()))


def predicted_multiplicity(cp: ColoredPseudomanifold,
                           counts: list[int] | None = None) -> int:
    """q = 2^(n-1) times the product over proper color subsets of the
    number of compatible involutions: the multiplicity the full cover
    realizes, and its number of cells over each top simplex.  ``counts``
    may hand in those numbers, one per subset in ``proper_subsets``
    order, when they are already known."""
    if counts is None:
        counts = [count_compatible_involutions(cp, w)
                  for w in proper_subsets(cp.n)]
    return (1 << (cp.n - 1)) * prod(counts)


def enumerate_compatible_involutions(cp: ColoredPseudomanifold,
                                     subset: int) -> list[Involution]:
    """All involutions compatible with the subset: every combination of one
    bijection per star.  The ``count_compatible_involutions`` entries are
    sorted by the partners of the plus-part simplices in index order."""
    star, plus_count, minus_count = _stars(cp, subset)
    if (plus_count != minus_count).any():
        return []
    members = np.split(np.argsort(star, kind="stable"),
                       np.cumsum(2 * plus_count)[:-1])
    stars = [(m[cp.parts[m] == 1].tolist(), m[cp.parts[m] == -1].tolist())
             for m in members]
    found = []
    for images in product(*(permutations(minus) for _, minus in stars)):
        perm = [-1] * cp.top_count
        for (plus, _), image in zip(stars, images):
            for i, j in zip(plus, image):
                perm[i], perm[j] = j, i
        found.append(tuple(perm))
    plus_tops = cp.plus.tolist()
    found.sort(key=lambda perm: [perm[i] for i in plus_tops])
    return found
