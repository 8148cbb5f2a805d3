"""Integral simplicial homology via Smith normal form.

Boundary matrices are dense ``int64`` arrays filled from the facet tables
of the complex's face levels, and the composite of consecutive ones is
checked to vanish.  The Smith reduction works on whole rows and columns of
``int64`` arrays while every entry of the matrix and of its row and column
transforms stays below 2^31 in absolute value: under that bound no single
update can wrap, and the bound is checked after every update.  When it
breaks, or the input already exceeds it, the same reduction restarts on
numpy ``object`` arrays of Python integers, which cannot overflow.  Both
give the same D, U and V.  The factorization U M V = D is checked by
multiplication instead of trusted, in ``int64`` when a bound on the entries
of the product allows it and over Python integers otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .pseudomanifold import AbstractComplex, FacetTable, facet_table, orient

# entries below this bound keep every single update inside int64
_BOUND = 1 << 31


class _Overflow(Exception):
    """An int64 entry reached the bound; reduce over Python integers."""


@dataclass
class SmithForm:
    """Diagonal form D with unimodular transforms: U @ matrix @ V == D.

    The arrays are ``int64`` when the reduction stayed under 2^31 and
    ``object`` (Python integers) otherwise.
    """

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(np.diagonal(self.d)))

    @property
    def divisors(self) -> list[int]:
        return [int(x) for x in np.diagonal(self.d) if x]


def _check_bound(*blocks: np.ndarray) -> None:
    """Raise _Overflow when an int64 block has an entry of 2^31 or more in
    absolute value; object blocks are exact and pass."""
    for block in blocks:
        if block.dtype != object and block.size and (
                block.max() >= _BOUND or block.min() <= -_BOUND):
            raise _Overflow


def _reduce(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce ``a`` in place to Smith normal form; return (D, U, V).

    At step t the pivot is the first entry of least nonzero absolute value
    in row-major order of the trailing submatrix.  It clears its column,
    then its row; a remainder sends the step back to a new, smaller pivot.
    When the pivot does not divide the whole remaining submatrix, the first
    row holding an entry it does not divide is added to row t and the step
    repeats, so the diagonal divisibility chain holds by construction.
    Row t stays fixed while the other rows are reduced (and column t while
    the other columns are), so each elimination is one array update.
    """
    rows, cols = a.shape
    u = np.eye(rows, dtype=a.dtype)
    v = np.eye(cols, dtype=a.dtype)
    for t in range(min(rows, cols)):
        while True:
            size = np.abs(a[t:, t:])
            nonzero = size != 0
            if not nonzero.any():
                break
            size[~nonzero] = size.max() + 1
            pi, pj = divmod(int(np.argmin(size)), cols - t)
            pi, pj = pi + t, pj + t
            if pi != t:
                a[[t, pi]] = a[[pi, t]]
                u[[t, pi]] = u[[pi, t]]
            if pj != t:
                a[:, [t, pj]] = a[:, [pj, t]]
                v[:, [t, pj]] = v[:, [pj, t]]
            if a[t, t] < 0:
                a[t] = -a[t]
                u[t] = -u[t]
            p = a[t, t]

            q = a[t + 1:, t] // p
            hit = np.flatnonzero(q != 0)
            if len(hit):
                q, hit = q[hit, None], hit + t + 1
                a[hit] -= q * a[t]
                u[hit] -= q * u[t]
                _check_bound(a[hit], u[hit])
            if np.count_nonzero(a[t + 1:, t]):
                continue  # remainders are smaller: pick a new pivot
            q = a[t, t + 1:] // p
            hit = np.flatnonzero(q != 0)
            if len(hit):
                q, hit = q[hit], hit + t + 1
                a[:, hit] -= a[:, t, None] * q
                v[:, hit] -= v[:, t, None] * q
                _check_bound(a[:, hit], v[:, hit])
            if np.count_nonzero(a[t, t + 1:]):
                continue
            offenders = np.flatnonzero((a[t + 1:, t + 1:] % p != 0).any(axis=1))
            if not len(offenders):
                break
            offender = offenders[0] + t + 1
            a[t] += a[offender]
            u[t] += u[offender]
            _check_bound(a[t], u[t])
        if a[t, t] == 0:
            break
    return a, u, v


def _max_abs(m: np.ndarray) -> int:
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def _product(u: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U @ M @ V, in int64 when rows * cols * max|U| * max|M| * max|V|
    (a bound on every partial sum) is below 2^63, else over Python ints."""
    rows, cols = m.shape
    bound = rows * cols * _max_abs(u) * _max_abs(m) * _max_abs(v)
    dtype = np.int64 if bound < 1 << 63 else object
    return u.astype(dtype) @ m.astype(dtype) @ v.astype(dtype)


def smith_normal_form(matrix, verify: bool = True) -> SmithForm:
    """Reduce an integer matrix to Smith normal form.

    The reduction runs on int64 while every entry stays below 2^31 and
    restarts over Python integers when one does not; the result is the
    same either way.  With ``verify`` the factorization is recomputed by
    multiplication and the divisibility chain of the diagonal is checked.
    """
    m = np.asarray(matrix)
    if m.dtype.kind not in "iu":
        m = np.array(matrix, dtype=object)
    if m.ndim != 2:
        raise ValueError("need a 2-dimensional matrix")
    try:
        if _max_abs(m) >= _BOUND:
            raise _Overflow
        d, u, v = _reduce(m.astype(np.int64))
    except _Overflow:
        d, u, v = _reduce(m.astype(object))

    result = SmithForm(d, u, v)
    if verify:
        if not np.array_equal(_product(u, m, v), d):
            raise AssertionError("Smith transform verification failed")
        divisors = result.divisors
        for small, large in zip(divisors, divisors[1:]):
            if large % small:
                raise AssertionError("Smith divisibility chain broken")
    return result


# ---------------------------------------------------------------------------
# chain complexes of abstract simplicial complexes

def _facet_tables(c: AbstractComplex) -> list[FacetTable]:
    """The facet tables of the faces of dimensions 1..n, built from the top
    simplices down: the table of the k-faces holds them as ``tops`` and the
    (k-1)-faces as ``facets``, both as ascending vertex rows in sorted order."""
    tables = [c.facet_table]
    while len(tables) < c.n:
        tables.insert(0, facet_table(tables[0].facets, c.num_vertices))
    return tables


def faces_by_dimension(c: AbstractComplex) -> list[np.ndarray]:
    """The faces of each dimension as ascending vertex rows in sorted order."""
    tables = _facet_tables(c)
    return [tables[0].facets] + [table.tops for table in tables]


def boundary_matrices(c: AbstractComplex) -> list[np.ndarray]:
    """Signed boundary matrices: entry k maps k-chains to (k-1)-chains.
    Index 0 holds the empty map.  The composites of consecutive matrices
    are checked to vanish."""
    tables = _facet_tables(c)
    mats: list[np.ndarray] = [np.zeros((0, len(tables[0].facets)), dtype=np.int64)]
    for k, table in enumerate(tables, 1):
        m = np.zeros((len(table.facets), len(table.tops)), dtype=np.int64)
        parity = 1 - 2 * (np.arange(k + 1) % 2)
        m[table.facet, np.arange(len(table.tops))[:, None]] = parity
        mats.append(m)
    for k in range(2, c.n + 1):
        if np.count_nonzero(mats[k - 1] @ mats[k]):
            raise AssertionError(f"boundary composite at dimension {k} is nonzero")
    return mats


@dataclass
class HomologyGroup:
    betti: int
    torsion: list[int]

    def __str__(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other) -> bool:
        if isinstance(other, HomologyGroup):
            return (self.betti, self.torsion) == (other.betti, other.torsion)
        return NotImplemented


def homology(c: AbstractComplex, verify: bool = True,
             max_entries: int | None = None) -> list[HomologyGroup]:
    """Integral homology groups in dimensions 0..n.

    Reducing the k-th boundary matrix, |(k-1)-faces| x |k-faces|, also
    holds a square transform on each side, so the largest dense array has
    F^2 entries, F the largest number of faces of one dimension.  With
    ``max_entries``, a larger F^2 raises CapExceededError before any matrix
    is allocated.
    """
    if max_entries is not None:
        counts = [len(level) for level in faces_by_dimension(c)]
        k = int(np.argmax(counts))
        if counts[k] ** 2 > max_entries:
            raise CapExceededError(
                f"homology of the {counts[k]} faces of dimension {k} needs a "
                f"{counts[k]} x {counts[k]} matrix, {counts[k] ** 2} entries, "
                f"over the cap of {max_entries}", max_entries, counts[k] ** 2)
    mats = boundary_matrices(c)
    forms = [smith_normal_form(m, verify) for m in mats]
    groups = []
    for k in range(c.n + 1):
        rank_in = forms[k].rank
        rank_out = forms[k + 1].rank if k < c.n else 0
        torsion = [d for d in forms[k + 1].divisors if d > 1] if k < c.n else []
        groups.append(HomologyGroup(mats[k].shape[1] - rank_in - rank_out, torsion))
    return groups


def betti_numbers(c: AbstractComplex, verify: bool = True) -> list[int]:
    return [g.betti for g in homology(c, verify)]


def fundamental_class(c: AbstractComplex,
                      orientation: list[int] | None = None) -> np.ndarray:
    """The coherent top-dimensional cycle as a coefficient vector over the
    sorted top simplices.  Its boundary, summed facet by facet over the
    facet table, is checked to vanish."""
    if orientation is None:
        orientation = orient(c)
    z = np.array(orientation, dtype=np.int64)
    table = c.facet_table
    parity = 1 - 2 * (np.arange(c.n + 1) % 2)
    boundary = np.zeros(len(table.facets), dtype=np.int64)
    np.add.at(boundary, table.facet, z[:, None] * parity)
    if np.count_nonzero(boundary):
        raise AssertionError("fundamental chain has nonzero boundary")
    return z
