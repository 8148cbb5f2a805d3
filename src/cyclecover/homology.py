"""Integral simplicial homology via unit-pivot elimination and Smith form.

Boundary matrices are dense ``int64`` arrays filled from the facet tables
of the complex's face levels, which the complex builds once and keeps
(``AbstractComplex.facet_tables``): the cap check on the face counts and
the matrices read the same tables.  That ∂∂ = 0 is checked on the tables
themselves: the signed (k-2)-faces reached from each k-face through its
facets are summed per face and must cancel.

``homology`` reads ranks and divisors only, so it first eliminates unit
pivots.  Peeling, as in a collapse, pairs a row that has a single nonzero
±1 among the active columns with that column, and sets the lowest active
column aside when no such row is left.  A row paired at step i has no
nonzero in the columns paired after it, so the pivot block P = M[R, C] is
lower triangular with a ±1 diagonal, which is checked; P is then
invertible over Z.  With X = P^-1 A by forward substitution (P X = A is
checked by multiplication) and S = E - B X for the blocks
M = [[P, A], [B, E]], the integral row and column operations
[[1, 0], [-B P^-1, 1]] and [[1, -X], [0, 1]] take M to diag(P, S), and P to
the identity, so M and diag(I_p, S) have the same Smith form: rank p plus
the rank of S, and divisors p ones followed by those of S.  So
``homology`` reads each ∂_k's rank as p plus the rank of S, and its
torsion as the divisors of S above 1.  The peeling runs on M and on its
transpose, which has the same Smith form, and the side with more pivots
is kept.  The Schur complement S, with its zero rows and columns dropped,
goes to ``smith_normal_form``; it is never larger than M.  The blocks are
cut from M itself, so the Schur complement is computed in one pass, in
``int64`` while a bound on every partial sum allows it: the solve for X
moves to Python integers at the first row whose bound could reach 2^63,
and each product with X picks its type by its own bound.

The Smith reduction works on whole rows and columns of numpy ``object``
arrays of Python integers, which cannot overflow, so it runs once and
needs no bounds.  The factorization U M V = D is checked by multiplication
on those arrays instead of trusted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .pseudomanifold import AbstractComplex, FacetTable, orient

@dataclass
class SmithForm:
    """Diagonal form D with unimodular transforms: U @ matrix @ V == D,
    as ``object`` arrays of Python integers."""

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(np.diagonal(self.d)))

    @property
    def divisors(self) -> list[int]:
        return [int(x) for x in np.diagonal(self.d) if x]


def _reduce(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce the ``object`` array ``a`` in place to Smith normal form;
    return (D, U, V).

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
            if np.count_nonzero(a[t + 1:, t]):
                continue  # remainders are smaller: pick a new pivot
            q = a[t, t + 1:] // p
            hit = np.flatnonzero(q != 0)
            if len(hit):
                q, hit = q[hit], hit + t + 1
                a[:, hit] -= a[:, t, None] * q
                v[:, hit] -= v[:, t, None] * q
            if np.count_nonzero(a[t, t + 1:]):
                continue
            offenders = np.flatnonzero((a[t + 1:, t + 1:] % p != 0).any(axis=1))
            if not len(offenders):
                break
            offender = offenders[0] + t + 1
            a[t] += a[offender]
            u[t] += u[offender]
        if a[t, t] == 0:
            break
    return a, u, v


def _max_abs(m: np.ndarray) -> int:
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def _integer_matrix(matrix) -> np.ndarray:
    """``matrix`` as a 2-dimensional numpy integer array, or ``object``
    array of Python integers when it is not already integer-typed."""
    m = np.asarray(matrix)
    if m.dtype.kind not in "iu":
        m = np.array(matrix, dtype=object)
    if m.ndim != 2:
        raise ValueError("need a 2-dimensional matrix")
    return m


def smith_normal_form(matrix) -> SmithForm:
    """Reduce an integer matrix to Smith normal form over Python integers.

    The factorization is then recomputed by multiplication and the
    divisibility chain of the diagonal is checked.
    """
    m = _integer_matrix(matrix).astype(object)
    d, u, v = _reduce(m.copy())

    result = SmithForm(d, u, v)
    if not np.array_equal(u @ m @ v, d):
        raise AssertionError("Smith transform verification failed")
    divisors = result.divisors
    for small, large in zip(divisors, divisors[1:]):
        if large % small:
            raise AssertionError("Smith divisibility chain broken")
    return result


# ---------------------------------------------------------------------------
# unit-pivot elimination

def unit_pivots(m: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows and columns of ``m``, paired by peeling, in pivot order.

    A row whose only nonzero among the active columns is ±1 pairs with that
    column, which then leaves the active set; when no such row is left,
    the lowest active column is set aside.  Each row keeps its number of
    active nonzeros and the XOR of their column ids, so the partner of a
    row with one is read off directly.  A row paired at step i has no
    nonzero in the columns paired after it, so M[rows, cols] is lower
    triangular with a ±1 diagonal.
    """
    rows, cols = m.shape
    r, c = np.nonzero(m)
    degree = np.bincount(r, minlength=rows).tolist()
    xor = np.zeros(rows, dtype=np.int64)
    np.bitwise_xor.at(xor, r, c)
    xor = xor.tolist()
    start = [0] + np.cumsum(np.bincount(c, minlength=cols)).tolist()
    in_column = r[np.argsort(c, kind="stable")].tolist()
    active = [True] * cols
    ready = deque(i for i in range(rows) if degree[i] == 1)

    def drop(j: int) -> None:
        active[j] = False
        for i in in_column[start[j]:start[j + 1]]:
            degree[i] -= 1
            xor[i] ^= j
            if degree[i] == 1:
                ready.append(i)

    pivot_rows, pivot_cols, lowest = [], [], 0
    while True:
        while ready:
            i = ready.popleft()
            if degree[i] == 1 and m[i, xor[i]] in (1, -1):
                pivot_rows.append(i)
                pivot_cols.append(xor[i])
                drop(xor[i])
        while lowest < cols and not active[lowest]:
            lowest += 1
        if lowest == cols:
            return pivot_rows, pivot_cols
        drop(lowest)


def _forward_substitute(row: np.ndarray, col: np.ndarray, value: np.ndarray,
                        diag: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X with P X = A, for P lower triangular with the ±1 diagonal ``diag``
    and the strictly lower entries (row, col, value).  Rows are solved in
    order, in int64 until a row's partial sums could reach 2^63 (bounded by
    max|A[i]| + sum |P[i, j]| max|X[j]|); from that row on, X and A are
    Python integers."""
    p, q = a.shape
    x = np.zeros_like(a)
    if not q:
        return x
    ends = np.cumsum(np.bincount(row, minlength=p)).tolist()
    order = np.argsort(row, kind="stable")
    col, value = col[order].tolist(), value[order].tolist()
    exact = a.dtype == object
    a_max, x_max = np.abs(a).max(axis=1).tolist(), [0] * p
    start = 0
    for i, end in enumerate(ends):
        js, vs = col[start:end], value[start:end]
        start = end
        if not exact and a_max[i] + sum(
                abs(v) * x_max[j] for j, v in zip(js, vs)) >= 1 << 63:
            exact, x, a = True, x.astype(object), a.astype(object)
        acc = a[i] - np.array(vs, dtype=a.dtype) @ x[js] if js else a[i]
        x[i] = acc if diag[i] == 1 else -acc
        if not exact:
            x_max[i] = int(np.abs(x[i]).max())
    return x


def _minus_product(base: np.ndarray, row: np.ndarray, col: np.ndarray,
                   value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """base - Y @ x for the sparse Y with entries (row, col, value), in int64
    when max|base| + (entries per row) * max|Y| * max|x|, a bound on every
    partial sum, is below 2^63, else over Python integers."""
    per_row = int(np.bincount(row).max(initial=0))
    bound = _max_abs(base) + per_row * _max_abs(value) * _max_abs(x)
    dtype = np.int64 if bound < 1 << 63 else object
    out = base.astype(dtype)
    np.subtract.at(out, row, value.astype(dtype)[:, None] * x.astype(dtype)[col])
    return out


def _schur(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    p = len(rows)
    row_at = np.full(m.shape[0], -1)
    row_at[rows] = np.arange(p)
    col_at = np.full(m.shape[1], -1)
    col_at[cols] = np.arange(p)
    if np.count_nonzero(row_at >= 0) != p or np.count_nonzero(col_at >= 0) != p:
        raise AssertionError("pivot rows or columns repeat")
    other_rows, other_cols = np.flatnonzero(row_at < 0), np.flatnonzero(col_at < 0)

    r, c = np.nonzero(m)
    in_cols = col_at[c] >= 0  # entries of P and B
    r, c = r[in_cols], col_at[c[in_cols]]
    v = m[r, cols[c]]
    i = row_at[r]
    in_p = i >= 0
    pi, pj, pv = i[in_p], c[in_p], v[in_p]
    if (pj > pi).any():
        raise AssertionError("pivot block is not lower triangular")
    on_diag = pi == pj
    diag = np.zeros(p, dtype=m.dtype)
    diag[pi[on_diag]] = pv[on_diag]
    if not ((diag == 1) | (diag == -1)).all():
        raise AssertionError("pivot block has a diagonal entry other than ±1")

    a = m[np.ix_(rows, other_cols)]
    x = _forward_substitute(pi[~on_diag], pj[~on_diag], pv[~on_diag], diag, a)
    if np.count_nonzero(_minus_product(a, pi, pj, pv, x)):
        raise AssertionError("pivot solve verification failed: P X != A")
    e = m[np.ix_(other_rows, other_cols)]
    b_row = np.searchsorted(other_rows, r[~in_p])
    return _minus_product(e, b_row, c[~in_p], v[~in_p], x)


def schur_complement(m: np.ndarray, rows, cols) -> np.ndarray:
    """The Schur complement S = E - B P^-1 A of the pivot block
    P = M[rows, cols], in the block form M = [[P, A], [B, E]] whose other
    rows and columns keep their order.  P must be lower triangular with a
    ±1 diagonal, which is checked, so that M and diag(I_p, S) have the same
    Smith form.  The work runs in one pass: on int64, unless M is an
    ``object`` array or has an entry that does not fit int64, and each
    step moves to Python integers where its bound could reach 2^63.  The
    solve X = P^-1 A is checked by multiplication.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    exact = m.dtype == object or _max_abs(m) >= 1 << 63
    return _schur(m.astype(object if exact else np.int64, copy=False), rows, cols)


def _peeled(matrix) -> tuple[int, np.ndarray]:
    """The number p of unit pivots peeled from an integer matrix and the
    Schur complement S left, with its zero rows and columns dropped.  The
    pivots are peeled from the matrix and from its transpose, whose Smith
    form is the same, and the side with more of them is kept."""
    m = _integer_matrix(matrix)
    rows, cols = unit_pivots(m)
    t_rows, t_cols = unit_pivots(m.T)
    if len(t_rows) > len(rows):
        m, rows, cols = m.T, t_rows, t_cols
    s = schur_complement(m, rows, cols)
    return len(rows), s[np.ix_(np.count_nonzero(s, axis=1) > 0,
                               np.count_nonzero(s, axis=0) > 0)]


# ---------------------------------------------------------------------------
# chain complexes of abstract simplicial complexes

def faces_by_dimension(c: AbstractComplex) -> list[np.ndarray]:
    """The faces of each dimension as ascending vertex rows in sorted order,
    read off the complex's facet tables (``AbstractComplex.facet_tables``)."""
    tables = c.facet_tables
    return [tables[0].facets] + [table.tops for table in tables]


def _check_composite(lower: FacetTable, upper: FacetTable, k: int) -> None:
    """Check that ∂_(k-1) ∂_k vanishes, given the facet tables of the
    (k-1)-faces and of the k-faces: for each k-face, the (k-2)-faces
    reached by dropping position j and then position l, with sign
    (-1)^(j + l), must cancel face by face."""
    faces = lower.facet[upper.facet]  # (k-faces, k + 1, k)
    key = np.arange(len(faces))[:, None, None] * len(lower.facets) + faces
    parity = 1 - 2 * (np.arange(k + 1) % 2)
    sign = np.broadcast_to(parity[:, None] * parity[:k], faces.shape)
    keys, inverse = np.unique(key.ravel(), return_inverse=True)
    total = np.zeros(len(keys), dtype=np.int64)
    np.add.at(total, inverse, sign.ravel())
    if np.count_nonzero(total):
        raise AssertionError(f"boundary composite at dimension {k} is nonzero")


def boundary_matrices(c: AbstractComplex) -> list[np.ndarray]:
    """Signed boundary matrices: entry k maps k-chains to (k-1)-chains.
    Index 0 holds the empty map.  The matrices are filled from the
    complex's facet tables (``AbstractComplex.facet_tables``), and the
    composites of consecutive matrices are checked to vanish on them."""
    tables = c.facet_tables
    mats: list[np.ndarray] = [np.zeros((0, len(tables[0].facets)), dtype=np.int64)]
    for k, table in enumerate(tables, 1):
        m = np.zeros((len(table.facets), len(table.tops)), dtype=np.int64)
        parity = 1 - 2 * (np.arange(k + 1) % 2)
        m[table.facet, np.arange(len(table.tops))[:, None]] = parity
        mats.append(m)
    for k in range(2, c.n + 1):
        _check_composite(tables[k - 2], tables[k - 1], k)
    return mats


@dataclass
class HomologyGroup:
    betti: int
    torsion: list[int]

    def __str__(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _check_entries(what: str, rows: int, cols: int, cap: int | None) -> None:
    """Refuse a dense rows x cols array of more than ``cap`` entries."""
    if cap is not None and rows * cols > cap:
        raise CapExceededError(
            f"homology needs {what}, {rows} x {cols}, {rows * cols} entries, "
            f"over the cap of {cap}", cap, rows * cols)


def homology(c: AbstractComplex,
             max_entries: int | None = None) -> list[HomologyGroup]:
    """Integral homology groups in dimensions 0..n.

    Each boundary matrix ∂_k, |(k-1)-faces| x |k-faces|, is held densely.
    The blocks A and E that peeling cuts from it are parts of it, and the
    solve X has the shape of A, so none is larger.  The Smith form of the
    Schur complement S then holds S and a square transform on each side of
    it.  With ``max_entries``, a ∂_k with more entries raises
    CapExceededError before any matrix is allocated, and so does the larger
    transform of S before its Smith form is begun.
    """
    if max_entries is not None:
        counts = [len(level) for level in faces_by_dimension(c)]
        for k in range(1, c.n + 1):
            _check_entries(f"the boundary matrix ∂_{k}", counts[k - 1],
                           counts[k], max_entries)
    mats = boundary_matrices(c)
    ranks, torsion = [], []
    for k, m in enumerate(mats):
        pivots, s = _peeled(m)
        side = max(s.shape)
        _check_entries(f"a Smith transform of the {s.shape[0]} x {s.shape[1]} "
                       f"Schur complement of ∂_{k}", side, side, max_entries)
        form = smith_normal_form(s)
        ranks.append(pivots + form.rank)
        torsion.append([d for d in form.divisors if d > 1])
    ranks.append(0)
    torsion.append([])
    return [HomologyGroup(mats[k].shape[1] - ranks[k] - ranks[k + 1], torsion[k + 1])
            for k in range(c.n + 1)]


def betti_numbers(c: AbstractComplex) -> list[int]:
    return [g.betti for g in homology(c)]


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
