"""Integral simplicial homology via signed spanning forests, unit-pivot
elimination and Smith form.

``homology`` makes no boundary matrix.  Each ∂_k is read as its entries
(row, column, sign) off the facet table of the k-faces, which the complex
builds once and keeps (``AbstractComplex.facet_tables``); the dense
matrices of ``boundary_matrices`` are a scatter of those same entries.
That ∂∂ = 0 is checked on the tables themselves: the signed (k-2)-faces
reached from each k-face through its facets are summed per face and must
cancel.

``homology`` reads ranks and divisors only, so it first reduces each ∂_k
to p unit pivots and a Schur complement S, and ∂_k has the Smith form of
diag(I_p, S), rank p plus the rank of S, and divisors p ones followed by
those of S.  So ``homology`` reads each ∂_k's rank as p plus the rank of
S, and its torsion as the divisors of S above 1.

A ∂_k with at most two nonzeros in each column, or in each row, is the
incidence matrix of a signed graph, on its rows or on those of its
transpose, which has the same Smith form: ∂_0 and ∂_1 always, and ∂_k
wherever each (k-1)-face lies in at most two k-faces, as ∂_n does in
every pseudomanifold, with or without boundary.  ∂_1 is the graph of the
edges on the vertices; the transpose of such a ∂_k is the signed dual
graph of the k-faces, whose components and signs the facet table keeps
(``FacetTable.dual_components``, shared with ``orient``).  A spanning
forest of the graph pairs all of its nodes but one per component without
a half-edge, and the edges off the forest leave a 2 in S for each such
component that is unbalanced, and nothing else (Zaslavsky, "Signed
graphs", 1982): S is diag(2, ..., 2), which is how RP^2 gets its Z/2.

Every other ∂_k is peeled.  Peeling, as in a collapse, pairs a row that
has a single nonzero ±1 among the active columns with that column, and
sets the lowest active column aside when no such row is left.  A row
paired at step i has no nonzero in the columns paired after it, so the
pivot block P = M[R, C] is lower triangular with a ±1 diagonal, which is
checked; P is then invertible over Z.  With X = P^-1 A by forward
substitution (P X = A is checked by multiplication) and S = E - B X for
the blocks M = [[P, A], [B, E]], the integral row and column operations
[[1, 0], [-B P^-1, 1]] and [[1, -X], [0, 1]] take M to diag(P, S), and P
to the identity.  The peeling runs once, on the tall side: on the
entries of M when it has at least as many rows as columns, and else on
the swapped entries, those of its transpose.  P and B stay entries; only
A, X, E and S are dense.  The solve for X runs level by level, each level
one gather and one scatter.  Either way S, with its zero rows and columns
dropped, goes to ``smith_normal_form``.

From the blocks A and E to the Smith form, every dense array is a numpy
``object`` array of Python integers, which cannot overflow, so each step
runs once and needs no bounds.  The factorization U M V = D is checked by
multiplication on those arrays instead of trusted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .pseudomanifold import (AbstractComplex, FacetTable, _induced_signs,
                             lowest_labels_of_edges, orient)

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


def smith_normal_form(matrix) -> SmithForm:
    """Reduce an integer matrix to Smith normal form over Python integers.

    ``matrix`` may be a nested list or an integer or ``object`` array; it
    is read as an ``object`` array of Python integers.  The factorization
    is then recomputed by multiplication and the divisibility chain of the
    diagonal is checked.
    """
    m = np.asarray(matrix)
    if m.dtype.kind not in "iu":
        m = np.array(matrix, dtype=object)
    if m.ndim != 2:
        raise ValueError("need a 2-dimensional matrix")
    m = m.astype(object)
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
# unit-pivot elimination on matrix entries
#
# A matrix is handed around as its shape and its nonzero entries
# (row, column, value), each position at most once.

def _peel(shape: tuple[int, int], r: np.ndarray, c: np.ndarray,
          v: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows and columns of the matrix with entries (r, c, v), paired
    by peeling, in pivot order.

    A row whose only entry among the active columns is ±1 pairs with that
    column, which then leaves the active set; when no such row is left,
    the lowest active column is set aside.  Each row keeps its number of
    active entries and the XOR of their entry ids, so a row with one names
    that entry, and with it the partner column and its value.  A row paired
    at step i has no entry in the columns paired after it, so the pivot
    block is lower triangular with a ±1 diagonal.  A dropped column updates
    its rows in ascending order, so the pivots do not depend on the order
    of the entries.
    """
    rows, cols = shape
    degree = np.bincount(r, minlength=rows).tolist()
    xor = np.zeros(rows, dtype=np.int64)
    np.bitwise_xor.at(xor, r, np.arange(len(r)))
    xor = xor.tolist()
    start = [0] + np.cumsum(np.bincount(c, minlength=cols)).tolist()
    in_column = np.argsort(c * rows + r).tolist()  # rows ascending in each
    row_of, col_of, value = r.tolist(), c.tolist(), v.tolist()
    active = [True] * cols
    ready = deque(i for i in range(rows) if degree[i] == 1)

    def drop(j: int) -> None:
        active[j] = False
        for e in in_column[start[j]:start[j + 1]]:
            i = row_of[e]
            degree[i] -= 1
            xor[i] ^= e
            if degree[i] == 1:
                ready.append(i)

    pivot_rows, pivot_cols, lowest = [], [], 0
    while True:
        while ready:
            i = ready.popleft()
            if degree[i] == 1 and value[xor[i]] in (1, -1):
                j = col_of[xor[i]]
                pivot_rows.append(i)
                pivot_cols.append(j)
                drop(j)
        while lowest < cols and not active[lowest]:
            lowest += 1
        if lowest == cols:
            return pivot_rows, pivot_cols
        drop(lowest)


def _forward_substitute(row: np.ndarray, col: np.ndarray, value: np.ndarray,
                        diag: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X with P X = A over Python integers, for P lower triangular with the
    ±1 diagonal ``diag`` and the strictly lower entries (row, col, value).

    Row i's level is one more than the highest level among the rows that
    its entries read, or 0 when it reads none, so each level reads only
    rows of lower levels and is solved at once: one gather of those rows of
    X and one ``np.subtract.at``."""
    p, q = a.shape
    x = np.zeros((p, q), dtype=object)
    if not p or not q:
        return x
    level = [0] * p
    by_row = np.argsort(row, kind="stable")
    for i, j in zip(row[by_row].tolist(), col[by_row].tolist()):
        if level[i] <= level[j]:  # j < i, so level[j] is final
            level[i] = level[j] + 1
    level = np.array(level, dtype=np.intp)
    by_level = np.argsort(level, kind="stable")
    place = np.empty(p, dtype=np.intp)  # a row's place in level order
    place[by_level] = np.arange(p)
    order = np.argsort(level[row], kind="stable")
    row, col, value = row[order], col[order], value[order]
    row_ends = np.cumsum(np.bincount(level)).tolist()
    entry_ends = np.cumsum(np.bincount(level[row], minlength=len(row_ends)))
    a = a.astype(object, copy=False)
    start = entry_start = 0
    for end, entry_end in zip(row_ends, entry_ends.tolist()):
        rows = by_level[start:end]
        es = slice(entry_start, entry_end)
        acc = a[rows]
        np.subtract.at(acc, place[row[es]] - start, value[es, None] * x[col[es]])
        x[rows] = acc * diag[rows, None]
        start, entry_start = end, entry_end
    return x


def _minus_product(base: np.ndarray, row: np.ndarray, col: np.ndarray,
                   value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """base - Y @ x over Python integers, for the sparse Y with entries
    (row, col, value)."""
    out = base.astype(object)
    np.subtract.at(out, row, value[:, None] * x[col])
    return out


def _schur(shape: tuple[int, int], r: np.ndarray, c: np.ndarray, v: np.ndarray,
           rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Schur complement of the pivot block P = M[rows, cols] of the
    matrix M with entries (r, c, v); P, A, B and E are read off those
    entries, and only A, X, E and S are dense, as ``object`` arrays."""
    p = len(rows)
    row_at = np.full(shape[0], -1)
    row_at[rows] = np.arange(p)
    col_at = np.full(shape[1], -1)
    col_at[cols] = np.arange(p)
    if np.count_nonzero(row_at >= 0) != p or np.count_nonzero(col_at >= 0) != p:
        raise AssertionError("pivot rows or columns repeat")
    other_rows, other_cols = np.flatnonzero(row_at < 0), np.flatnonzero(col_at < 0)
    # the other rows and columns are numbered -1, -2, ... in their order
    row_at[other_rows] = -1 - np.arange(len(other_rows))
    col_at[other_cols] = -1 - np.arange(len(other_cols))

    i, j = row_at[r], col_at[c]
    in_p, in_a, in_b = (i >= 0) & (j >= 0), (i >= 0) & (j < 0), (i < 0) & (j >= 0)
    in_e = (i < 0) & (j < 0)
    pi, pj, pv = i[in_p], j[in_p], v[in_p]
    if (pj > pi).any():
        raise AssertionError("pivot block is not lower triangular")
    on_diag = pi == pj
    diag = np.zeros(p, dtype=v.dtype)
    diag[pi[on_diag]] = pv[on_diag]
    if not ((diag == 1) | (diag == -1)).all():
        raise AssertionError("pivot block has a diagonal entry other than ±1")

    a = np.zeros((p, len(other_cols)), dtype=object)
    a[i[in_a], -1 - j[in_a]] = v[in_a]
    x = _forward_substitute(pi[~on_diag], pj[~on_diag], pv[~on_diag], diag, a)
    if np.count_nonzero(_minus_product(a, pi, pj, pv, x)):
        raise AssertionError("pivot solve verification failed: P X != A")
    e = np.zeros((len(other_rows), len(other_cols)), dtype=object)
    e[-1 - i[in_e], -1 - j[in_e]] = v[in_e]
    return _minus_product(e, -1 - i[in_b], j[in_b], v[in_b], x)


def _check_cap(what: str, count: int, unit: str, cap: int | None) -> None:
    """Refuse ``count`` entries of ``what`` over ``cap``."""
    if cap is not None and count > cap:
        raise CapExceededError(
            f"homology needs {what}, {count} {unit}, over the cap of {cap}",
            cap, count)


def _check_transform(shape: tuple[int, int], cap: int | None,
                     name: str) -> None:
    """Refuse a Schur complement of ``shape`` whose larger square Smith
    transform has more entries than ``cap``."""
    side = max(shape)
    _check_cap(f"a Smith transform of the {shape[0]} x {shape[1]} "
               f"Schur complement of {name}, {side} x {side}", side * side,
               "entries", cap)


def _peeled_entries(shape: tuple[int, int], r: np.ndarray, c: np.ndarray,
                    v: np.ndarray, cap: int | None,
                    name: str) -> tuple[int, np.ndarray]:
    """The number p of unit pivots peeled from the matrix with entries
    (r, c, v) and the Schur complement S left, with its zero rows and
    columns dropped.  The pivots are peeled once, on the tall side: a
    matrix with fewer rows than columns is read as its transpose, the
    swapped entries, whose Smith form is the same.  Its rows x (columns - p)
    entries hold the dense blocks A and X (p rows) and E and S (the other
    rows), and are checked against ``cap`` before any of them is
    allocated.  S is then checked against ``cap`` for its Smith transforms
    (``_check_transform``)."""
    if shape[0] < shape[1]:
        shape, r, c = shape[::-1], c, r
    rows, cols = _peel(shape, r, c, v)
    p, q = len(rows), shape[1] - len(rows)
    _check_cap(f"the blocks beside the {p} unit pivots of {name}, "
               f"{shape[0]} x {q}", shape[0] * q, "entries", cap)
    s = _schur(shape, r, c, v, np.array(rows, dtype=np.intp),
               np.array(cols, dtype=np.intp))
    s = s[np.ix_(np.count_nonzero(s, axis=1) > 0,
                 np.count_nonzero(s, axis=0) > 0)]
    _check_transform(s.shape, cap, name)
    return p, s


def _signed_graph_entries(tables: list[FacetTable], k: int, cap: int | None,
                          name: str) -> tuple[int, np.ndarray] | None:
    """What ``_peeled_entries`` returns, p and S, for a ∂_k that is the
    incidence matrix of a signed graph, read off the facet tables; else
    None.

    ∂_0 has no rows.  ∂_1 is the graph of the edges on the vertices: each
    column holds a +1 and a -1, so every component is balanced, and its
    spanning forest pairs every vertex but the lowest of each component.
    For k >= 2, ∂_k is a signed graph when each (k-1)-face lies in at most
    two k-faces; read on the transpose, the k-faces are its nodes, the
    (k-1)-faces in two of them its edges and those in one half-edges, and
    its components and signs are the facet table's ``dual_components``.  A
    component is unbalanced when the signs of the two k-faces at an edge
    induce the same sign on it.  Switched by the signs, the forest, rooted
    at a half-edge where the component has one, pairs each node but the
    roots of the other components with a unit pivot, and the edges off it
    leave a 2 at each such root of an unbalanced component: S is
    diag(2, ..., 2), checked against ``cap`` before it is made."""
    none = np.zeros((0, 0), dtype=object)
    if not k:
        return 0, none
    table = tables[k - 1]
    if k == 1:
        count = len(table.facets)
        a, b = table.facet.T
        label = lowest_labels_of_edges(count, np.concatenate([a, b]),
                                       np.concatenate([b, a]))
        return count - int(np.count_nonzero(label == np.arange(count))), none
    if (table.counts > 2).any():
        return None
    label, sign = table.dual_components
    count = len(table.tops)
    two = table.neighbor >= 0
    induced = _induced_signs(table, sign)
    agree = two & (induced == induced[table.neighbor, table.position])
    half, unbalanced = np.zeros((2, count), dtype=bool)
    half[label[~two.all(axis=1)]] = True
    unbalanced[label[agree.any(axis=1)]] = True
    closed = (label == np.arange(count)) & ~half
    twos = int(np.count_nonzero(closed & unbalanced))
    _check_transform((twos, twos), cap, name)
    return (count - int(np.count_nonzero(closed)),
            np.diag(np.full(twos, 2, dtype=object)))


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


def _boundary_entries(tables: list[FacetTable], k: int) -> tuple[
        tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """∂_k, |(k-1)-faces| x |k-faces|, as its shape and entries, column by
    column: the k-face in column t has (-1)^i in the row of
    ``table.facet[t, i]``, its facet without its i-th vertex.  ∂_0 is the
    empty map."""
    if not k:
        none = np.zeros(0, dtype=np.int64)
        return (0, len(tables[0].facets)), none, none, none
    table = tables[k - 1]
    tops = len(table.tops)
    parity = 1 - 2 * (np.arange(k + 1) % 2)
    return ((len(table.facets), tops), table.facet.ravel(),
            np.repeat(np.arange(tops), k + 1), np.tile(parity, tops))


def boundary_matrices(c: AbstractComplex) -> list[np.ndarray]:
    """Signed boundary matrices: entry k maps k-chains to (k-1)-chains.
    Index 0 holds the empty map.  Each is the scatter of the entries that
    ``homology`` reduces, read off the complex's facet tables
    (``AbstractComplex.facet_tables``), and the composites of consecutive
    matrices are checked to vanish on those tables."""
    tables = c.facet_tables
    mats = []
    for k in range(c.n + 1):
        shape, r, col, v = _boundary_entries(tables, k)
        m = np.zeros(shape, dtype=np.int64)
        m[r, col] = v
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


def homology(c: AbstractComplex,
             max_entries: int | None = None) -> list[HomologyGroup]:
    """Integral homology groups in dimensions 0..n.

    No boundary matrix is made.  A ∂_k that is a signed graph is reduced
    on a spanning forest of it, read off the facet table of the k-faces,
    in arrays of the size of its entries; its S is diag(2, ..., 2), one 2
    per unbalanced component without a half-edge.  Every other ∂_k is peeled
    once, on its tall side, on its (k + 1) x |k-faces| entries.  Peeling
    makes only the blocks beside the pivots dense: A and X, p x q for the
    p pivots and the q unpaired columns, and E and S, (rows - p) x q, on
    the side peeled.  The Smith form of S then holds S and a square
    transform on each side of it.  With ``max_entries``, CapExceededError
    is raised when a ∂_k has more nonzero entries, from ∂_n down, each
    before the facet table of its k-faces is built, so a refusal builds no
    level below the refused one; when the dense blocks of a peeled ∂_k,
    rows x q entries in all, would, before any is allocated; and when the
    larger transform of S would, before the diagonal S of a signed graph
    is made, and before the Smith form of any S is begun.
    ∂_(k-1) ∂_k = 0 is checked on the facet tables just before ∂_k is
    reduced, so a refusal skips the checks of the levels above it.
    """
    levels, faces = c.facet_levels(), len(c.tops)
    for k in range(c.n, 0, -1):
        _check_cap(f"the boundary matrix ∂_{k} of the {faces} {k}-faces",
                   (k + 1) * faces, "nonzero entries", max_entries)
        faces = len(next(levels).facets)
    tables = c.facet_tables
    ranks, torsion = [], []
    for k in range(c.n + 1):
        if k >= 2:
            _check_composite(tables[k - 2], tables[k - 1], k)
        name = f"∂_{k}"
        pivots, s = (_signed_graph_entries(tables, k, max_entries, name)
                     or _peeled_entries(*_boundary_entries(tables, k),
                                        max_entries, name))
        form = smith_normal_form(s)
        ranks.append(pivots + form.rank)
        torsion.append([d for d in form.divisors if d > 1])
    ranks.append(0)
    torsion.append([])
    counts = [len(level) for level in faces_by_dimension(c)]
    return [HomologyGroup(counts[k] - ranks[k] - ranks[k + 1], torsion[k + 1])
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
