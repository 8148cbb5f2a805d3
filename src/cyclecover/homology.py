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
checked; P is then invertible over Z.  With X = P^-1 A and S = E - B X
for the blocks M = [[P, A], [B, E]], the integral row and column
operations [[1, 0], [-B P^-1, 1]] and [[1, -X], [0, 1]] take M to
diag(P, S), and P to the identity.  Each unpaired column is solved on
its own, as a dict of Python integers, which leaves that column of S
below the pivots; P x = A is checked by multiplication.  Each round peels
the tall side (the transpose, when M has fewer rows than columns) and the
next round peels S, until a round pairs no pivot.  Only that S, without
its zero rows and columns, is made dense, as a numpy ``object`` array,
for ``smith_normal_form``.  Python integers cannot overflow, so no step
needs bounds, and the factorization U M V = D is checked by
multiplication instead of trusted.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_MAX_CELLS, check_cap
from .pseudomanifold import (AbstractComplex, FacetTable, lowest_labels_of_edges,
                             orient)

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


def _solve_column(column: dict, p: int, diag: list, below: list) -> dict:
    """The column x of X with P x = A for the non-pivot column ``column``,
    keyed as in ``_schur``.  Pivot keys leave a heap in ascending order:
    each sets x_k = P[k, k] left[k] and subtracts x_k times column k of P
    and B below k, which leaves ``column`` holding E - B x, that column of
    S, at its keys >= p."""
    heap = sorted(k for k in column if k < p)  # a sorted list is a heap
    x = {}
    while heap:
        k = heapq.heappop(heap)
        left = column.pop(k)
        if not left:
            continue
        x_k = x[k] = diag[k] * left
        for i, w in zip(*below[k]):
            if i in column:
                column[i] -= x_k * w
            else:
                column[i] = -x_k * w
                if i < p:
                    heapq.heappush(heap, i)
    return x


def _schur(shape: tuple[int, int], r: np.ndarray, c: np.ndarray, v: np.ndarray,
           rows: np.ndarray, cols: np.ndarray, cap: int, name: str,
           solved: int) -> tuple:
    """The Schur complement S of the pivot block P = M[rows, cols] of the
    matrix M with entries (r, c, v), as its shape and entries on its
    nonzero rows and columns, and ``solved`` plus the nonzeros of X.

    Pivot rows and columns are keyed 0 ... p-1 in pivot order and the
    others from p on in their order, so M = [[P, A], [B, E]].  Each other
    column is solved on its own, as a dict of Python integers, and P x = A
    is checked by multiplication.  The nonzeros of X, counted on from
    ``solved``, and of S are checked against ``cap`` as they are made."""
    p = len(rows)
    row_at = np.full(shape[0], -1)
    row_at[rows] = np.arange(p)
    col_at = np.full(shape[1], -1)
    col_at[cols] = np.arange(p)
    if np.count_nonzero(row_at >= 0) != p or np.count_nonzero(col_at >= 0) != p:
        raise AssertionError("pivot rows or columns repeat")
    row_at[row_at < 0] = np.arange(p, shape[0])
    col_at[col_at < 0] = np.arange(p, shape[1])

    i, j = row_at[r], col_at[c]
    order = np.lexsort((i, j))  # column by column, rows ascending in each
    i, j, v = i[order], j[order], v[order]
    in_p = (i < p) & (j < p)
    if (j[in_p] > i[in_p]).any():
        raise AssertionError("pivot block is not lower triangular")
    on_diag = in_p & (i == j)
    diag = np.zeros(p, dtype=v.dtype)
    diag[i[on_diag]] = v[on_diag]
    if not ((diag == 1) | (diag == -1)).all():
        raise AssertionError("pivot block has a diagonal entry other than ±1")
    diag, i, v = diag.tolist(), i.tolist(), v.tolist()
    ends = np.cumsum(np.bincount(j, minlength=shape[1])).tolist()
    starts = [0] + ends
    # column k of P and B below its diagonal entry, the first of column k
    below = [(i[a + 1:b], v[a + 1:b]) for a, b in zip(starts, ends[:p])]
    s = []
    for col, a, b in zip(range(p, shape[1]), starts[p:], ends[p:]):
        column = dict(zip(i[a:b], v[a:b]))
        want = {k: value for k, value in column.items() if k < p}
        x = _solve_column(column, p, diag, below)
        got = {}
        for k, x_k in x.items():
            got[k] = got.get(k, 0) + diag[k] * x_k
            for row, w in zip(*below[k]):
                if row >= p:
                    break
                got[row] = got.get(row, 0) + w * x_k
        if {k: value for k, value in got.items() if value} != want:
            raise AssertionError("pivot solve verification failed: P X != A")
        solved += len(x)
        check_cap(f"X = P^-1 A beside the {p} unit pivots of {name}",
                  solved, "nonzero entries so far", cap)
        s += [(row, col, value) for row, value in column.items() if value]
        check_cap(f"the Schur complement of {name} beside the {p} unit pivots",
                  len(s), "nonzero entries so far", cap)
    r, c, v = zip(*s) if s else ((), (), ())
    rows, r = np.unique(np.array(r, dtype=np.intp), return_inverse=True)
    cols, c = np.unique(np.array(c, dtype=np.intp), return_inverse=True)
    return (len(rows), len(cols)), r, c, np.array(v, dtype=object), solved


def _check_transform(shape: tuple[int, int], cap: int, name: str) -> None:
    """Refuse a Schur complement of ``shape`` whose larger square Smith
    transform has more entries than ``cap``."""
    side = max(shape)
    check_cap(f"the {side} x {side} Smith transform of the {shape[0]} x "
              f"{shape[1]} Schur complement of {name}", side * side, "entries",
              cap)


def _peeled_entries(shape: tuple[int, int], r: np.ndarray, c: np.ndarray,
                    v: np.ndarray, cap: int, name: str) -> tuple[int, np.ndarray]:
    """The number p of unit pivots peeled from the matrix with entries
    (r, c, v) and the Schur complement S left, with its zero rows and
    columns dropped.  Each round peels the tall side, the swapped entries
    when a matrix has fewer rows than columns (its transpose, whose Smith
    form is the same), and goes on with the entries of its S, until a round
    pairs no pivot.  Only then is S checked against ``cap`` for its Smith
    transforms (``_check_transform``) and made dense."""
    pivots = solved = 0
    while True:
        if shape[0] < shape[1]:
            shape, r, c = shape[::-1], c, r
        rows, cols = _peel(shape, r, c, v)
        shape, r, c, v, solved = _schur(
            shape, r, c, v, np.array(rows, dtype=np.intp),
            np.array(cols, dtype=np.intp), cap, name, solved)
        pivots += len(rows)
        if not rows:
            break
    _check_transform(shape, cap, name)
    s = np.zeros(shape, dtype=object)
    s[r, c] = v
    return pivots, s


def _signed_graph_entries(tables: list[FacetTable], k: int, cap: int,
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
    induce the same sign on it (``FacetTable.agreeing``).  Switched by the signs, the forest, rooted
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
    half, unbalanced = np.zeros((2, count), dtype=bool)
    half[label[(table.neighbor < 0).any(axis=1)]] = True
    unbalanced[label[table.agreeing(sign).any(axis=1)]] = True
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
             max_entries: int = DEFAULT_MAX_CELLS) -> list[HomologyGroup]:
    """Integral homology groups in dimensions 0..n.

    No boundary matrix is made.  A ∂_k that is a signed graph is reduced
    on a spanning forest of it, read off the facet table of the k-faces,
    in arrays of the size of its entries; its S is diag(2, ..., 2), one 2
    per unbalanced component without a half-edge.  Every other ∂_k is
    peeled from its (k + 1) x |k-faces| entries, round by round, and only
    the last S is made dense, for its Smith form.  ``check_cap`` refuses,
    with CapExceededError, a ∂_k with more nonzero entries than
    ``max_entries``, from ∂_n down, each before the facet table of its
    k-faces is built, so a refusal builds no level below the refused one;
    the nonzeros of X, over the columns and rounds of a peeled ∂_k, or those
    of an S, as they are made; and the larger square Smith transform of S,
    before the diagonal S of a signed graph is made, and before any other
    S is made dense.
    ∂_(k-1) ∂_k = 0 is checked on the facet tables just before ∂_k is
    reduced, so a refusal skips the checks of the levels above it.
    """
    levels, faces = c.facet_levels(), len(c.tops)
    for k in range(c.n, 0, -1):
        check_cap(f"the boundary matrix ∂_{k} of the {faces} {k}-faces",
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
