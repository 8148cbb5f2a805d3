"""Tests for Smith normal form and integral homology.

The Smith reduction runs over Python integers and returns them, whatever
the input's dtype.  It is checked against exact rational-rank and
determinant oracles, by multiplying out its own transforms, and against the
entry by entry reduction in ``dict_oracle``, which must give the same D, U
and V on small entries, on inputs past 2^31 and where the reduction grows
entries past 2^31.  The unit-pivot reduction that ``homology`` runs gives
the rank and divisors of the full Smith form; its Schur complement is exact
over Python integers past 2^63, equals E - B X with X from the row-by-row
solve in ``dict_oracle``, and is peeled again while it holds a unit pivot;
its certificate rejects a tampered pivot block or solve, and its cap
counts the nonzeros of X and S as they are made.  Peeling the entries
read off the facet tables pairs the same pivots as the dense peel in
``dict_oracle``, on both sides of every boundary matrix, and the peel on
the tall side pairs as many as either side.  On
every signed-graph ∂_k of the corpus, its subdivisions, RP^2, the pinched
torus, the 7-vertex torus, M^2, M^3, complexes with boundary and a
disconnected one, the spanning-forest reduction gives the rank and
divisors that peeling does, and it declines every other ∂_k.
Boundary matrices equal the dict-built ones, ``homology`` equals the Smith
forms of the dense boundary matrices, a capped ``homology`` builds the
facet table of each face level once, and a refused one builds none below
the refused level; homology values are frozen for complexes whose groups
are classical, and a triangulated cover with c cell components has
H_0 = H_n = Z^c.
"""

import dataclasses
import importlib
import json
import math
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from extra_api import (benchmark_inputs, disjoint_union, pinched_torus, refusal,
                       sphere_join, suspended_cycle, torus7)
from cyclecover import corpus, formats
from cyclecover.cells import triangulate
from cyclecover.covering import build_component, build_full
from cyclecover.errors import DEFAULT_MAX_CELLS, CapExceededError, NonOrientableError
from cyclecover.homology import (
    HomologyGroup,
    _boundary_entries,
    _check_composite,
    _peel,
    _peeled_entries,
    _schur,
    _signed_graph_entries,
    betti_numbers,
    boundary_matrices,
    faces_by_dimension,
    fundamental_class,
    homology,
    smith_normal_form,
)
from cyclecover.pseudomanifold import (
    AbstractComplex,
    ColoredPseudomanifold,
    barycentric_subdivide,
    colored_from_complex,
    facet_table,
)
from cyclecover.tomei import build_tomei

homology_module = importlib.import_module("cyclecover.homology")
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# oracles

def rank_oracle(m) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in np.atleast_2d(m)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def det_oracle(m) -> int:
    """Leibniz determinant, for small matrices only."""
    k = len(m)
    total = 0
    for p in permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k)
                         if p[i] > p[j])
        term = (-1) ** inversions
        for i in range(k):
            term *= int(m[i][p[i]])
        total += term
    return total


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_literals():
    assert smith_normal_form([[2, 0], [0, 3]]).divisors == [1, 6]
    assert smith_normal_form([[2, 4], [6, 8]]).divisors == [2, 4]
    assert smith_normal_form([[6, 10, 15]]).divisors == [1]
    assert smith_normal_form([[4, 6], [6, 9]]).divisors == [1]
    zero = smith_normal_form(np.zeros((3, 4), dtype=int))
    assert zero.rank == 0 and zero.divisors == []
    assert smith_normal_form(np.eye(3, dtype=int)).divisors == [1, 1, 1]


def test_snf_shape_check():
    with pytest.raises(ValueError):
        smith_normal_form([1, 2, 3])


def test_snf_random_matrices_verified():
    rng = np.random.default_rng(0)
    cases = 0
    for _ in range(1000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 7)))
        m = rng.integers(-9, 10, size=shape)
        f = smith_normal_form(m)  # multiplies out U @ m @ V itself
        d = f.d
        for i in range(shape[0]):
            for j in range(shape[1]):
                if i != j:
                    assert d[i, j] == 0
        divisors = f.divisors
        assert all(x > 0 for x in divisors)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        assert f.rank == rank_oracle(m)
        cases += 1
    assert cases == 1000


def test_snf_transforms_are_unimodular():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        m = rng.integers(-6, 7, size=(k, k))
        f = smith_normal_form(m)
        assert abs(det_oracle(f.u)) == 1
        assert abs(det_oracle(f.v)) == 1
        # the determinant transforms by the units, so |det| is preserved
        assert abs(det_oracle(m)) == abs(math.prod(
            [f.d[i, i] for i in range(k)]))


def assert_same_as_oracle(m):
    f = smith_normal_form(m)
    d, u, v = dict_oracle.smith_normal_form(m)
    for got, want in ((f.d, d), (f.u, u), (f.v, v)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    return f


def largest_entry(f) -> int:
    return max(abs(x) for a in (f.d, f.u, f.v) for x in a.flat)


def test_snf_equals_oracle_dense_and_sparse():
    rng = np.random.default_rng(11)
    for trial in range(150):
        shape = tuple(int(x) for x in rng.integers(1, 9, size=2))
        m = rng.integers(-9, 10, size=shape)
        if trial % 2:
            m = m * (rng.random(shape) < 0.25)
        assert_same_as_oracle(m)


def test_snf_large_entries_take_the_object_path():
    rng = np.random.default_rng(12)
    for _ in range(20):
        shape = tuple(int(x) for x in rng.integers(1, 6, size=2))
        m = rng.integers(-2 ** 40, 2 ** 40, size=shape)
        m[0, 0] = 2 ** 31
        assert assert_same_as_oracle(m).d.dtype == object
    huge = [[2 ** 70, 3], [5, -(2 ** 65)]]
    assert assert_same_as_oracle(huge).d.dtype == object
    # abs(-2^63) wraps in int64; over Python integers it does not
    assert assert_same_as_oracle(
        np.array([[-2 ** 63, 1], [1, 0]], dtype=np.int64)).d.dtype == object


def test_snf_restarts_when_entries_grow_past_the_bound():
    # every entry starts below 2^31, but most of these end with an entry
    # of D, U or V past it, which int64 updates could have wrapped on the way
    rng = np.random.default_rng(13)
    grown = 0
    for _ in range(20):
        m = rng.integers(-2 ** 20, 2 ** 20, size=(6, 6))
        assert np.abs(m).max() < 2 ** 31
        grown += largest_entry(assert_same_as_oracle(m)) >= 2 ** 31
    assert grown >= 10
    # the reduction doubles the entry 2^31 - 1
    m = [[2, 0], [2 ** 31 - 1, 2 ** 31 - 1]]
    assert largest_entry(assert_same_as_oracle(m)) == 2 ** 32 - 2


def test_snf_divisors_are_python_ints():
    f = smith_normal_form(np.array([[2, 0], [0, 3]], dtype=np.int64))
    assert f.divisors == [1, 6]
    assert all(type(x) is int for x in f.divisors)
    assert type(f.rank) is int
    # D, U and V too, although the input is small int64
    for a in (f.d, f.u, f.v):
        assert a.dtype == object
        assert all(type(x) is int for x in a.flat)


def test_snf_rejects_a_wrong_factorization_or_divisor_chain(monkeypatch):
    reduce = homology_module._reduce

    def wrong_transform(a):
        d, u, v = reduce(a)
        u[0, 0] += 1
        return d, u, v

    monkeypatch.setattr(homology_module, "_reduce", wrong_transform)
    with pytest.raises(AssertionError, match="Smith transform verification failed"):
        smith_normal_form([[2, 0], [0, 3]])
    # diag(3, 2) is its own factorization, but 3 does not divide 2
    monkeypatch.setattr(homology_module, "_reduce", lambda a: (
        a, np.eye(2, dtype=object), np.eye(2, dtype=object)))
    with pytest.raises(AssertionError, match="Smith divisibility chain broken"):
        smith_normal_form([[3, 0], [0, 2]])


# ---------------------------------------------------------------------------
# boundary matrices

def oracle_complexes():
    out = {path.stem: formats.load_complex(path)[0]
           for path in sorted(CORPUS_DIR.glob("*.json"))}
    out.update({
        "sd rp2": barycentric_subdivide(corpus.rp2_minimal()).complex,
        "disjoint circles": corpus.disjoint_circles(),
        "two triangles": corpus.two_triangles(),
        "tomei 1": triangulate(build_tomei(1)).complex,
        "tomei 2": triangulate(build_tomei(2)).complex,
        "octahedron cover component": triangulate(build_component(
            ColoredPseudomanifold(*corpus.octahedron())).pc).complex,
    })
    return out


ORACLE_COMPLEXES = oracle_complexes()


@pytest.mark.parametrize("c", ORACLE_COMPLEXES.values(), ids=ORACLE_COMPLEXES.keys())
def test_boundary_matrices_equal_oracle(c):
    faces = faces_by_dimension(c)
    assert [list(map(tuple, level.tolist())) for level in faces] \
        == dict_oracle.faces_by_dimension(c)
    mats = boundary_matrices(c)
    want = dict_oracle.boundary_matrices(c)
    assert len(mats) == len(want)
    for got, expected in zip(mats, want):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_boundary_composite_vanishes_across_corpus():
    complexes = [
        corpus.octahedron()[0],
        corpus.hexagon_cycle()[0],
        barycentric_subdivide(corpus.rp2_minimal()).complex,
        triangulate(build_tomei(2)).complex,
        barycentric_subdivide(corpus.boundary_delta(3)).complex,
    ]
    entries = 0
    for c in complexes:
        mats = boundary_matrices(c)  # raises if a composite is nonzero
        for k in range(2, c.n + 1):
            composite = mats[k - 1] @ mats[k]
            assert not np.count_nonzero(composite)
            entries += composite.size
    assert entries >= 1000


def test_boundary_composite_check_rejects_swapped_facets():
    tables = triangulate(build_tomei(3)).complex.facet_tables
    for k in (2, 3):
        lower, upper = tables[k - 2], tables[k - 1]
        _check_composite(lower, upper, k)
        facet = upper.facet.copy()
        facet[5, [0, 1]] = facet[5, [1, 0]]
        with pytest.raises(AssertionError,
                           match=f"boundary composite at dimension {k} is nonzero"):
            _check_composite(lower, dataclasses.replace(upper, facet=facet), k)


def spy_on_facet_tables(monkeypatch) -> list[tuple[int, int]]:
    """The shapes of the top simplices of every facet table built from now
    on, in the order built."""
    built = []

    def spy(tops, num_vertices):
        built.append(tops.shape)
        return facet_table(tops, num_vertices)

    for name, module in list(sys.modules.items()):
        if name.startswith("cyclecover") and \
                getattr(module, "facet_table", None) is facet_table:
            monkeypatch.setattr(module, "facet_table", spy)
    return built


def test_capped_homology_builds_each_face_level_once(monkeypatch):
    # the cap checks and the entries that homology reduces all read the
    # complex's facet tables: on the octahedron cover triangulation (n = 2)
    # one table of 192 triangles and one of 288 edges
    cover = triangulate(build_component(
        ColoredPseudomanifold(*corpus.octahedron())).pc).complex
    c = AbstractComplex(cover.n, cover.num_vertices, cover.tops)
    built = spy_on_facet_tables(monkeypatch)
    assert homology(c, max_entries=10 ** 6) == [
        HomologyGroup(1, []), HomologyGroup(10, []), HomologyGroup(1, [])]
    assert built == [(192, 3), (288, 2)]
    assert c.facet_tables[-1] is c.facet_table


def test_refused_homology_builds_no_face_level_below_the_refused_one(monkeypatch):
    # ∂Δ20 has C(21, k + 1) k-faces, and ∂_k has k + 1 nonzero entries in
    # each column.  From ∂_19 down, ∂_13 is the first over 10^6 entries,
    # 14 x 116280, so the tables of the 19- to 14-faces are built and the
    # 116280 13-faces are counted, but never get a table of their own
    c = corpus.boundary_delta(20)
    built = spy_on_facet_tables(monkeypatch)
    with pytest.raises(CapExceededError, match=(
            "^the boundary matrix ∂_13 of the 116280 13-faces has 1627920 "
            "nonzero entries, more than the cap 1000000$")) as e:
        homology(c, max_entries=10 ** 6)
    assert refusal(e.value) == (10 ** 6, 1627920)
    assert built == [(math.comb(21, k + 1), k + 1) for k in range(19, 13, -1)]


def test_homology_without_a_cap_argument_refuses_at_the_default_cap():
    # homology has no unbounded mode: its default cap is the command
    # line's, so ∂Δ20 is refused on the same ∂_13 as at max_entries=10^6
    with pytest.raises(CapExceededError) as default:
        homology(corpus.boundary_delta(20))
    with pytest.raises(CapExceededError) as explicit:
        homology(corpus.boundary_delta(20), max_entries=10 ** 6)
    assert str(default.value) == str(explicit.value)
    assert refusal(default.value) == refusal(explicit.value) == (10 ** 6, 1627920)


@pytest.mark.parametrize("c", ORACLE_COMPLEXES.values(), ids=ORACLE_COMPLEXES.keys())
def test_homology_equals_smith_form_of_dense_boundaries(c):
    # no peeling: ranks and torsion off the Smith form of each dense ∂_k
    forms = [smith_normal_form(m) for m in boundary_matrices(c)]
    forms.append(smith_normal_form(np.zeros((len(c.facet_table.tops), 0),
                                            dtype=np.int64)))
    assert homology(c) == [
        HomologyGroup(forms[k].d.shape[1] - forms[k].rank - forms[k + 1].rank,
                      [d for d in forms[k + 1].divisors if d > 1])
        for k in range(c.n + 1)]


def test_boundary_matrix_shapes():
    c = corpus.octahedron()[0]
    faces = faces_by_dimension(c)
    assert [len(level) for level in faces] == [6, 12, 8]
    mats = boundary_matrices(c)
    assert mats[1].shape == (6, 12)
    assert mats[2].shape == (12, 8)
    # each edge has one positive and one negative endpoint
    col_sums = {tuple(sorted(mats[1][:, j].tolist())) for j in range(12)}
    assert col_sums == {(-1,) + (0,) * 4 + (1,)}


# ---------------------------------------------------------------------------
# unit-pivot reduction

def entries(m):
    """The shape and nonzero entries (row, column, value) of the dense
    matrix m, row by row, with the values as Python integers."""
    m = np.array(m, dtype=object)
    r, c = np.nonzero(m)
    return m.shape, r, c, m[r, c]


def schur(m, rows, cols, cap=DEFAULT_MAX_CELLS, solved=0):
    """``_schur`` of the pivot block m[rows, cols] of the dense matrix m, its
    entries made dense: S on its nonzero rows and columns."""
    shape, r, c, v, _ = _schur(*entries(m), np.array(rows, dtype=np.intp),
                               np.array(cols, dtype=np.intp), cap,
                               "the matrix", solved)
    s = np.zeros(shape, dtype=object)
    s[r, c] = v
    return s


def assert_reduction_matches(m):
    """The rank and divisors of m as ``homology`` reads them, off the p
    peeled pivots and the Smith form of the Schur complement S, against the
    Smith form of m itself; returns p and the Smith form of S."""
    pivots, s = _peeled_entries(*entries(m), DEFAULT_MAX_CELLS, "the matrix")
    got, want = smith_normal_form(s), smith_normal_form(m)
    assert pivots + got.rank == want.rank
    assert [1] * pivots + got.divisors == want.divisors
    return pivots, got


@pytest.mark.parametrize("c", ORACLE_COMPLEXES.values(), ids=ORACLE_COMPLEXES.keys())
def test_reduction_equals_smith_form_on_boundary_matrices(c):
    for m in boundary_matrices(c):
        assert_reduction_matches(m)


def planted_unit_pivots(rng):
    """A sparse random matrix [[P, A], [B, E]] with P lower triangular with
    a ±1 diagonal, its rows and columns shuffled."""
    p, extra_rows, extra_cols = (int(x) for x in rng.integers(0, 7, size=3))
    rows, cols = p + extra_rows, p + extra_cols
    m = rng.integers(-4, 5, size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
    m[:p, :p] = np.tril(m[:p, :p], -1)
    m[np.arange(p), np.arange(p)] = rng.choice([-1, 1], size=p)
    return m[rng.permutation(rows)][:, rng.permutation(cols)]


def test_reduction_on_planted_unit_pivots():
    rng = np.random.default_rng(14)
    pivots = 0
    for _ in range(300):
        m = planted_unit_pivots(rng)
        rows, cols = _peel(*entries(m))
        block = m[np.ix_(rows, cols)]
        assert np.array_equal(block, np.tril(block))
        assert set(np.abs(np.diagonal(block)).tolist()) <= {1}
        pivots += assert_reduction_matches(m)[0]
    assert pivots >= 500


@pytest.mark.parametrize("c", ORACLE_COMPLEXES.values(), ids=ORACLE_COMPLEXES.keys())
def test_entry_peel_equals_dense_peel(c):
    # the entries homology peels, read off the facet tables, and their
    # swap pair the same pivots as the dense peel of ∂_k and of its transpose
    for k, m in enumerate(boundary_matrices(c)):
        shape, r, col, v = _boundary_entries(c.facet_tables, k)
        assert _peel(shape, r, col, v) == dict_oracle.unit_pivots(m)
        assert _peel(shape[::-1], col, r, v) == dict_oracle.unit_pivots(m.T)
        assert _peel(*entries(m)) == dict_oracle.unit_pivots(m)


def shape_rule_complexes():
    """The oracle complexes, M^3, and the benchmark's octahedron cover as
    ``cover --cells-out`` triangulates it at seeds 0-2."""
    out = dict(ORACLE_COMPLEXES)
    out["tomei 3"] = triangulate(build_tomei(3)).complex
    inputs = benchmark_inputs()
    for seed in range(3):
        doc = json.loads(inputs.seeded_document("octahedron",
                                                inputs.octahedron(), seed))
        cp, _ = colored_from_complex(*formats.complex_from_dict(doc))
        out[f"benchmark octahedron cover {seed}"] = triangulate(
            build_component(cp).pc).complex
    return out


SHAPE_RULE_COMPLEXES = shape_rule_complexes()


@pytest.mark.parametrize("c", SHAPE_RULE_COMPLEXES.values(),
                         ids=SHAPE_RULE_COMPLEXES.keys())
def test_tall_side_peels_as_many_pivots_as_either_side(c):
    # _peeled_entries peels each ∂_k once, read with at least as many rows as
    # columns; it pairs as many pivots as peeling both sides and keeping
    # the one with more did.  Where the sides tie on a wide ∂_k (∂_1 of
    # most corpus complexes: one pivot short of the vertices each way), the
    # blocks beside the pivots are read on the transpose, and hold fewer
    # entries than the wide side's
    for k in range(c.n + 1):
        shape, r, col, v = _boundary_entries(c.facet_tables, k)
        pivots = len(_peel(shape, r, col, v)[0])
        t_pivots = len(_peel(shape[::-1], col, r, v)[0])
        p, _ = _peeled_entries(shape, r, col, v, DEFAULT_MAX_CELLS, f"∂_{k}")
        assert p == max(pivots, t_pivots)
        kept = shape[::-1] if t_pivots > pivots else shape
        assert max(shape) * (min(shape) - p) <= kept[0] * (kept[1] - p)


def moebius_band() -> AbstractComplex:
    """The 5-vertex Möbius band: triangles {i, i+1, i+2} mod 5, whose
    edges {i, i+2} are its boundary."""
    return AbstractComplex(2, 5, [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])


def signed_graph_complexes():
    """The oracle complexes (RP^2 among them), the subdivided corpus, the
    pinched torus, the 7-vertex torus, M^3, complexes with boundary, and
    RP^2, the Möbius band and the octahedron side by side."""
    out = dict(ORACLE_COMPLEXES)
    for path in sorted(CORPUS_DIR.glob("*.json")):
        out[f"sd {path.stem}"] = barycentric_subdivide(
            formats.load_complex(path)[0]).complex
    out.update({
        "pinched torus": pinched_torus(),
        "torus7": torus7(),
        "tomei 3": triangulate(build_tomei(3)).complex,
        "moebius band": moebius_band(),
        "hexagon disk": AbstractComplex(2, 7, [(i, (i + 1) % 6, 6) for i in range(6)]),
        "tetrahedron": AbstractComplex(3, 4, [(0, 1, 2, 3)]),
        "rp2, moebius band and octahedron": disjoint_union(
            corpus.rp2_minimal(), moebius_band(), corpus.octahedron()[0]),
    })
    return out


SIGNED_GRAPH_COMPLEXES = signed_graph_complexes()


@pytest.mark.parametrize("c", SIGNED_GRAPH_COMPLEXES.values(),
                         ids=SIGNED_GRAPH_COMPLEXES.keys())
def test_forest_reduction_equals_peeling_on_signed_graphs(c):
    # a ∂_k with at most two nonzeros in every column, or in every row, is
    # reduced on a spanning forest; it has the rank and divisors that
    # peeling it and the Smith form of its Schur complement give
    for k, m in enumerate(boundary_matrices(c)):
        got = _signed_graph_entries(c.facet_tables, k, DEFAULT_MAX_CELLS, f"∂_{k}")
        assert (got is not None) == ((np.count_nonzero(m, axis=0) <= 2).all()
                                     or (np.count_nonzero(m, axis=1) <= 2).all())
        if got is None:
            continue
        p, s = got
        want_p, want_s = _peeled_entries(*_boundary_entries(c.facet_tables, k),
                                         DEFAULT_MAX_CELLS, f"∂_{k}")
        form, want = smith_normal_form(s), smith_normal_form(want_s)
        assert p + form.rank == want_p + want.rank
        assert [1] * p + form.divisors == [1] * want_p + want.divisors


def test_forest_reduction_reads_the_components():
    # (complex, k): the pivots p, one per node less one per component
    # without a half-edge, and a 2 per unbalanced such component
    cases = {
        "octahedron": (2, 7, []),
        "rp2_minimal": (2, 9, [2]),
        "moebius band": (2, 5, []),
        "hexagon disk": (2, 6, []),
        "rp2, moebius band and octahedron": (2, 21, [2]),
        "disjoint circles": (1, 10, []),
        "tetrahedron": (3, 1, []),
    }
    for name, (k, pivots, twos) in cases.items():
        tables = SIGNED_GRAPH_COMPLEXES[name].facet_tables
        p, s = _signed_graph_entries(tables, k, DEFAULT_MAX_CELLS, f"∂_{k}")
        assert (p, s.tolist()) == (pivots, np.diag(twos).tolist()), name
    # a ∂_k that is no signed graph is peeled: an edge in three triangles,
    # and M^3's ∂_2, whose edges lie in 4 to 12 triangles; M^3's ∂_1 and
    # ∂_3 are signed graphs
    branching = AbstractComplex(2, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert _signed_graph_entries(branching.facet_tables, 2, DEFAULT_MAX_CELLS, "∂_2") is None
    m3 = SIGNED_GRAPH_COMPLEXES["tomei 3"].facet_tables
    assert [_signed_graph_entries(m3, k, DEFAULT_MAX_CELLS, f"∂_{k}") is None
            for k in range(4)] == [False, False, True, False]


def dense_schur(m, rows, cols):
    """The oracle S = E - B X for the pivot block P = m[rows, cols] of the
    dense matrix m, with X = P^-1 A from ``dict_oracle.forward_substitute``,
    on the nonzero rows and columns of S."""
    m = np.asarray(m)
    block = m[np.ix_(rows, cols)]
    row, col = np.nonzero(np.tril(block, -1))
    other_rows = np.setdiff1d(np.arange(m.shape[0]), rows)
    other_cols = np.setdiff1d(np.arange(m.shape[1]), cols)
    x = dict_oracle.forward_substitute(row, col, block[row, col],
                                       np.diagonal(block).copy(),
                                       m[np.ix_(rows, other_cols)])
    s = (m[np.ix_(other_rows, other_cols)].astype(object)
         - m[np.ix_(other_rows, cols)].astype(object) @ x.astype(object))
    return s[np.ix_(np.count_nonzero(s, axis=1) > 0,
                    np.count_nonzero(s, axis=0) > 0)]


def assert_schur_matches(m, rows, cols):
    got, want = schur(m, rows, cols), dense_schur(m, rows, cols)
    assert got.shape == want.shape and got.tolist() == want.tolist()
    return got


def test_column_solve_equals_dense_schur_complement():
    rng = np.random.default_rng(15)
    made = 0
    for _ in range(300):
        m = planted_unit_pivots(rng)
        rows, cols = _peel(*entries(m))
        made += assert_schur_matches(m, rows, cols).size
    assert made >= 1000


def test_column_solve_on_wide_levels():
    # 4 levels of 30 pivot rows: each row reads up to 4 rows of the levels
    # below, beside 5 columns of A and 3 rows of B
    rng = np.random.default_rng(16)
    width, depth, q, extra = 30, 4, 5, 3
    p = width * depth
    m = np.zeros((p + extra, p + q), dtype=np.int64)
    for i in range(width, p):
        below = i // width * width
        for j in rng.choice(below, size=min(4, below), replace=False):
            m[i, j] = rng.choice([-3, -2, -1, 1, 2, 3])
    m[np.arange(p), np.arange(p)] = rng.choice([-1, 1], size=p)
    m[:p, p:] = rng.integers(-5, 6, size=(p, q))
    m[p:] = rng.integers(-2, 3, size=(extra, p + q)) * (
        rng.random((extra, p + q)) < 0.2)
    s = assert_schur_matches(m, range(p), range(p))
    assert s.shape == (extra, q)


def test_column_solve_past_2_63():
    # the pivot blocks of the three tests whose Schur complements pass 2^63
    k = 2 ** 30
    chain = np.array([[1, 0, 0, k], [k, 1, 0, 0], [0, k, 1, 0], [0, 0, 1, 0]])
    assert_schur_matches(chain, [0, 1, 2], [0, 1, 2])
    big = np.array([[2 ** 40, 1], [3, 2 ** 40]])
    assert_schur_matches(big, [0], [1])
    p = 7
    m = np.zeros((p + 1, p + 3), dtype=np.int64)
    m[np.arange(p), np.arange(p)] = [1, -1, 1, 1, -1, 1, -1]
    m[np.arange(1, p), np.arange(p - 1)] = -2 ** 20
    m[:p, p:] = np.random.default_rng(5).integers(1, 4, size=(p, 3))
    m[p, p - 1] = 1
    s = assert_schur_matches(m, range(p), range(p))
    assert s.dtype == object and max(abs(v) for v in s.flat) > 2 ** 120


def test_reduction_schur_complement_past_2_31_is_exact():
    k = 2 ** 20
    m = np.array([[k, 1], [3, k]])
    pivots, got = assert_reduction_matches(m)
    assert pivots == 1
    assert got.d.dtype == object
    assert [1] * pivots + got.divisors == [1, k * k - 3]


def test_schur_complement_is_exact_past_2_63():
    k = 2 ** 30
    # X grows to k^3 in the solve, past what int64 can hold
    m = np.array([[1, 0, 0, k], [k, 1, 0, 0], [0, k, 1, 0], [0, 0, 1, 0]])
    s = schur(m, [0, 1, 2], [0, 1, 2])
    assert s.dtype == object and s.tolist() == [[-k ** 3]]
    assert_reduction_matches(m)
    # input entries past 2^31 whose product passes 2^63
    big = np.array([[2 ** 40, 1], [3, 2 ** 40]])
    assert schur(big, [0], [1]).tolist() == [[3 - 2 ** 80]]
    pivots, got = assert_reduction_matches(big)
    assert [1] * pivots + got.divisors == [1, 2 ** 80 - 3]


def test_schur_complement_is_exact_on_a_solve_that_grows_past_2_63():
    # P has a ±1 diagonal and -2^20 below it, so each row of X is about
    # 2^20 times the last: X passes 2^63 at row 4 and S passes 2^120
    p, k = 7, 2 ** 20
    rng = np.random.default_rng(5)
    m = np.zeros((p + 2, p + 3), dtype=np.int64)
    m[np.arange(p), np.arange(p)] = [1, -1, 1, 1, -1, 1, -1]
    m[np.arange(1, p), np.arange(p - 1)] = -k
    m[:p, p:] = rng.integers(1, 4, size=(p, 3))
    m[p:] = rng.integers(-3, 4, size=(2, p + 3))
    # the exact oracle: X = P^-1 A row by row and S = E - B X
    e = m.tolist()
    x = []
    for i in range(p):
        x.append([e[i][i] * (e[i][p + c] - sum(e[i][j] * x[j][c] for j in range(i)))
                  for c in range(3)])
    want = [[e[r][p + c] - sum(e[r][j] * x[j][c] for j in range(p))
             for c in range(3)] for r in (p, p + 1)]
    assert max(abs(v) for row in want for v in row) > 2 ** 120
    s = schur(m, range(p), range(p))
    assert s.dtype == object and s.tolist() == want
    assert_reduction_matches(m)


def test_schur_complement_rejects_a_pivot_block_that_is_not_triangular():
    m = boundary_matrices(corpus.octahedron()[0])[2]
    rows, cols = _peel(*entries(m))
    assert len(rows) == 7
    schur(m, rows, cols)
    with pytest.raises(AssertionError, match="not lower triangular"):
        schur(m, rows[::-1], cols[::-1])
    with pytest.raises(AssertionError, match="diagonal entry other than"):
        schur(np.array([[2, 1]]), [0], [0])
    with pytest.raises(AssertionError, match="repeat"):
        schur(m, rows[:1] * 2, cols[:2])


def test_schur_complement_rejects_a_wrong_solve(monkeypatch):
    m = boundary_matrices(corpus.octahedron()[0])[2]
    rows, cols = _peel(*entries(m))
    solve = homology_module._solve_column
    monkeypatch.setattr(homology_module, "_solve_column", lambda *args: {
        k: x_k + 1 for k, x_k in solve(*args).items()})
    with pytest.raises(AssertionError, match="P X != A"):
        schur(m, rows, cols)


def test_schur_complement_is_peeled_again_while_it_holds_a_unit_pivot():
    # one peel pairs row 0 with column 1 and leaves S = [[-1, 0], [0, 3]],
    # whose -1 a second round pairs: p counts the pivots of both rounds
    m = np.array([[1, 1, 0], [1, 2, 0], [0, 0, 3]])
    rows, cols = _peel(*entries(m))
    assert (rows, cols) == ([0], [1])
    assert schur(m, rows, cols).tolist() == [[-1, 0], [0, 3]]
    pivots, got = assert_reduction_matches(m)
    assert (pivots, got.divisors) == (2, [3])


def test_schur_complement_caps_the_nonzeros_of_x_and_s():
    # three unit pivots beside a column of ones: X is that column, and S
    # is empty
    m = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert schur(m, range(3), range(3), cap=3).size == 0
    with pytest.raises(CapExceededError, match=(
            "^X = P\\^-1 A beside the 3 unit pivots of the matrix has 3 "
            "nonzero entries so far, more than the cap 2$")) as e:
        schur(m, range(3), range(3), cap=2)
    assert refusal(e.value) == (2, 3)
    # a pivot 1 beside a row and a column of q ones: X has q nonzeros, one
    # per column, and S = -(ones) has q^2; each cap counts as they are made
    q = 3
    m = np.ones((q + 1, q + 1), dtype=np.int64)
    m[1:, 1:] = 0
    assert schur(m, [0], [0], cap=q * q).tolist() == [[-1] * q] * q
    with pytest.raises(CapExceededError, match=(
            "^the Schur complement of the matrix beside the 1 unit pivots has "
            "6 nonzero entries so far, more than the cap 5$")) as e:
        schur(m, [0], [0], cap=5)
    assert refusal(e.value) == (5, 6)
    # X's nonzeros of earlier rounds count towards the cap
    schur(m, [0], [0], cap=9, solved=6)
    with pytest.raises(CapExceededError, match="has 10 nonzero entries so far") as e:
        schur(m, [0], [0], cap=9, solved=7)
    assert refusal(e.value) == (9, 10)
    # peeling this matrix makes 4 nonzeros of X in its first round, beside
    # an S of 3, and 1 in its second, beside the 1 unit pivot of that S
    m = np.array([[2, -1, 0, 1], [0, 2, 0, 0], [0, 0, 2, -1], [0, 0, 1, -1]])
    pivots, s = _peeled_entries(*entries(m), 5, "the matrix")
    assert (pivots, s.tolist()) == (3, [[4]])
    with pytest.raises(CapExceededError, match=(
            "^X = P\\^-1 A beside the 1 unit pivots of the matrix has 5 "
            "nonzero entries so far, more than the cap 4$")) as e:
        _peeled_entries(*entries(m), 4, "the matrix")
    assert refusal(e.value) == (4, 5)


# ---------------------------------------------------------------------------
# homology groups

def test_homology_spheres_and_circle():
    assert homology(corpus.octahedron()[0]) == [
        HomologyGroup(1, []), HomologyGroup(0, []), HomologyGroup(1, [])]
    assert betti_numbers(corpus.hexagon_cycle()[0]) == [1, 1]
    sd3 = barycentric_subdivide(corpus.boundary_delta(3)).complex
    assert betti_numbers(sd3) == [1, 0, 1]


def test_homology_tomei_surface():
    m2 = triangulate(build_tomei(2)).complex
    groups = homology(m2)
    assert groups == [
        HomologyGroup(1, []), HomologyGroup(4, []), HomologyGroup(1, [])]
    m1 = triangulate(build_tomei(1)).complex
    assert betti_numbers(m1) == [1, 1]


def test_homology_tomei_three_fold():
    m3 = triangulate(build_tomei(3)).complex
    assert homology(m3) == [HomologyGroup(1, []), HomologyGroup(11, []),
                            HomologyGroup(11, []), HomologyGroup(1, [])]


def test_homology_projective_plane_torsion():
    sd = barycentric_subdivide(corpus.rp2_minimal()).complex
    groups = homology(sd)
    assert groups[0] == HomologyGroup(1, [])
    assert groups[1] == HomologyGroup(0, [2])
    assert groups[2] == HomologyGroup(0, [])


def test_homology_counts_components():
    assert betti_numbers(corpus.disjoint_circles()) == [2, 2]


# covers, each with its number c of cell components: the full set of the
# octahedron, and the components of the benchmark's verify inputs, the
# hexagon and the join C4*C4
TRIANGULATED_COVERS = {
    "octahedron full": (lambda: build_full(ColoredPseudomanifold(*corpus.octahedron())),
                        64),
    "octahedron": (lambda: build_component(ColoredPseudomanifold(*corpus.octahedron())),
                   1),
    "sd(boundary delta3)": (lambda: build_component(
        colored_from_complex(corpus.boundary_delta(3))[0]), 1),
    "sd(suspended 10-cycle)": (lambda: build_component(
        colored_from_complex(suspended_cycle(5))[0]), 1),
    "hexagon": (lambda: build_component(ColoredPseudomanifold(*corpus.hexagon_cycle())),
                1),
    "C4*C4": (lambda: build_component(sphere_join(4, 4)), 1),
}


@pytest.mark.parametrize("name", list(TRIANGULATED_COVERS))
def test_triangulated_cover_has_a_fundamental_class_per_component(name):
    # a closed oriented n-manifold with c components has H_0 = H_n = Z^c,
    # read off the triangulation alone, apart from the certificate
    build, c = TRIANGULATED_COVERS[name]
    groups = homology(triangulate(build().pc).complex)
    assert groups[0] == groups[-1] == HomologyGroup(c, [])


def test_homology_cover_component_genus_five():
    cp = ColoredPseudomanifold(*corpus.octahedron())
    k = triangulate(build_component(cp).pc).complex
    groups = homology(k)
    assert groups == [
        HomologyGroup(1, []), HomologyGroup(10, []), HomologyGroup(1, [])]


def test_homology_group_formatting():
    assert str(HomologyGroup(2, [2, 4])) == "Z + Z + Z/2 + Z/4"
    assert str(HomologyGroup(0, [])) == "0"
    assert str(HomologyGroup(1, [])) == "Z"


# ---------------------------------------------------------------------------
# fundamental classes

def test_fundamental_class_surface():
    m2 = triangulate(build_tomei(2)).complex
    z = fundamental_class(m2)
    assert set(z.tolist()) == {1, -1}
    assert len(z) == 48


def test_fundamental_class_rejects_nonorientable():
    sd = barycentric_subdivide(corpus.rp2_minimal()).complex
    with pytest.raises(NonOrientableError):
        fundamental_class(sd)


def test_fundamental_class_rejects_a_chain_with_boundary():
    c = corpus.octahedron()[0]
    signs = fundamental_class(c).tolist()
    with pytest.raises(AssertionError, match="nonzero boundary"):
        fundamental_class(c, [1] * len(signs))
    assert fundamental_class(c, signs).tolist() == signs


def test_fundamental_class_rejects_boundary():
    c = corpus.two_triangles()
    with pytest.raises(ValueError):
        fundamental_class(c)
