import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from cyclecover.permutahedron import flag_template, mask_elements, proper_subsets
from cyclecover.pseudomanifold import validate_pseudomanifold
from extra_api import (
    barycentric_triangulation,
    chain_as_order,
    contained_faces,
    containing_faces,
    enumerate_faces,
    face_counts,
    facets_intersect,
    is_chain,
    mask_of,
    triangulation_flags,
    vertex_chains,
)


# ---------------------------------------------------------------------------
# oracles

@lru_cache(maxsize=None)
def stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def ordered_partition_count(n, blocks):
    """Chains of length k correspond to ordered set partitions of the n+1
    colors into k+1 nonempty blocks."""
    return math.factorial(blocks) * stirling2(n + 1, blocks)


def maximal_chain_count_oracle(n):
    """Count flags by dynamic programming over the face poset itself."""

    @lru_cache(maxsize=None)
    def paths_down(chain):
        finer = contained_faces(chain, n)
        if not finer:
            return 1
        return sum(paths_down(f) for f in finer)

    return paths_down(())


# ---------------------------------------------------------------------------
# subsets and intersection rule

def test_proper_subsets_order_n2():
    subsets = proper_subsets(2)
    assert [mask_elements(m) for m in subsets] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_proper_subset_count(n):
    assert len(proper_subsets(n)) == 2 ** (n + 1) - 2


def test_facets_intersect_iff_nested():
    assert facets_intersect(mask_of([1]), mask_of([1, 2]))
    assert facets_intersect(mask_of([1, 2]), mask_of([1]))
    assert not facets_intersect(mask_of([1]), mask_of([2, 3]))
    assert not facets_intersect(mask_of([1, 2]), mask_of([2, 3]))
    assert facets_intersect(mask_of([2]), mask_of([2]))


# ---------------------------------------------------------------------------
# face enumeration

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_counts_match_ordered_partitions(n):
    counts = face_counts(n)
    assert counts[0] == 1
    for k in range(1, n + 1):
        assert counts[k] == ordered_partition_count(n, k + 1)
    # vertices and facets in closed form
    assert counts[n] == math.factorial(n + 1)
    assert counts[1] == 2 ** (n + 1) - 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_euler_relation(n):
    # graded by dimension n - k the alternating sum is chi(ball) = 1
    counts = face_counts(n)
    assert sum((-1) ** (n - k) * counts[k] for k in range(n + 1)) == 1


def test_known_face_vectors():
    assert face_counts(2) == [1, 6, 6]
    assert face_counts(3) == [1, 14, 36, 24]


def test_every_enumerated_face_is_a_chain():
    for n in (2, 3):
        for k in range(n + 1):
            for chain in enumerate_faces(n, k):
                assert is_chain(chain)
                assert len(chain) == k


def test_contained_faces_of_a_facet():
    # facet {1} of the hexagon: the two vertices on it
    got = contained_faces((mask_of([1]),), 2)
    assert got == [(mask_of([1]), mask_of([1, 2])),
                   (mask_of([1]), mask_of([1, 3]))]


def test_containing_faces_are_subchains():
    chain = (mask_of([2]), mask_of([1, 2]))
    assert containing_faces(chain) == [(mask_of([1, 2]),), (mask_of([2]),)]


def test_codim_k_face_lies_in_exactly_k_facets():
    for n in (2, 3):
        for k in range(1, n + 1):
            for chain in enumerate_faces(n, k):
                facets = {c for c in _facets_above(chain)}
                assert len(facets) == k


def _facets_above(chain):
    # climb to codim 1 by dropping subsets in all orders
    stack, seen, facets = [chain], set(), set()
    while stack:
        c = stack.pop()
        if c in seen or not c:
            continue
        seen.add(c)
        if len(c) == 1:
            facets.add(c)
        stack.extend(containing_faces(c))
    return facets


# ---------------------------------------------------------------------------
# vertices as orderings

@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertices_are_orderings(n):
    chains = vertex_chains(n)
    orders = [chain_as_order(c, n) for c in chains]
    assert len(set(orders)) == math.factorial(n + 1)
    assert all(sorted(o) == list(range(1, n + 2)) for o in orders)


@pytest.mark.parametrize("n", [2, 3])
def test_edges_join_adjacent_transpositions(n):
    for edge in enumerate_faces(n, n - 1):
        ends = [c for c in contained_faces(edge, n) if len(c) == n]
        assert len(ends) == 2
        a, b = (chain_as_order(c, n) for c in ends)
        diff = [i for i in range(n + 1) if a[i] != b[i]]
        assert len(diff) == 2 and diff[1] == diff[0] + 1
        assert a[diff[0]] == b[diff[1]] and a[diff[1]] == b[diff[0]]


# ---------------------------------------------------------------------------
# barycentric triangulation of the cell

@pytest.mark.parametrize("n,vertices,tops", [
    (1, 3, 2),
    (2, 13, 12),
    (3, 75, 144),
])
def test_triangulation_counts(n, vertices, tops):
    complex_, chain_ids = barycentric_triangulation(n)
    assert complex_.num_vertices == vertices
    assert len(complex_.top_simplices) == tops
    assert len(chain_ids) == vertices
    assert len(complex_.top_simplices) == math.factorial(n) * math.factorial(n + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flag_count_matches_poset_oracle(n):
    assert len(triangulation_flags(n)) == maximal_chain_count_oracle(n)


def test_flags_grow_one_subset_at_a_time():
    for flag in triangulation_flags(3):
        assert flag[0] == ()
        for a, b in zip(flag, flag[1:]):
            assert len(b) == len(a) + 1
            assert set(a) < set(b)
            assert is_chain(b)


def test_triangulated_cell_is_a_ball():
    # every facet of the triangulated hexagon lies in 1 or 2 triangles and
    # the boundary facets are exactly those avoiding the center vertex
    complex_, chain_ids = barycentric_triangulation(2)
    center = chain_ids[()]
    report = validate_pseudomanifold(complex_)
    assert not report.overused_faces
    assert report.connected
    assert all(center not in f for f in report.boundary_faces)
    assert len(report.boundary_faces) == 12  # subdivided hexagon boundary


# ---------------------------------------------------------------------------
# the flag template in closed form against the searched flags

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flag_template_matches_the_searched_flags(n):
    got, want = flag_template(n), dict_oracle.flag_template(n)
    assert got.chains == want.chains
    for name in ("prefix", "last", "flags", "sign", "colors", "orders", "spells"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for a, b in zip(got.facets, want.facets):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_template_chain_is_its_prefix_and_last_subset(n):
    t = flag_template(n)
    subsets = proper_subsets(n)
    assert t.prefix[0] == t.last[0] == -1
    for r in range(1, len(t.chains)):
        assert t.chains[r] == t.chains[t.prefix[r]] + (subsets[t.last[r]],)


def test_facets_are_grouped_once_per_n(monkeypatch, tmp_path):
    # ``report`` reads the facets in ``template_is_closed`` and in
    # ``is_oriented``; both read one grouping, kept with the template
    from cyclecover import cli, permutahedron

    calls = []
    genuine = permutahedron.group_rows

    def counted(*args):
        calls.append(args)
        return genuine(*args)

    monkeypatch.setattr(permutahedron, "group_rows", counted)
    corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
    flag_template.cache_clear()
    try:
        for name in ["octahedron", "hexagon", "octahedron"]:  # n = 2, 1, 2
            assert cli.main(["report", "--input", str(corpus_dir / f"{name}.json"),
                             "--out", str(tmp_path / f"{name}.json")]) == 0
        assert len(calls) == 2
        t = flag_template(3)
        assert t.facets is t.facets
        assert len(calls) == 3
    finally:
        flag_template.cache_clear()
