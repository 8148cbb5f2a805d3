from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import dict_oracle
from dict_oracle import compatible
from extra_api import mask_of, suspended_cycle
from cyclecover.corpus import boundary_delta, hexagon_cycle, octahedron
from cyclecover.involutions import (
    _stars,
    canonical_involution,
    count_compatible_involutions,
    enumerate_compatible_involutions,
    extend_to_facet_colors,
    is_compatible_involution,
)
from cyclecover.permutahedron import proper_subsets
from cyclecover.pseudomanifold import ColoredPseudomanifold, colored_from_complex


class CompatibilityGraph(NamedTuple):
    """Bipartite graph of compatible opposite-part pairs for one subset."""

    plus: list[int]
    minus: list[int]
    adjacency: list[list[int]]  # per plus position, positions into minus


def compatibility_graph(cp, subset: int) -> CompatibilityGraph:
    adjacency = [[m for m, j in enumerate(cp.minus) if compatible(cp, i, j, subset)]
                 for i in cp.plus]
    return CompatibilityGraph(list(cp.plus), list(cp.minus), adjacency)


def matching_oracle(cp, subset: int) -> list[tuple[int, ...]]:
    """Every compatible involution, found as a perfect matching of the
    compatibility graph by exhaustive backtracking, in lexicographic order
    of ``minus position per plus position``."""
    graph = compatibility_graph(cp, subset)
    k = len(graph.plus)
    if len(graph.minus) != k:
        return []
    found = []
    choice = [-1] * k
    used = [False] * k

    def backtrack(p: int):
        if p == k:
            perm = [-1] * cp.top_count
            for i, m in zip(graph.plus, choice):
                perm[i], perm[graph.minus[m]] = graph.minus[m], i
            found.append(tuple(perm))
            return
        for m in graph.adjacency[p]:
            if not used[m]:
                used[m] = True
                choice[p] = m
                backtrack(p + 1)
                used[m] = False

    backtrack(0)
    return found


def permanent_oracle(graph):
    """Perfect matching count via the permanent, by subset DP."""
    k = len(graph.plus)
    rows = [0] * k
    for p, nbrs in enumerate(graph.adjacency):
        for m in nbrs:
            rows[p] |= 1 << m

    @lru_cache(maxsize=None)
    def count(p, used):
        if p == k:
            return 1
        total = 0
        free = rows[p] & ~used
        while free:
            bit = free & -free
            total += count(p + 1, used | bit)
            free ^= bit
        return total

    return count(0, 0)


@pytest.fixture(scope="module")
def hexagon_cp():
    return ColoredPseudomanifold(*hexagon_cycle())


@pytest.fixture(scope="module")
def octa_cp():
    return ColoredPseudomanifold(*octahedron())


# ---------------------------------------------------------------------------
# compatibility relation

def test_hexagon_each_edge_has_one_compatible_partner(hexagon_cp):
    cp = hexagon_cp
    for subset in proper_subsets(1):
        for i in cp.plus:
            partners = [j for j in cp.minus if compatible(cp, i, j, subset)]
            assert len(partners) == 1
        # the full cross-part relation: exactly one hit per row of the 3x3 table
        table = [[compatible(cp, i, j, subset) for j in cp.minus] for i in cp.plus]
        assert sum(map(sum, table)) == 3


def test_compatible_is_reflexive_and_symmetric(octa_cp):
    cp = octa_cp
    for subset in proper_subsets(2):
        for i in range(cp.top_count):
            assert compatible(cp, i, i, subset)
            for j in range(cp.top_count):
                assert compatible(cp, i, j, subset) == compatible(cp, j, i, subset)


# ---------------------------------------------------------------------------
# canonical involutions

def test_extend_to_facet_colors():
    assert extend_to_facet_colors(mask_of([2]), 2) == mask_of([1, 2])
    assert extend_to_facet_colors(mask_of([3]), 2) == mask_of([1, 3])
    assert extend_to_facet_colors(mask_of([1, 3]), 2) == mask_of([1, 3])
    assert extend_to_facet_colors(mask_of([3]), 3) == mask_of([1, 2, 3])
    assert extend_to_facet_colors(mask_of([2, 4]), 3) == mask_of([1, 2, 4])
    with pytest.raises(ValueError):
        extend_to_facet_colors(0, 2)


@pytest.mark.parametrize("builder", [hexagon_cycle, octahedron])
def test_canonical_involution_is_compatible(builder):
    cp = ColoredPseudomanifold(*builder())
    for subset in proper_subsets(cp.n):
        lam = canonical_involution(cp, subset)
        assert is_compatible_involution(cp, lam, subset)


def test_canonical_involution_on_subdivided_sphere():
    cp, _ = colored_from_complex(boundary_delta(3))
    for subset in proper_subsets(2):
        lam = canonical_involution(cp, subset)
        assert is_compatible_involution(cp, lam, subset)


def test_is_compatible_involution_rejects_bad_candidates(octa_cp):
    cp = octa_cp
    subset = mask_of([1])
    assert not is_compatible_involution(cp, tuple(range(8)), subset)  # fixed points
    lam = canonical_involution(cp, subset)
    assert is_compatible_involution(cp, lam, subset)
    assert not is_compatible_involution(cp, lam[:-1], subset)
    # an entry out of range, at either end
    for bad_entry in (cp.top_count, -1):
        out = list(lam)
        out[out.index(0)] = bad_entry
        assert not is_compatible_involution(cp, tuple(out), subset)
    # the canonical involution of {2, 3} crosses the facet that drops the
    # color-1 vertex: compatible for {2, 3}, and a color mismatch for {1}
    other = canonical_involution(cp, mask_of([2, 3]))
    assert is_compatible_involution(cp, other, mask_of([2, 3]))
    assert not is_compatible_involution(cp, other, subset)
    # a part-swapping pairing that ignores colors entirely
    bad = [-1] * 8
    for i, j in zip(cp.plus, reversed(cp.minus)):
        bad[i], bad[j] = j, i
    if is_compatible_involution(cp, tuple(bad), subset):
        pytest.skip("accidentally compatible pairing; extend the corpus")


# ---------------------------------------------------------------------------
# counting

def test_hexagon_matching_counts(hexagon_cp):
    cp = hexagon_cp
    for subset in proper_subsets(1):
        found = enumerate_compatible_involutions(cp, subset)
        assert len(found) == 1
        assert found[0] == canonical_involution(cp, subset)
        assert count_compatible_involutions(cp, subset) == 1


def test_octahedron_matching_counts(octa_cp):
    cp = octa_cp
    # antipodal coloring: 4 matchings per singleton, forced across pairs
    expected = {1: 4, 2: 1}
    for subset in proper_subsets(2):
        n_found = count_compatible_involutions(cp, subset)
        assert n_found == expected[subset.bit_count()]
        assert n_found == permanent_oracle(compatibility_graph(cp, subset))


def test_enumeration_matches_permanent_on_subdivided_hexagon():
    sd_cp, _ = colored_from_complex(hexagon_cycle()[0])
    for subset in proper_subsets(1):
        found = enumerate_compatible_involutions(sd_cp, subset)
        assert len(found) == permanent_oracle(compatibility_graph(sd_cp, subset))
        assert len(found) == len(set(found))
        for lam in found:
            assert is_compatible_involution(sd_cp, lam, subset)


def test_enumeration_is_deterministic(octa_cp):
    subset = mask_of([2])
    a = enumerate_compatible_involutions(octa_cp, subset)
    b = enumerate_compatible_involutions(octa_cp, subset)
    assert a == b


def test_subdivided_tetrahedron_counts():
    cp, _ = colored_from_complex(boundary_delta(3))  # 24 top simplices
    counts = [count_compatible_involutions(cp, w) for w in proper_subsets(2)]
    # the stars of the 4 vertices (color 1) and of the 4 triangle centers
    # (color 3) hold 3 + 3 triangles, those of the 6 edge centers (color 2)
    # 2 + 2, and an edge of the subdivision lies in one triangle of each part
    assert counts == [1296, 64, 1296, 1, 1, 1]


def _oracle_cases():
    hexagon_cp = ColoredPseudomanifold(*hexagon_cycle())
    octa_cp = ColoredPseudomanifold(*octahedron())
    sd_hexagon, _ = colored_from_complex(hexagon_cycle()[0])
    sd_tetrahedron, _ = colored_from_complex(boundary_delta(3))
    return [pytest.param(cp, id=name) for name, cp in (
        ("hexagon", hexagon_cp), ("octahedron", octa_cp),
        ("sd_hexagon", sd_hexagon), ("sd_tetrahedron", sd_tetrahedron))]


@pytest.mark.parametrize("cp", _oracle_cases())
def test_enumeration_equals_backtracking_oracle(cp):
    for subset in proper_subsets(cp.n):
        found = enumerate_compatible_involutions(cp, subset)
        assert found == matching_oracle(cp, subset)  # order included
        assert count_compatible_involutions(cp, subset) == len(found)


def _array_oracle_cases():
    return _oracle_cases() + [pytest.param(
        colored_from_complex(suspended_cycle(5))[0], id="sd_suspended10")]


@pytest.mark.parametrize("cp", _array_oracle_cases())
def test_array_stars_and_counts_equal_per_top_oracle(cp):
    assert cp.by_color.tolist() == list(map(list, dict_oracle.by_color(cp)))
    for subset in proper_subsets(cp.n):
        star, plus_count, _ = _stars(cp, subset)
        # the same partition into stars, each with the same two parts
        found = {(frozenset(cp.plus[star[cp.plus] == k].tolist()),
                  frozenset(cp.minus[star[cp.minus] == k].tolist()))
                 for k in range(len(plus_count))}
        assert found == {(frozenset(p), frozenset(m))
                         for p, m in dict_oracle.stars(cp, subset)}
        assert count_compatible_involutions(cp, subset) \
            == dict_oracle.count_compatible_involutions(cp, subset)


@pytest.mark.parametrize("cp", _array_oracle_cases())
def test_array_involutions_equal_per_top_oracle(cp):
    rng = np.random.default_rng(7)
    for subset in proper_subsets(cp.n):
        lam = canonical_involution(cp, subset)
        assert lam == dict_oracle.canonical_involution(cp, subset)
        # candidates: every compatible involution of this subset and of the
        # others, the identity, reversals, random permutations and random
        # part-swapping pairings
        candidates = [lam, tuple(range(cp.top_count)),
                      tuple(reversed(range(cp.top_count)))]
        for other in proper_subsets(cp.n):
            candidates.append(canonical_involution(cp, other))
        candidates += [tuple(rng.permutation(cp.top_count).tolist())
                       for _ in range(5)]
        for _ in range(5):
            perm = np.empty(cp.top_count, dtype=np.int64)
            perm[cp.plus] = rng.permutation(cp.minus)
            perm[perm[cp.plus]] = cp.plus
            candidates.append(tuple(perm.tolist()))
        if count_compatible_involutions(cp, subset) <= 64:
            candidates += enumerate_compatible_involutions(cp, subset)
        for perm in candidates:
            assert is_compatible_involution(cp, perm, subset) \
                == dict_oracle.is_compatible_involution(cp, perm, subset)


def test_unbalanced_star_has_no_involution():
    # two plus simplices and one minus simplex share the color-1 vertex 0;
    # all four share the color-2 vertex 5
    cp = SimpleNamespace(n=1, top_count=4, parts=np.array([1, 1, -1, -1]),
                         plus=np.array([0, 1]), minus=np.array([2, 3]),
                         by_color=np.array([(0, 5), (0, 5), (0, 5), (4, 5)]))
    assert count_compatible_involutions(cp, mask_of([1])) == 0
    assert enumerate_compatible_involutions(cp, mask_of([1])) == []
    assert matching_oracle(cp, mask_of([1])) == []
    assert count_compatible_involutions(cp, mask_of([2])) == 2
    assert enumerate_compatible_involutions(cp, mask_of([2])) \
        == matching_oracle(cp, mask_of([2]))


# ---------------------------------------------------------------------------
# structural properties

def test_larger_subsets_give_fewer_involutions(octa_cp):
    cp = octa_cp
    pools = {subset: set(enumerate_compatible_involutions(cp, subset))
             for subset in proper_subsets(2)}
    for small in proper_subsets(2):
        for large in proper_subsets(2):
            if small != large and small & large == small:
                assert pools[large] <= pools[small]


def test_conjugation_closure(octa_cp):
    cp = octa_cp
    pools = {subset: enumerate_compatible_involutions(cp, subset)
             for subset in proper_subsets(2)}
    cases = 0
    for inner_set in proper_subsets(2):
        for outer_set in proper_subsets(2):
            if inner_set & outer_set != inner_set:
                continue
            for outer in pools[outer_set]:
                for inner in pools[inner_set]:
                    conj = tuple(outer[inner[outer[i]]] for i in range(cp.top_count))
                    assert is_compatible_involution(cp, conj, inner_set)
                    cases += 1
    assert cases == 3 * 16 + 6 * 4 + 3 * 1  # singleton pairs, nested, doubles


def test_nonempty_for_all_subsets(octa_cp):
    # every subset admits at least the canonical involution
    for builder in (hexagon_cycle, octahedron):
        cp = ColoredPseudomanifold(*builder())
        for subset in proper_subsets(cp.n):
            assert count_compatible_involutions(cp, subset) >= 1
