"""The tuple orbit from per-slot closures and integer tuple codes, against
the tuple-only breadth-first search of ``dict_oracle`` at scale; the orbit
crossed chunk by chunk, which numbers every tuple as one pass over each
level would, and ``_number_new``, which numbers each chunk against the
sorted index of known codes, against a dict; the refusals before and during
the orbit, which is refused once twice its size passes the cap, within one
chunk and in little memory, and the two pairs per orbit tuple that bound
rests on; the one compatibility test over all closures, row by row against
``dict_oracle``; the ledger when the full build's closure check fails or a
closure element is not compatible; and the bytes of ``cover --out``, which
writes the orbit's tuple ids."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_oracle
from extra_api import sphere_join, suspension, tuple_values
from cyclecover import corpus, covering
from cyclecover.cli import main
from cyclecover.covering import DEFAULT_MAX_CELLS, build_component, build_full
from cyclecover.errors import CapExceededError, InconsistentGluingError
from cyclecover.involutions import (
    canonical_involution,
    compatible_rows,
    is_compatible_involution,
)
from cyclecover.permutahedron import proper_subsets
from cyclecover.pseudomanifold import ColoredPseudomanifold, colored_from_complex

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def seed_codes(cp, max_cells: int = DEFAULT_MAX_CELLS):
    """The canonical tuple's orbit, as ``build_component`` closes it."""
    pools = [np.array([canonical_involution(cp, w)], dtype=np.int32)
             for w in proper_subsets(cp.n)]
    return covering._tuple_codes(cp, pools, max_cells)


# n = 3, 4 and 5 (48 and 96 tops for the joins), and the orbit's size
ORBITS = {
    "sd(boundary delta4)": (lambda: colored_from_complex(corpus.boundary_delta(4))[0],
                            2916),
    "sd(suspended octahedron)": (
        lambda: colored_from_complex(suspension(corpus.octahedron()[0]))[0], 432),
    "C4*C6*S0": (lambda: sphere_join(4, 6, 0), 81),
    "C4*C6*C4": (lambda: sphere_join(4, 6, 4), 81),
}


@pytest.fixture(scope="module", params=list(ORBITS))
def orbit(request):
    build, size = ORBITS[request.param]
    cp = build()
    return seed_codes(cp), dict_oracle.tuple_orbit(cp), size


def test_orbit_matches_the_tuple_search(orbit):
    registry, (reg, newt), size = orbit
    assert registry.tuple_count == size
    assert tuple_values(registry) == reg.tuple_values()
    assert registry.newt.tolist() == newt


def assert_same_registry(got, want):
    assert [c.tolist() for c in got.closures] == [c.tolist() for c in want.closures]
    assert (got.digits.dtype, got.newt.dtype) == (np.int32, np.int32)
    assert np.array_equal(got.digits, want.digits)
    assert np.array_equal(got.newt, want.newt)


@pytest.mark.parametrize("chunk", [1, 5])
def test_orbit_does_not_depend_on_the_chunk(orbit, chunk, monkeypatch):
    # first occurrence over a level is first occurrence chunk by chunk
    registry, _, _ = orbit
    monkeypatch.setattr(covering, "_ORBIT_CHUNK", chunk)
    assert_same_registry(seed_codes(registry.cp), registry)


@pytest.mark.parametrize("chunk", [1, 5])
def test_full_build_does_not_depend_on_the_chunk(chunk, monkeypatch):
    cp = ColoredPseudomanifold(*corpus.octahedron())
    want = build_full(cp).registry
    monkeypatch.setattr(covering, "_ORBIT_CHUNK", chunk)
    got = build_full(cp).registry
    assert got.tuple_count == 64
    assert_same_registry(got, want)


def dict_numbering(known, ids, found, start):
    """``_number_new`` as a dict: the merged values ascending, their ids,
    the number of each found value and where each new one first occurs."""
    number = dict(zip(known, ids))
    first = []
    for position, value in enumerate(found):
        if value not in number:
            number[value] = start + len(first)
            first.append(position)
    merged = sorted(number)
    return merged, [number[v] for v in merged], [number[v] for v in found], first


@st.composite
def known_codes(draw):
    """Distinct values, unsorted, and their ids, a permutation."""
    known = draw(st.lists(st.integers(-40, 40), unique=True))
    return known, draw(st.permutations(range(len(known))))


@settings(max_examples=200, deadline=None)
@given(known=known_codes(), found=st.lists(st.integers(-50, 50), max_size=60))
@example(known=([3, -7, 12], [2, 0, 1]), found=[12, 3, 3, -7])  # no new value
@example(known=([], []), found=[5, 5, -1])
def test_number_new_matches_a_dict_numbering(known, found):
    known, ids = known
    order = np.argsort(known, kind="stable")
    got = covering._number_new(np.array(known, dtype=np.int64)[order],
                               np.array(ids, dtype=np.int64)[order],
                               np.array(found, dtype=np.int64), len(known))
    assert [a.tolist() for a in got] == list(dict_numbering(known, ids, found,
                                                            len(known)))


def test_close_slot_when_no_conjugate_is_a_known_row():
    # conjugating (0 1)(2 3) by (1 2) gives (0 2)(1 3), and the first round
    # meets no known row: the new row is still taken, and the second round
    # closes
    closure, index = covering._close_slot(np.array([[0, 2, 1, 3]], dtype=np.int32),
                                          np.array([[1, 0, 3, 2]], dtype=np.int32),
                                          closed=False)
    assert closure.tolist() == [[1, 0, 3, 2], [2, 3, 0, 1]]
    assert index.tolist() == [[1, 0]]


def test_closures_are_the_values_each_slot_takes(orbit):
    # the rows of each closure are distinct, and the orbit's tuples hold
    # every one of them in that slot
    registry, _, _ = orbit
    for slot, closure in enumerate(registry.closures):
        assert len(np.unique(closure, axis=0)) == len(closure)
        assert np.unique(registry.digits[:, slot]).tolist() == list(range(len(closure)))


def test_orbit_is_not_always_the_product_of_the_slot_closures():
    # on sd(suspended octahedron) slots {1} and {1, 4} are coupled: they take
    # 6 of their 9 joint values, and the orbit is 2/3 of the product
    cp = colored_from_complex(suspension(corpus.octahedron()[0]))[0]
    registry = seed_codes(cp)
    sizes = [len(closure) for closure in registry.closures]
    assert cp.top_count == 384
    assert sizes == [3, 2, 1, 6, 2, 1, 3, 1, 1, 3, 1, 1, 1, 1]
    assert (int(np.prod(sizes)), registry.tuple_count) == (648, 432)
    subsets = proper_subsets(cp.n)
    coupled = registry.digits[:, [subsets.index(0b1), subsets.index(0b1001)]]
    assert len(np.unique(coupled, axis=0)) == 6


def test_boundary_delta5_orbit_stops_at_the_cap():
    cp = colored_from_complex(corpus.boundary_delta(5))[0]
    with pytest.raises(CapExceededError, match="component exceeded 100000 cells") as e:
        build_component(cp, max_cells=100000)
    assert (e.value.cap, e.value.reached) == (100000, 100000)


def test_boundary_delta5_orbit_is_refused_in_little_memory():
    # each chunk is numbered against the sorted index and merged into it,
    # and the cap is checked after it: no level is crossed whole
    cp = colored_from_complex(corpus.boundary_delta(5))[0]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError,
                           match="component exceeded 200000 cells") as e:
            seed_codes(cp, 200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.value.cap, e.value.reached) == (200000, 200000)
    assert peak < 32 << 20


def test_orbit_is_refused_once_twice_its_size_passes_the_cap():
    # the component has at least two pairs on every orbit tuple, so the
    # 2916 tuples of sd(boundary delta4) need a cap of 5832 cells
    cp = colored_from_complex(corpus.boundary_delta(4))[0]
    with pytest.raises(CapExceededError, match="component exceeded 5831 cells") as e:
        seed_codes(cp, 5831)
    assert (e.value.cap, e.value.reached) == (5831, 5831)
    assert seed_codes(cp, 5832).tuple_count == 2916


@pytest.mark.parametrize("name", ["sd(suspended octahedron)", "C4*C6*S0",
                                  "C4*C6*C4"])
def test_component_has_two_pairs_per_orbit_tuple(name):
    # the bound the orbit's refusal rests on: every orbit tuple lies on a
    # pair, and crossing a one-color facet moves sigma and keeps the tuple
    build, size = ORBITS[name]
    cp = build()
    cover = build_component(cp)
    assert cover.registry.tuple_count == size
    assert cover.pairs.num_cells >= 2 * size
    assert np.unique(cover.pair_t).tolist() == list(range(size))
    for c in range(cp.n + 1):
        slot = proper_subsets(cp.n).index(1 << c)
        across = cover.pairs.glue[:, slot]
        assert (cover.pair_t[across] == cover.pair_t).all()
        assert (cover.pair_sigma[across] != cover.pair_sigma).all()


def widen_one_color_slots(monkeypatch, cp, rows: int) -> None:
    """Give each one-color slot's closure ``rows`` rows, as a broadcast view.
    The closures are made largest subsets first, so the last n + 1 close
    the one-color slots, which no other slot is conjugated by."""
    close = covering._close_slot
    calls = []

    def widened(outer, pool, closed):
        calls.append(None)
        closure, index = close(outer, pool, closed)
        if len(calls) > len(proper_subsets(cp.n)) - (cp.n + 1):
            closure = np.broadcast_to(closure[:1], (rows, closure.shape[1]))
        return closure, index

    monkeypatch.setattr(covering, "_close_slot", widened)


@pytest.mark.parametrize("mode", ["cover", "verify"])
def test_tuple_codes_past_int64_are_refused(mode, monkeypatch, capsys):
    # the octahedron's closures have one row each; three of 2^31 rows make
    # 2^93 codes, refused before any is made
    cp = ColoredPseudomanifold(*corpus.octahedron())
    widen_one_color_slots(monkeypatch, cp, 1 << 31)
    message = (f"tuple codes need {2 ** 93} values, the product of the slot "
               f"closure sizes, more than int64 holds")
    assert main([mode, "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--max-cells", "1000"]) == 1
    out, err = capsys.readouterr()
    if mode == "cover":
        assert (out, err) == ("", f"check failed: {message}\n")
    else:
        claim, overall = out.splitlines()[-2:]
        assert claim.startswith("[   FAIL] cover component built and closed "
                                "under crossings")
        assert claim.endswith(f"  ({message})")
        assert overall == "overall: FAIL"
    assert "exceeded" not in out + err


def test_full_build_closure_failure_is_the_failed_claim(monkeypatch, tmp_path,
                                                         capsys):
    # the octahedron's pool for {1, 2} is given an involution that keeps the
    # color-1 vertex only: conjugating the pool of {2} by it leaves that pool
    enumerate_pool = covering.enumerate_compatible_involutions
    monkeypatch.setattr(covering, "enumerate_compatible_involutions", lambda cp, w: (
        enumerate_pool(cp, 0b001)[1:2] if w == 0b011 else enumerate_pool(cp, w)))
    out = tmp_path / "report.json"
    assert main(["report", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(out)]) == 1
    claims = json.loads(out.read_text())["claims"]
    assert claims[-1] == {
        "claim": "full cover set built and closed under crossings",
        "status": "fail",
        "detail": "facet crossing left the full cover set; conjugation "
                  "closure failed"}
    assert all(e["status"] == "pass" for e in claims[:-1])
    assert out.with_suffix(".txt").read_text().endswith("overall: FAIL\n")


# one row of slot 2, {3}, of the octahedron's full set, each failing one
# condition of compatibility (a fixed point also keeps its part, and a row
# out of range is read as the identity).  Triangle s carries the vertices 0|1, 2|3 and
# 4|5 of colors 1, 2 and 3 by the bits of s, high bit first; the parts are
# + - - + - + + -, so the color-3 stars are 0 2 4 6 (+ - - +) and 1 3 5 7
# (- + + -), and 0-2 4-6 1-3 5-7 is compatible.
PLANTED_ROWS = {
    "fixed point": [0, 3, 2, 1, 6, 7, 4, 5],
    "not an involution": [2, 3, 6, 1, 0, 7, 4, 5],  # 0 -> 2 -> 6 -> 4 -> 0
    "part kept": [6, 7, 4, 5, 2, 3, 0, 1],
    "color-3 vertex moved": [1, 0, 3, 2, 5, 4, 7, 6],
    "entry past the tops": [8, 3, 0, 1, 6, 7, 4, 5],
    "negative entry": [-1, 3, 0, 1, 6, 7, 4, 5],
}


@pytest.fixture(scope="module")
def octahedron_closures():
    cp = ColoredPseudomanifold(*corpus.octahedron())
    return cp, build_full(cp).registry.closures


def rows_and_subsets(cp, closures):
    subsets = proper_subsets(cp.n)
    return (np.concatenate(closures),
            np.repeat(subsets, [len(c) for c in closures]))


def test_compatible_closures_pass_the_one_test(octahedron_closures):
    cp, closures = octahedron_closures
    assert [len(c) for c in closures] == [4, 4, 4, 1, 1, 1]
    assert compatible_rows(cp, *rows_and_subsets(cp, closures)).all()
    assert is_compatible_involution(cp, [2, 3, 0, 1, 6, 7, 4, 5], 0b100)
    covering._check_compatible(cp, closures)


@pytest.mark.parametrize("defect", list(PLANTED_ROWS))
def test_one_compatibility_test_names_the_planted_slot(octahedron_closures,
                                                       defect):
    cp, closures = octahedron_closures
    closures = [c.copy() for c in closures]
    closures[2][1] = PLANTED_ROWS[defect]
    rows, subsets = rows_and_subsets(cp, closures)
    # row by row as the dict oracle, and slot by slot as
    # ``is_compatible_involution``
    assert compatible_rows(cp, rows, subsets).tolist() == [
        dict_oracle.is_compatible_involution(cp, row.tolist(), int(w))
        for row, w in zip(rows, subsets)]
    assert [is_compatible_involution(cp, c, w) for w, c in
            zip(proper_subsets(cp.n), closures)] == [True] * 2 + [False] + [True] * 3
    with pytest.raises(InconsistentGluingError) as e:
        covering._check_compatible(cp, closures)
    assert str(e.value) == ("component for subset (3,) is not a compatible "
                            "involution")


@pytest.mark.parametrize("mode", ["report", "cover"])
def test_incompatible_closure_element_is_the_failed_claim(mode, monkeypatch,
                                                          tmp_path, capsys):
    # every closure element of {1, 2} is refused as incompatible: the full
    # build of ``report`` and the component of ``cover`` both stop there
    compatible = covering.compatible_rows
    monkeypatch.setattr(covering, "compatible_rows", lambda cp, perms, subsets: (
        compatible(cp, perms, subsets) & (subsets != 0b011)))
    message = "component for subset (1, 2) is not a compatible involution"
    out = tmp_path / "out.json"
    assert main([mode, "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(out)]) == 1
    printed, err = capsys.readouterr()
    if mode == "cover":
        assert (printed, err) == ("", f"check failed: {message}\n")
        assert not out.exists()
        return
    assert err == ""
    claims = json.loads(out.read_text())["claims"]
    assert claims[-1] == {
        "claim": "full cover set built and closed under crossings",
        "status": "fail", "detail": message}
    assert all(e["status"] == "pass" for e in claims[:-1])
    assert out.with_suffix(".txt").read_text().endswith("overall: FAIL\n")


# digests of what the row-interning orbit closure wrote before the tuple
# codes replaced it
COVER_OUT_SHA256 = {
    ("hexagon", False):
        "a392f6d5fdbcbb6a4808f14ea0b2f8dea01e2ac4a4f9c0ddc449936be1d0faed",
    ("octahedron", False):
        "7017c9baca30a6d6cc8fe97976643f5b62bfc996baa1aac69df44c29d56f328d",
    ("octahedron", True):
        "f7b990b7c15c504d7db94819742cbead8d029d4a210b43ec4781257eea9c2878",
    ("boundary_delta3", False):
        "96cd6684489df62321f1289f7a4f5216dbe8c8f2539674fcfe9b6b9df62fb003",
}


@pytest.mark.parametrize("name, full", list(COVER_OUT_SHA256))
def test_cover_out_bytes_are_pinned(name, full, tmp_path, capsys):
    out = tmp_path / "cover.json"
    assert main(["cover", "--input", str(CORPUS_DIR / f"{name}.json"),
                 "--out", str(out)] + ["--full"] * full) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COVER_OUT_SHA256[name, full]
