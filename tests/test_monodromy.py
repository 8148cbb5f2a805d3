"""The cover as its monodromy: the pair complex, the lifts g0 and the
holonomy group H.

The GF(2) span helpers are held to brute force; the expanded cells of the
sd(boundary delta4) component to the crossings of the dict oracle; the
pair-level component labels and ranks, and the component numbers that
``push_forward`` names, to ``cell_components``; and every check of
``verify_covering`` fails on a planted defect with its own error and
message, which ``report`` then gives as the failed covering claim.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from extra_api import CoverCell, cover_cells, tuple_values
from cyclecover import cli, corpus, covering, formats, ledger, tomei
from cyclecover.cells import PermutahedralComplex, cell_components
from cyclecover.covering import (
    build_component,
    build_full,
    holonomy,
    span_basis,
    span_elements,
    span_split,
    verify_covering,
)
from cyclecover.certificate import push_forward
from cyclecover.errors import (
    DegreeNotConstantError,
    InconsistentGluingError,
    NotACoveringError,
)
from cyclecover.permutahedron import flag_template, mask_elements
from cyclecover.pseudomanifold import (
    ColoredPseudomanifold,
    colored_from_complex,
    face_ids,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# the GF(2) span helpers against brute force

def brute_span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_span_helpers_match_brute_force(n):
    rng = np.random.default_rng(n)
    cases = [[], [0], list(range(1 << n))] + [
        rng.integers(0, 1 << n, size=k).tolist()
        for k in (1, 2, 3, n, 2 * n) for _ in range(20)]
    for vectors in cases:
        basis = span_basis(vectors)
        span = brute_span(vectors)
        elements = span_elements(basis).tolist()
        # ascending coordinates: element i is the i-th smallest of the span
        assert elements == sorted(span)
        pivots = [b.bit_length() - 1 for b in basis]
        assert pivots == sorted(set(pivots))
        assert all((b >> p & 1) == (a == b)
                   for a, p in zip(basis, pivots) for b in basis)
        assert span_basis(elements) == basis == span_basis(basis[::-1])
        values = np.arange(1 << n)
        coord, rest = span_split(values, basis)
        assert (np.asarray(elements)[coord] ^ rest).tolist() == values.tolist()
        for v, r in zip(values.tolist(), rest.tolist()):
            assert r == min(v ^ s for s in span)
            assert (r == 0) == (v in span)


def test_even_subgroup_basis():
    # the full cover set's H: e_1 + e_k for k = 2..n
    for n in range(1, 6):
        even = [v for v in range(1 << n) if bin(v).count("1") % 2 == 0]
        assert span_basis(even) == tuple(1 | 1 << k for k in range(1, n))


# ---------------------------------------------------------------------------
# the expanded cells of the north-star component (the smaller covers meet
# the breadth-first dict oracle in ``test_glue_table``)

@pytest.fixture(scope="module")
def delta4_component():
    cp, _ = colored_from_complex(*formats.load_complex(
        CORPUS_DIR / "boundary_delta4.json"))
    return build_component(cp, max_cells=2 * 10 ** 6)


def test_boundary_delta4_cells_are_the_crossings(delta4_component):
    # the dict oracle's glue would hold 19.6M entries, so the 1,399,680
    # cells are checked whole as arrays, and the glue of a sample of them
    # against the oracle's cell-by-cell crossing
    cover = delta4_component
    assert (cover.pairs.num_cells, cover.basis) == (349920, (3, 5))
    assert cover.num_cells == 1399680
    key = (cover.tuple_id.astype(np.int64) * cover.cp.top_count
           + cover.sigma) << cover.cp.n | cover.g
    assert len(np.unique(key)) == cover.num_cells
    parity = np.array([bin(g).count("1") % 2 for g in range(8)])
    assert (parity[cover.g] == (cover.cp.parts[cover.sigma] < 0)).all()
    reg = dict_oracle.InvolutionRegistry(cover.cp)
    for value in tuple_values(cover.registry):
        reg.intern_tuple([reg.intern_involution(perm) for perm in value])

    def cell(i):
        return CoverCell(int(cover.sigma[i]), int(cover.tuple_id[i]),
                         int(cover.g[i]))

    for i in np.random.default_rng(4).choice(cover.num_cells, 300).tolist():
        for w, j in zip(reg.subsets, cover.pc.glue[i].tolist()):
            assert cell(j) == dict_oracle.cross_facet(reg, cell(i), w)


# ---------------------------------------------------------------------------
# component labels

def colored_suspended_six_cycle():
    """The suspended 6-cycle, colored 1, 2 round the cycle and 3 at the
    apexes: its full cover set has 55,296 cells over 1,123 pair
    components."""
    simplices = [(i, (i + 1) % 6, apex) for apex in (6, 7) for i in range(6)]
    return ColoredPseudomanifold(*formats.complex_from_dict({
        "n": 2, "num_vertices": 8, "simplices": [list(s) for s in simplices],
        "colors": [1, 2, 1, 2, 1, 2, 3, 3]})[:2])


def expected_cell_components(cover):
    """The cell component numbers that the pair-level ``(label, rank)``
    gives the cells over each pair: a pair component of rank r carries
    2^(rank H - r) cell components of equal size, numbered in a row after
    those of the lower pair components."""
    label, rank = cover.components
    copies = 1 << (len(cover.basis) - rank)
    first = np.cumsum(copies) - copies
    return label, first, copies


@pytest.mark.parametrize("make", [
    lambda: build_component(ColoredPseudomanifold(*corpus.hexagon_cycle())),
    lambda: build_component(ColoredPseudomanifold(*corpus.octahedron())),
    lambda: build_component(colored_from_complex(corpus.boundary_delta(3))[0]),
    lambda: build_full(ColoredPseudomanifold(*corpus.octahedron())),
    lambda: build_full(colored_suspended_six_cycle()),
], ids=["hexagon", "octahedron", "sd3", "octahedron full",
        "suspended 6-cycle full"])
def test_component_labels_are_cell_components(make):
    cover = make()
    label, first, copies = expected_cell_components(cover)
    size = 1 << len(cover.basis)
    cells = cell_components(cover.pc)
    assert cells.max() + 1 == copies.sum()
    # the cells over pair component C take the numbers first[C], ...,
    # first[C] + copies[C] - 1, each on |C| |H| / copies[C] cells
    over = np.repeat(label, size)
    offset = cells - first[over]
    assert ((offset >= 0) & (offset < copies[over])).all()
    sizes = np.bincount(cells)
    pairs_in = np.bincount(label)
    assert (sizes == np.repeat(pairs_in * size // copies, copies)).all()


def test_suspended_six_cycle_splits_one_pair_component():
    # the span of the holonomies of g0 over a pair component can be larger
    # than the g its loops gain: one of the 1,123 pair components of this
    # cover carries two cell components
    cover = build_full(colored_suspended_six_cycle())
    label, rank = cover.components
    assert (cover.num_cells, len(rank)) == (55296, 1123)
    split = np.flatnonzero(rank < len(cover.basis))
    assert len(split) == 1 and rank[split[0]] == len(cover.basis) - 1
    hol = holonomy(cover.g0, cover.pairs.glue, cover.cp.n)[label == split[0]]
    assert span_basis(np.unique(hol).tolist()) == cover.basis
    assert cell_components(cover.pc).max() + 1 == 1124


def test_push_forward_names_the_cell_component_after_a_split():
    # a fibre planted in the last pair component fails under the number of
    # its first cell component, which counts both cell components of the
    # split pair component before it
    cover = build_full(colored_suspended_six_cycle())
    label, rank = cover.components
    last = len(rank) - 1
    assert np.flatnonzero(rank < len(cover.basis))[0] < last
    x = int(np.flatnonzero(label == last)[0])
    first = int(cell_components(cover.pc)[x << len(cover.basis)])
    assert first == last + 1
    parts, sigma = cover.cp.parts, cover.pair_sigma.copy()
    sigma[x] = next(s for s in range(cover.cp.top_count)
                    if s != sigma[x] and parts[s] == parts[sigma[x]])
    with pytest.raises(DegreeNotConstantError, match=f"^component {first} "):
        push_forward(replace(cover, pair_sigma=sigma), flag_template(2),
                     face_ids(cover.cp.by_color)[0], oriented=True)


def test_boundary_delta4_component_labels(delta4_component):
    assert delta4_component.connected
    assert not cell_components(delta4_component.pc).any()
    label, rank = delta4_component.components
    assert not label.any()
    assert rank.tolist() == [len(delta4_component.basis)] == [2]


# ---------------------------------------------------------------------------
# planted defects of the monodromy check; octahedron pairs 0..7 are the
# triangles 0, 1, 2, 4, 3, 5, 6, 7 with g0 = 0, 1, 1, 2, 0, 3, 3, 2, and
# slots 0..5 the facets {1} {2} {3} {1,2} {1,3} {2,3}

@pytest.fixture(scope="module")
def octa():
    return build_component(ColoredPseudomanifold(*corpus.octahedron()))


def with_pair_glue(cover, glue):
    return replace(cover, pairs=PermutahedralComplex(2, len(glue), glue))


def not_an_involution(cover):
    glue = cover.pairs.glue.copy()
    glue[0, 0] = 2
    return with_pair_glue(cover, glue)


def noncommuting(cover):
    # {1,2} glued by 0-2 4-3 5-1 6-7: still parts apart, but crossing {1}
    # (0-1 2-4 3-5 6-7) then {1,2} sends 0 to 4, the other way round to 5
    glue = cover.pairs.glue.copy()
    glue[:, 3] = [2, 5, 0, 4, 3, 1, 7, 6]
    return with_pair_glue(cover, glue)


def part_kept(cover):
    # {1} glued as {1,2} then {1,3}: two commuting crossings, so the
    # complex passes, but the part of sigma flips twice
    glue = cover.pairs.glue.copy()
    glue[:, 0] = glue[glue[:, 4], 3]
    return with_pair_glue(cover, glue)


def flipped_parity(cover):
    g0 = cover.g0.copy()
    g0[5] ^= 1
    return replace(cover, g0=g0)


def uneven_fibres(cover):
    # H = {0} and pair 0 moved from g0 = 0 to 3: same parity, but base
    # cell 3 now has three cells over it and cell 0 one
    g0 = cover.g0.copy()
    g0[0] = 3
    return replace(cover, g0=g0, basis=())


def holonomy_outside(cover):
    return replace(cover, basis=())


PLANTED = {
    "not an involution": (not_an_involution, InconsistentGluingError,
                          "gluing across (1,) is not an involution at cell 0"),
    "nested crossings": (noncommuting, InconsistentGluingError,
                         "gluings across nested facets (1,) and (1, 2) do not "
                         "commute at cell 0"),
    "part kept": (part_kept, NotACoveringError,
                  "crossing (1,) keeps the part of sigma at pair 0"),
    "flipped g0 parity": (flipped_parity, NotACoveringError,
                          "pair 5 (sigma 5, tuple_id 0, g0 2) violates the "
                          "parity constraint"),
    "uneven fibres": (uneven_fibres, NotACoveringError,
                      "cell fibers are not constant: {0: 1, 1: 2, 2: 2, 3: 3}"),
    "holonomy outside H": (holonomy_outside, NotACoveringError,
                           "the holonomies do not span the subgroup with "
                           "basis []"),
}


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_planted_monodromy_defects(octa, defect):
    plant, error, message = PLANTED[defect]
    with pytest.raises(error) as e:
        verify_covering(plant(octa))
    assert type(e.value) is error
    assert str(e.value) == message


@pytest.mark.parametrize("defect", ["part kept", "flipped g0 parity",
                                    "uneven fibres", "holonomy outside H"])
def test_planted_monodromy_defects_fail_the_covering_claim(octa, defect,
                                                            monkeypatch, tmp_path,
                                                            capsys):
    # the octahedron's full cover set fits the cap, so ``report`` builds it
    # with ``build_full``, which hands over the planted cover instead
    plant, _, message = PLANTED[defect]
    monkeypatch.setattr(ledger, "build_full", lambda *args: plant(octa))
    written = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        assert cli.main(["report", "--input", str(CORPUS_DIR / "octahedron.json"),
                         "--out", str(out)]) == 1
        written.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
    capsys.readouterr()
    assert written[0] == written[1]
    claims = json.loads(written[0][0])["claims"]
    assert claims[-1] == {"claim": "projection to the Tomei base is a covering",
                          "status": "fail", "detail": message}
    assert all(e["status"] == "pass" for e in claims[:-1])
    assert written[0][1].decode().endswith("overall: FAIL\n")


def test_planted_pair_defects_break_the_cells_too(octa):
    # the oracle, reading the expanded cells, refuses the same covers
    for plant in (part_kept, flipped_parity):
        with pytest.raises((NotACoveringError, InconsistentGluingError)):
            dict_oracle.verify_covering(plant(octa))


def test_octahedron_pairs_as_documented(octa):
    assert octa.pair_sigma.tolist() == [0, 1, 2, 4, 3, 5, 6, 7]
    assert octa.g0.tolist() == [0, 1, 1, 2, 0, 3, 3, 2]
    assert octa.basis == (3,)
    assert set(cover_cells(octa)) == {
        CoverCell(int(s), 0, int(g0) ^ h)
        for s, g0 in zip(octa.pair_sigma, octa.g0) for h in (0, 3)}


# ---------------------------------------------------------------------------
# a component's defects: sd(boundary delta3), whose 216 pairs are one
# component, takes the component path of ``report``

@pytest.fixture(scope="module")
def sd3():
    return build_component(colored_from_complex(corpus.boundary_delta(3))[0])


def part_kept_at(cover, x):
    # pair x moved to a simplex of the other part and its g0 to the other
    # parity: the parity check passes and the glue is untouched, but every
    # crossing at x keeps the part
    parts = cover.cp.parts
    sigma, g0 = cover.pair_sigma.copy(), cover.g0.copy()
    sigma[x] = np.flatnonzero(parts != parts[sigma[x]])[0]
    g0[x] ^= 1
    return replace(cover, pair_sigma=sigma, g0=g0)


def first_kept(cover) -> str:
    """The message of the part scan, found pair by pair, slot by slot."""
    part = cover.cp.parts[cover.pair_sigma]
    for x, row in enumerate(cover.pairs.glue.tolist()):
        for slot, y in enumerate(row):
            if part[y] == part[x]:
                return (f"crossing {mask_elements(cover.pairs.subsets[slot])} "
                        f"keeps the part of sigma at pair {x}")
    raise AssertionError("no crossing keeps the part")


@pytest.mark.parametrize("x", [0, 100, 215])
def test_part_kept_on_a_component_is_the_scan_witness(sd3, x):
    # the holonomies at x turn odd, and the scan then names the first
    # (pair, slot) keeping the part: pair x itself, or a pair before it
    planted = part_kept_at(sd3, x)
    assert planted.connected
    def odd(cover):
        return [h for h in cover.holonomies.tolist() if h.bit_count() % 2]

    assert odd(planted) and not odd(sd3)
    with pytest.raises(NotACoveringError) as e:
        verify_covering(planted)
    assert type(e.value) is NotACoveringError
    assert str(e.value) == first_kept(planted)
    assert int(str(e.value).rsplit(" ", 1)[1]) <= x


def test_part_kept_on_a_component_fails_the_covering_claim(sd3, monkeypatch,
                                                           tmp_path, capsys):
    planted = part_kept_at(sd3, 100)
    monkeypatch.setattr(ledger, "build_component", lambda *args, **kwargs: planted)
    written = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        assert cli.main(["report", "--input", str(CORPUS_DIR / "boundary_delta3.json"),
                         "--out", str(out)]) == 1
        written.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
    capsys.readouterr()
    assert written[0] == written[1]
    claims = json.loads(written[0][0])["claims"]
    assert claims[-1] == {"claim": "projection to the Tomei base is a covering",
                          "status": "fail", "detail": first_kept(planted)}
    assert all(e["status"] == "pass" for e in claims[:-1])


def test_swapped_plus_and_minus_pairs_need_a_new_cover(sd3):
    # sigma and g0 of a plus pair and a minus pair swapped keep the parity,
    # the fibres and the glue.  In place the swap is refused, since the
    # cover's holonomies are cached from its arrays; on a new cover the
    # part check sees the crossings at the two pairs keep the part.
    part = sd3.cp.parts[sd3.pair_sigma]
    x = 0
    y = next(y for y in np.flatnonzero(part != part[x])
             if y not in sd3.pairs.glue[x])
    for array in (sd3.pair_sigma, sd3.g0, sd3.pair_t, sd3.pairs.glue):
        with pytest.raises(ValueError, match="read-only"):
            array[[x, y]] = array[[y, x]]
    assert verify_covering(sd3).degree == 108
    sigma, g0 = sd3.pair_sigma.copy(), sd3.g0.copy()
    sigma[[x, y]], g0[[x, y]] = sigma[[y, x]], g0[[y, x]]
    swapped = replace(sd3, pair_sigma=sigma, g0=g0)
    with pytest.raises(NotACoveringError) as e:
        verify_covering(swapped)
    assert str(e.value) == first_kept(swapped)


def glue_not_an_involution(glue):
    # crossing {1} from pair 0 leads where crossing {3} does (pair 2),
    # and crossing {1} from there does not lead back
    glue[0, 0] = glue[0, 2]
    return glue


def glue_noncommuting(glue):
    # {1,2} re-pairs 0-a and b-c as 0-b and a-c, with b the pair across
    # {1,3} from 0: still an involution without fixed points, but no longer
    # commuting with crossing {1} at pair 0
    a, b = glue[0, 3], glue[0, 4]
    c = glue[b, 3]
    glue[[0, a, b, c], 3] = [b, c, 0, a]
    return glue


@pytest.mark.parametrize("plant, start", [
    (glue_not_an_involution, "gluing across (1,) is not an involution at cell 0"),
    (glue_noncommuting, "gluings across nested facets "),
])
def test_gluing_defects_fail_the_component_claim(plant, start, monkeypatch,
                                                 tmp_path, capsys):
    # the builder hands the planted pair glue to the pair complex, whose
    # message is the failed claim's detail
    genuine, planted = covering.PermutahedralComplex, []

    def wrapped(n, num_cells, glue):
        planted.append(plant(glue.copy()))
        return genuine(n, num_cells, planted[-1])

    monkeypatch.setattr(covering, "PermutahedralComplex", wrapped)
    written = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        assert cli.main(["report", "--input", str(CORPUS_DIR / "boundary_delta3.json"),
                         "--out", str(out)]) == 1
        written.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
    capsys.readouterr()
    assert written[0] == written[1]
    assert len(planted) == 2 and np.array_equal(*planted)
    with pytest.raises(InconsistentGluingError) as e:
        PermutahedralComplex(2, len(planted[0]), planted[0])
    message = str(e.value)
    assert message.startswith(start)
    claims = json.loads(written[0][0])["claims"]
    failed = [e for e in claims if e["status"] == "fail"]
    assert failed == [claims[-1]] == [{
        "claim": "cover component built and closed under crossings",
        "status": "fail", "detail": message}]
    assert written[0][1].decode().endswith("overall: FAIL\n")


@pytest.mark.parametrize("mode, name", [
    ("cover", "boundary_delta3"), ("report", "boundary_delta3"),
    ("cover --full", "octahedron"), ("report", "octahedron"),
])
def test_one_run_computes_the_holonomies_once(mode, name, monkeypatch,
                                              tmp_path, capsys):
    # sd(boundary delta3) takes the component path and the octahedron the
    # full one: the build, the covering check and, on the full set, the
    # pushforward's component labels read one holonomy table.  The covering
    # check reads M^n through ``generators(n)`` alone, so only the ledger's
    # claim on the base builds it
    calls = {"holonomy": 0, "build_tomei": 0}

    def counted(label, genuine):
        def call(*args):
            calls[label] += 1
            return genuine(*args)
        return call

    monkeypatch.setattr(covering, "holonomy", counted("holonomy", covering.holonomy))
    build = counted("build_tomei", tomei.build_tomei)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "cyclecover" and hasattr(module, "build_tomei"):
            monkeypatch.setattr(module, "build_tomei", build)
    argv = [*mode.split(), "--input", str(CORPUS_DIR / f"{name}.json")]
    if mode == "report":
        argv += ["--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == {"holonomy": 1, "build_tomei": int(mode == "report")}

