"""The array glue table against the dict-backed oracle in ``dict_oracle``:
face classes, cover builds and the class map of the oracle's face-class
covering check agree; corrupted tables are refused; and the pair build
reaches the 20,000-cell cover of the join C4 * C10.  A full build numbers
its cells as the oracle does; a component numbers them by pair and coset,
where the oracle numbers them breadth first, so the two are compared up to
that renumbering."""

import json
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from extra_api import (
    benchmark_inputs,
    cover_cells,
    pinched_torus,
    refusal,
    suspended_cycle,
    torus7,
    tuple_values,
)
from cyclecover import corpus, formats
from cyclecover.cells import UNGLUED, PermutahedralComplex, face_classes
from cyclecover.covering import build_component, build_full, verify_covering
from cyclecover.errors import (
    CapExceededError,
    InconsistentGluingError,
    NotACoveringError,
)
from cyclecover.permutahedron import proper_subsets
from cyclecover.pseudomanifold import (
    AbstractComplex,
    ColoredPseudomanifold,
    colored_from_complex,
)
from cyclecover.tomei import build_tomei

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
INPUTS = benchmark_inputs()


def cycle_join(first: int, second: int) -> ColoredPseudomanifold:
    """The join of two even cycles, a 3-sphere: colors 1, 2 alternate along
    the first cycle and 3, 4 along the second."""
    tops = [(i, (i + 1) % first, first + j, first + (j + 1) % second)
            for i in range(first) for j in range(second)]
    colors = [1 + i % 2 for i in range(first)] + [3 + j % 2 for j in range(second)]
    return ColoredPseudomanifold(AbstractComplex(3, first + second, tops), colors)


@pytest.fixture(scope="module")
def octa_cp():
    return ColoredPseudomanifold(*corpus.octahedron())


@pytest.fixture(scope="module")
def sd3_cp():
    return colored_from_complex(corpus.boundary_delta(3))[0]


@pytest.fixture(scope="module")
def join4x6_cp():
    return cycle_join(4, 6)


@pytest.fixture(scope="module")
def covers(octa_cp, sd3_cp, join4x6_cp):
    return {
        "octahedron full": (build_full(octa_cp), dict_oracle.build_full(octa_cp)),
        "sd3 component": (build_component(sd3_cp), dict_oracle.build_component(sd3_cp)),
        "join C4*C6 component": (build_component(join4x6_cp),
                                 dict_oracle.build_component(join4x6_cp)),
    }


COVERS = ["octahedron full", "sd3 component", "join C4*C6 component"]


def assert_classes_match_oracle(pc):
    classes = face_classes(pc)
    class_of, members, chain_of_class = dict_oracle.face_classes(pc)
    expected = np.array([[class_of[(cell, chain)] for cell in range(pc.num_cells)]
                         for chain in classes.chains])
    assert np.array_equal(classes.class_ids, expected)
    assert classes.chain_of_class == chain_of_class
    assert len(classes.members) == len(members)
    assert [set(m) for m in classes.members] == [set(m) for m in members]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tomei_face_classes_match_oracle(n):
    assert_classes_match_oracle(build_tomei(n))


@pytest.mark.parametrize("name", COVERS)
def test_cover_face_classes_match_oracle(covers, name):
    assert_classes_match_oracle(covers[name][0].pc)


def assert_build_matches_oracle(cover, oracle):
    """The same cells, glued the same way up to their numbering (in the same
    order for a full build), and the same tuples in the same order."""
    cells, glue, reg = oracle
    got = cover_cells(cover)
    index = {cell: i for i, cell in enumerate(cells)}
    renumber = [index[cell] for cell in got]
    assert sorted(renumber) == list(range(len(cells)))
    assert {(renumber[i], w): renumber[j]
            for (i, w), j in dict_oracle.glue_dict(cover.pc).items()} == glue
    if not cover.connected:
        assert got == cells
    assert tuple_values(cover.registry) == reg.tuple_values()


@pytest.mark.parametrize("name", COVERS)
def test_cover_builds_match_oracle(covers, name):
    cover, oracle = covers[name]
    assert_build_matches_oracle(cover, oracle)


# every corpus input with a cover: rp2_minimal is not orientable, and the
# sd(boundary delta4) component has 1,399,680 cells, too many for the oracle;
# the full set of sd(boundary delta3) has 5,159,780,352 cells
@pytest.mark.parametrize("name, full", [("hexagon", True), ("octahedron", True),
                                        ("boundary_delta3", False)])
def test_corpus_builds_match_oracle(name, full):
    complex_, coloring, orientation = formats.load_complex(CORPUS_DIR / f"{name}.json")
    cp = colored_from_complex(complex_, coloring, orientation)[0]
    assert_build_matches_oracle(build_component(cp), dict_oracle.build_component(cp))
    if full:
        assert_build_matches_oracle(build_full(cp), dict_oracle.build_full(cp))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stem, build, full", [
    ("octahedron", INPUTS.octahedron, True),
    ("delta3", INPUTS.boundary_delta3, False),
    ("suspended10", lambda: INPUTS.suspended_cycle(5), False),
    ("join4x10", lambda: INPUTS.cycle_join(2, 5), False),
])
def test_benchmark_input_builds_match_oracle(stem, build, full, seed):
    # the verify-n2 and cover-n3 inputs, as the benchmark scrambles them
    doc = json.loads(INPUTS.seeded_document(stem, build(), seed))
    cp = colored_from_complex(*formats.complex_from_dict(doc))[0]
    assert_build_matches_oracle(build_component(cp), dict_oracle.build_component(cp))
    if full:
        assert_build_matches_oracle(build_full(cp), dict_oracle.build_full(cp))


def test_pinched_torus_build_matches_oracle():
    # a singular pseudomanifold: the link of vertex 0 is two pentagons
    cover = build_component(colored_from_complex(pinched_torus())[0])
    assert_build_matches_oracle(cover, dict_oracle.build_component(cover.cp))
    assert cover.num_cells == 3600


def test_torus7_build_matches_oracle():
    # sd(T^2), the subdivided 7-vertex torus, whose base has genus one
    cover = build_component(colored_from_complex(torus7())[0])
    assert_build_matches_oracle(cover, dict_oracle.build_component(cover.cp))
    assert cover.num_cells == 1512


def test_suspended_cycle_build_picks_out_the_component():
    # the seed tuple's orbit carries 7200 parity-consistent cells, of which
    # the seed's component holds a third
    cp = colored_from_complex(suspended_cycle(5))[0]
    cover = build_component(cp)
    assert cover.registry.tuple_count * cp.top_count * (1 << (cp.n - 1)) == 7200
    assert cover.num_cells == 2400
    assert_build_matches_oracle(cover, dict_oracle.build_component(cp))


@pytest.mark.parametrize("name", COVERS)
def test_cover_to_base_matches_oracle(covers, name):
    cover = covers[name][0]
    base = build_tomei(cover.cp.n)
    report = dict_oracle.verify_covering(cover, base)
    assert report.cover_class_to_base.tolist() == dict_oracle.cover_to_base(
        cover.pc, cover.g.tolist(), base)


# ---------------------------------------------------------------------------
# corrupted tables; Tomei n=2 slots are {1} {2} {3} {1,2} {1,3} {2,3}

def corrupted_tomei(cell, slot, value):
    glue = build_tomei(2).glue.copy()
    glue[cell, slot] = value
    return glue


@pytest.mark.parametrize("glue, message", [
    (corrupted_tomei(1, 2, UNGLUED), "cell 1 facet \\(3,\\) unglued"),
    (corrupted_tomei(1, 2, 4), "target 4 out of range"),
    (corrupted_tomei(1, 2, -3), "target -3 out of range"),
    (corrupted_tomei(1, 2, 1), "of cell 1 glued to itself"),
    (corrupted_tomei(1, 2, 3), "not an involution"),
])
def test_corrupted_tables_rejected(glue, message):
    with pytest.raises(InconsistentGluingError, match=message):
        PermutahedralComplex(2, 4, glue)


def noncommuting_glue():
    # slot 3 = {1,2} glues by b, every other facet by a; a and b are
    # fixed-point free involutions with a(b(0)) = 4 but b(a(0)) = 3
    a = [1, 0, 4, 5, 2, 3]
    b = [2, 3, 0, 1, 5, 4]
    return np.array([[b[i] if slot == 3 else a[i] for slot in range(6)]
                     for i in range(6)])


def collapsed_glue():
    # every facet glued by the same reflection: each gluing is a fixed-point
    # free involution and they commute, but a vertex orbit has 2 cells, not 4
    return np.tile(np.array([[1], [0], [3], [2]]), (1, 6))


def test_noncommuting_nested_table_rejected():
    with pytest.raises(InconsistentGluingError,
                       match="nested facets \\(1,\\) and \\(1, 2\\) do not commute"):
        PermutahedralComplex(2, 6, noncommuting_glue())


def test_collapsed_orbit_rejected():
    pc = PermutahedralComplex(2, 4, collapsed_glue())
    with pytest.raises(InconsistentGluingError, match="has size 2, expected 4"):
        face_classes(pc)


def test_collapsed_codim3_orbit_rejected():
    # n = 3 on the four cells of (Z/2)^2: crossing F_w adds the element
    # numbered |w|, so nested labels add different elements and every
    # orbit of codimension 1 or 2 is full, but a codimension-3 orbit can
    # only be the whole group of 4 cells
    glue = np.array([[cell ^ w.bit_count() for w in proper_subsets(3)]
                     for cell in range(4)])
    pc = PermutahedralComplex(3, 4, glue)
    with pytest.raises(InconsistentGluingError, match="has size 4, expected 8"):
        face_classes(pc)


def test_face_classes_follow_cell_relabelling(covers):
    pc = covers["join C4*C6 component"][0].pc
    perm = np.random.default_rng(7).permutation(pc.num_cells)  # cell i -> perm[i]
    glue = np.empty_like(pc.glue)
    glue[perm] = perm[pc.glue]
    old = face_classes(pc)
    new = face_classes(PermutahedralComplex(pc.n, pc.num_cells, glue))
    assert (new.chain_start, new.codim_start) == (old.chain_start, old.codim_start)
    for r, start in enumerate(old.chain_start[:-1]):
        # the old class of each relabelled cell, keyed by its lowest new cell
        moved = np.empty_like(old.class_ids[r])
        moved[perm] = old.class_ids[r]
        lowest = np.full(old.num_classes, pc.num_cells)
        np.minimum.at(lowest, moved, np.arange(pc.num_cells))
        rank = np.unique(lowest[moved], return_inverse=True)[1]
        assert np.array_equal(new.class_ids[r], start + rank)


def test_table_shape_and_type_checked():
    with pytest.raises(ValueError, match="shape"):
        PermutahedralComplex(2, 4, build_tomei(2).glue[:, :5])
    with pytest.raises(ValueError, match="integer"):
        PermutahedralComplex(2, 4, build_tomei(2).glue.astype(float))


# ---------------------------------------------------------------------------
# scale

def test_join_c4_c10_cover_build():
    cp = cycle_join(4, 10)
    cover = build_component(cp)
    assert cover.num_cells == 20000
    assert cover.registry.tuple_count == 125
    assert verify_covering(cover).degree == 2500
    assert_build_matches_oracle(cover, dict_oracle.build_component(cp))


def test_join_c4_c10_orbit_exceeds_a_cap_below_its_tuples():
    # the orbit has 125 tuples, each carried by a cell of the component
    with pytest.raises(CapExceededError, match=(
            "^the cover component has 142 cells at least, two per tuple of "
            "the seed's orbit so far, more than the cap 100$")) as e:
        build_component(cycle_join(4, 10), max_cells=100)
    assert refusal(e.value) == (100, 142)


# ---------------------------------------------------------------------------
# the same table in every integer dtype: the kernels gather with np.take on
# int32 tables, whatever dtype the glue arrives in

GLUE_DTYPES = [np.int32, np.int64, np.uint32]


def _rejection(glue, num_cells):
    """The message of the InconsistentGluingError that building the n = 2
    complex on ``glue``, or its face classes, raises."""
    with pytest.raises(InconsistentGluingError) as e:
        face_classes(PermutahedralComplex(2, num_cells, glue))
    return str(e.value)


DEFECTS = {
    "out of range": (corrupted_tomei(1, 2, 4), 4, "glue target 4 out of range"),
    "self-glued": (corrupted_tomei(1, 2, 1), 4, "facet (3,) of cell 1 glued to itself"),
    "not an involution": (corrupted_tomei(1, 2, 3), 4,
                          "gluing across (3,) is not an involution at cell 0"),
    "nested facets": (noncommuting_glue(), 6,
                      "gluings across nested facets (1,) and (1, 2) do not "
                      "commute at cell 0"),
    "collapsed orbit": (collapsed_glue(), 4,
                        "face orbit of (1, 3) at cell 0 has size 2, expected 4"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("dtype", GLUE_DTYPES)
def test_planted_gluing_defects_read_the_same_in_every_dtype(defect, dtype):
    glue, num_cells, message = DEFECTS[defect]
    assert _rejection(glue.astype(dtype), num_cells) == message


@pytest.mark.parametrize("dtype", GLUE_DTYPES)
def test_unglued_entry_in_every_dtype(dtype):
    glue = corrupted_tomei(1, 2, UNGLUED)
    if np.dtype(dtype).kind == "u":
        # an unsigned table cannot hold UNGLUED: the entry wraps round and
        # is refused as out of range
        assert _rejection(glue.astype(dtype), 4) == "glue target 4294967295 out of range"
    else:
        assert _rejection(glue.astype(dtype), 4) == "cell 1 facet (3,) unglued"


@pytest.mark.parametrize("name", COVERS)
def test_every_glue_dtype_gives_the_same_int32_complex(covers, name):
    cover = covers[name][0]
    pc, base = cover.pc, build_tomei(cover.cp.n)
    classes = face_classes(pc)
    report = dict_oracle.verify_cell_projection(pc, cover.g, base)
    image, fibers = report.cover_class_to_base, report.cell_fibers
    assert pc.glue.dtype == classes.class_ids.dtype == image.dtype == np.int32
    for dtype in GLUE_DTYPES:
        again = PermutahedralComplex(pc.n, pc.num_cells, pc.glue.astype(dtype))
        assert again.glue.dtype == np.int32
        assert np.array_equal(again.glue, pc.glue)
        again_classes = face_classes(again)
        assert again_classes.class_ids.dtype == np.int32
        assert np.array_equal(again_classes.class_ids, classes.class_ids)
        report = dict_oracle.verify_cell_projection(again, cover.g.astype(dtype), base)
        assert report.cell_fibers == fibers
        assert report.cover_class_to_base.dtype == np.int32
        assert np.array_equal(report.cover_class_to_base, image)


def _projection_rejection(pc, projection, base):
    with pytest.raises(NotACoveringError) as e:
        dict_oracle.verify_cell_projection(pc, projection, base)
    return str(e.value)


@pytest.mark.parametrize("dtype", GLUE_DTYPES)
def test_planted_projection_defects_read_the_same_in_every_dtype(covers, dtype):
    cover = covers["sd3 component"][0]
    base = build_tomei(2)
    pc = PermutahedralComplex(2, cover.num_cells, cover.pc.glue.astype(dtype))
    outside = cover.g.copy()
    outside[5] = base.num_cells
    assert (_projection_rejection(pc, outside.astype(dtype), base)
            == "projection sends a cell outside the base")
    moved = cover.g.copy()
    moved[7] ^= 1  # cell 1 is glued to cell 7 across {1, 3}, cell 0 is not
    assert (_projection_rejection(pc, moved.astype(dtype), base)
            == "projection does not commute with crossing (1, 3) at cell 1")
