"""The factored realization certificate against the triangulation path.

``verify_pipeline`` certifies the claims after the covering check on the
flag template of one permutahedron and on the cover's pairs
(``cyclecover.certificate``).  ``triangulation_tail`` below is the tail it
replaced: it triangulates the cover and runs ``validate_pseudomanifold``,
``dict_oracle.verify_surface``, ``orient``, ``realization_map`` and
``verify_realization`` on the triangulation.  Swapped in for
``ledger._certify_realization``, whose claims it yields in the same order,
it is the oracle: both paths must write the same report bytes, and a planted
defect must make the same claim the first failure on both.  Defects are
planted in the pairs, so the oracle's cells are expanded from the tampered
pairs.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from extra_api import (
    benchmark_inputs,
    cycle,
    pinched_torus,
    suspension,
    template_flag_of_tops,
    torus7,
)
from cyclecover import cli, corpus, formats, ledger, realization
from cyclecover.cells import (
    cell_components,
    euler_characteristic,
    face_classes,
    triangulate,
)
from cyclecover.certificate import (
    check_well_defined,
    is_oriented,
    push_forward,
    template_is_closed,
    template_is_surface,
)
from cyclecover.covering import (
    DEFAULT_MAX_CELLS,
    build_component,
    build_full,
    holonomy,
)
from cyclecover.errors import (
    DegreeNotConstantError,
    NonOrientableError,
    NotWellDefinedError,
)
from cyclecover.permutahedron import flag_template
from cyclecover.pseudomanifold import (
    ColoredPseudomanifold,
    colored_from_complex,
    face_ids,
    is_coherent_orientation,
    orient,
    validate_pseudomanifold,
)
from cyclecover.realization import realization_map, verify_realization
from cyclecover.tomei import build_tomei

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"


INPUTS = benchmark_inputs()


# ---------------------------------------------------------------------------
# the oracle: the tail of verify_pipeline on the cover triangulation

def triangulation_tail(cover, degree, base_euler, full, report,
                       orientation_of=lambda tri: orient(tri.complex)):
    """The outcomes of the claims after the covering check, on the
    triangulated cover and its face classes, in the ledger's order.

    ``orientation_of`` gives the cover orientation whose coherence the
    orientability claim checks; a planted defect hands in a wrong one.
    """
    bundle = cover.cp
    classes = face_classes(cover.pc)
    tri = triangulate(cover.pc, classes)
    tv = validate_pseudomanifold(tri.complex)
    yield (not tv.boundary_faces and not tv.overused_faces,
           f"{len(tri.complex.tops)} top simplices")

    cover_euler = euler_characteristic(cover.pc, classes)
    yield (cover_euler == degree * base_euler,
           f"{cover_euler} = {degree} * {base_euler}")
    yield (dict_oracle.verify_surface(tri.complex).ok, "") if bundle.n == 2 else None

    try:
        cover_orientation = orientation_of(tri)
        if not is_coherent_orientation(tri.complex, cover_orientation):
            cover_orientation = None
    except NonOrientableError:
        cover_orientation = None
    yield cover_orientation is not None, ""

    rmap = realization_map(cover, classes, tri)
    yield True, f"{classes.num_classes} classes checked"

    real = verify_realization(rmap, cover_orientation)
    report["q_component"] = real.degree
    report["per_simplex_counts_checksum"] = ledger._counts_checksum(real.image_counts)
    report["realization"] = {
        "degree": real.degree,
        "component_degrees": real.component_degrees,
        "degenerate_flags": real.degenerate_flags,
        "nondegenerate_flags": real.nondegenerate_flags,
    }
    yield True, f"degree {real.degree} over {len(real.image_counts)} base flags"

    fibers = np.bincount(cover.sigma, minlength=bundle.top_count)
    yield (bool((fibers == real.degree).all()),
           f"fiber {real.degree} over {bundle.top_count} simplices")
    q = report["q_formula"]
    yield (real.degree == q, f"{real.degree} = {q}") if full else None


def run_pipeline(doc, max_cells=DEFAULT_MAX_CELLS):
    """The report bytes and the text that ``report`` writes, and the
    claims."""
    claims, report = ledger.verify_pipeline(*formats.complex_from_dict(doc),
                                            max_cells)
    report["claims"] = claims.entries
    report["ok"] = claims.ok
    text = claims.text() + f"\noverall: {'PASS' if claims.ok else 'FAIL'}\n"
    return formats.dumps(report), text, claims


def both_paths(monkeypatch, doc, max_cells=DEFAULT_MAX_CELLS,
               plant_factored=None, plant_oracle=None):
    """Run the pipeline on its own path and with the triangulation tail,
    each with its planted defect, if any."""
    with monkeypatch.context() as m:
        if plant_factored:
            plant_factored(m)
        factored = run_pipeline(doc, max_cells)
    with monkeypatch.context() as m:
        tail = triangulation_tail
        if plant_oracle:
            tail = plant_oracle(m) or tail
        m.setattr(ledger, "_certify_realization", tail)
        oracle = run_pipeline(doc, max_cells)
    return factored, oracle


def vertex_table(bundle):
    """The subdivision vertex of every face of every top, by color mask:
    the table ``verify`` reads."""
    return face_ids(bundle.by_color)[0]


def corpus_doc(name):
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


def benchmark_doc(stem, seed):
    build = {"octahedron": INPUTS.octahedron,
             "delta3": INPUTS.boundary_delta3,
             "suspended10": lambda: INPUTS.suspended_cycle(5)}[stem]
    return json.loads(INPUTS.seeded_document(stem, build(), seed))


# ---------------------------------------------------------------------------
# byte-identical reports

@pytest.mark.parametrize("name", ["hexagon", "octahedron", "boundary_delta3",
                                  "rp2_minimal"])
def test_corpus_reports_match_the_triangulation_path(name, monkeypatch):
    factored, oracle = both_paths(monkeypatch, corpus_doc(name))
    assert factored[:2] == oracle[:2]


def test_boundary_delta4_report_matches_under_a_small_cap(monkeypatch):
    # its 201.6M-tetrahedron triangulation does not fit in memory, so the
    # oracle can only be run up to the component cap; the cap holds the
    # n = 3 flag template (576 flag faces), so the run gets past the base
    factored, oracle = both_paths(monkeypatch, corpus_doc("boundary_delta4"),
                                  max_cells=1000)
    assert factored[:2] == oracle[:2]
    assert factored[2].entries[-1] == {
        "claim": "cover component built and closed under crossings",
        "status": "fail", "detail": "component exceeded 1000 cells"}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stem", ["octahedron", "delta3", "suspended10"])
def test_benchmark_reports_match_the_triangulation_path(stem, seed, monkeypatch):
    factored, oracle = both_paths(monkeypatch, benchmark_doc(stem, seed))
    assert factored[:2] == oracle[:2]
    assert factored[2].ok


def test_join_c4_c6_report_matches_the_triangulation_path(monkeypatch):
    factored, oracle = both_paths(monkeypatch, INPUTS.cycle_join(2, 3))
    assert factored[:2] == oracle[:2]
    assert factored[2].ok
    report = json.loads(factored[0])
    assert (report["component_cells"], report["q_component"]) == (2592, 108)


def test_pinched_torus_passes_on_both_paths(tmp_path, monkeypatch, capsys):
    # a closed pseudomanifold that is not a manifold: its fundamental class
    # is the generator of H_2 = Z, and the cover realizes 30 times it
    doc = formats.complex_to_dict(pinched_torus())
    factored, oracle = both_paths(monkeypatch, doc)
    assert factored[:2] == oracle[:2]
    path, out = tmp_path / "pinched.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", "--input", str(path), "--out", str(out)]) == 0
    assert out.read_text() == factored[0]
    report = json.loads(factored[0])
    assert all(e["status"] == "pass" for e in report["claims"])
    assert (report["component_cells"], report["covering_degree"],
            report["q_component"]) == (3600, 900, 30)
    capsys.readouterr()
    assert cli.main(["homology", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "H_0 = Z", "H_1 = Z", "H_2 = Z"]


@pytest.mark.parametrize("build, counts, groups", [
    (torus7, (1512, 378, 18), ["Z", "Z + Z", "Z"]),
    (lambda: suspension(cycle(5)), (2400, 600, 40), ["Z", "0", "Z"]),
    (lambda: suspension(cycle(3)), (864, 216, 24), ["Z", "0", "Z"]),
], ids=["torus7", "suspended_c5", "suspended_c3"])
def test_uncolored_surfaces_pass_on_both_paths(build, counts, groups, tmp_path,
                                               monkeypatch, capsys):
    # the 7-vertex torus and suspensions of odd cycles have no regular
    # coloring, so each is subdivided first
    doc = formats.complex_to_dict(build())
    factored, oracle = both_paths(monkeypatch, doc)
    assert factored[:2] == oracle[:2]
    report = json.loads(factored[0])
    assert all(e["status"] == "pass" for e in report["claims"])
    assert (report["component_cells"], report["covering_degree"],
            report["q_component"]) == counts
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["homology", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"H_{k} = {g}" for k, g in enumerate(groups)]


def test_join_c4_c6_s0_report_passes_at_n4(tmp_path, capsys):
    # C4*C6 joined with two points of color 5: an n = 4 sphere, 48 tops
    doc = INPUTS.cycle_join(2, 3)
    apex = doc["num_vertices"]
    doc = {"n": 4, "num_vertices": apex + 2,
           "simplices": [s + [v] for v in (apex, apex + 1)
                         for s in doc["simplices"]],
           "colors": doc["colors"] + [5, 5]}
    path, out = tmp_path / "c4c6s0.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", "--input", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(e["status"] == "pass" for e in report["claims"])
    assert (report["component_cells"], report["covering_degree"],
            report["q_component"]) == (10368, 648, 216)
    assert "overall: PASS" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the counts checksum against the JSON encoder

def json_counts_checksum(image_counts):
    """The oracle: sort the table as lists and hash ``formats.dumps`` of it,
    the route ``ledger._counts_checksum`` took before it wrote the text with a
    row template."""
    table = sorted([list(simplex), count] for simplex, count in image_counts.items())
    digest = hashlib.sha256(formats.dumps(table).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def pipeline_image_counts(monkeypatch, doc):
    """The image counts ``push_forward`` hands the report of a passing run."""
    seen = []
    genuine = ledger.push_forward

    def recording(*args, **kwargs):
        real = genuine(*args, **kwargs)
        seen.append(real.image_counts)
        return real

    monkeypatch.setattr(ledger, "push_forward", recording)
    assert run_pipeline(doc)[2].ok
    return seen[0]


# every corpus file that passes under the default cap: rp2_minimal is not
# orientable, and the sd(boundary delta4) component exceeds the cap
@pytest.mark.parametrize("source", [
    *[("corpus", name) for name in ("hexagon", "octahedron", "boundary_delta3")],
    *[(stem, seed) for stem in ("octahedron", "delta3", "suspended10")
      for seed in (0, 1, 2)],
])
def test_counts_checksum_matches_the_json_encoder(source, monkeypatch):
    kind, which = source
    doc = corpus_doc(which) if kind == "corpus" else benchmark_doc(kind, which)
    image_counts = pipeline_image_counts(monkeypatch, doc)
    assert image_counts
    assert ledger._counts_checksum(image_counts) == json_counts_checksum(image_counts)


@pytest.mark.parametrize("image_counts", [
    {},
    {(7,): 1},
    {(3, 10, 2): 12, (3, 2, 10): 7, (1, 200, 3000): 123456, (0, 5, 9): 1,
     (3, 10, 1): 98765432109, (12, 0, 4): 30},
    {(4, 3, 2, 1, 0): 5, (0, 1, 2, 3, 4): 50, (0, 1, 2, 4, 3): 500},
])
def test_counts_checksum_of_hand_made_tables(image_counts):
    assert ledger._counts_checksum(image_counts) == json_counts_checksum(image_counts)


# ---------------------------------------------------------------------------
# planted defects: the same claim fails first on both paths

def _after_covering(m, tamper):
    """Let the covering check pass, then hand the certificate, and the
    triangulation tail that ``both_paths`` puts in its place, the cover
    with tampered pair arrays, before anything expands its cells."""
    genuine = ledger._certify_realization
    m.setattr(ledger, "_certify_realization",
              lambda cover, *args: genuine(tamper(cover), *args))
    return lambda cover, *args: triangulation_tail(tamper(cover), *args)


def _antipodal_sigma(cover):
    # the antipodal triangle of the octahedron under pair 0, as in
    # test_vertex_map_rejects_inconsistent_cells
    sigma = cover.pair_sigma.copy()
    sigma[0] ^= 0b111
    return replace(cover, pair_sigma=sigma)


def _odd_g(cover):
    g0 = cover.g0.copy()
    g0[0] ^= 1
    return replace(cover, g0=g0)


def tamper_sigma(m):
    return _after_covering(m, _antipodal_sigma)


def flip_tau(m):
    template = flag_template(2)
    sign = template.sign.copy()
    sign[0] = -sign[0]
    m.setattr(ledger, "flag_template", lambda n: replace(template, sign=sign))


def flip_parity(m):
    _after_covering(m, _odd_g)


def _oracle_orientation(flipped):
    """The oracle tail with ``orient``'s signs flipped on the tops that
    ``flipped(tri)`` selects."""
    def orientation_of(tri):
        signs = np.array(orient(tri.complex))
        signs[flipped(tri)] *= -1
        return signs.tolist()
    return lambda m: partial(triangulation_tail, orientation_of=orientation_of)


def _misnamed_vertex(ids):
    """The id table with top 0's vertex for the one-color set {1} naming
    its vertex of color 2 instead.  On the octahedron, top 0 is (0, 2, 4),
    colored 1, 2, 3, so its masks by color and by vertex position agree."""
    ids = ids.copy()
    ids[0, 0b001] = ids[0, 0b010]
    return ids


def tamper_vertex_table(m):
    """The defect in the table the certificate reads."""
    genuine = ledger.face_ids

    def tampered(columns):
        ids, faces = genuine(columns)
        return _misnamed_vertex(ids), faces

    m.setattr(ledger, "face_ids", tampered)


def tamper_subdivision_table(m):
    """The same defect in the subdivision ``realization_map`` reads."""
    genuine = realization.barycentric_subdivide

    def tampered(c):
        sd = genuine(c)
        return replace(sd, ids=_misnamed_vertex(sd.ids))

    m.setattr(realization, "barycentric_subdivide", tampered)


DEFECTS = {
    "sigma": (tamper_sigma, tamper_sigma,
              "realization map is well defined on face classes"),
    "vertex": (tamper_vertex_table, tamper_subdivision_table,
               "realization map is well defined on face classes"),
    # flag 0 of every cell has the wrong sign
    "tau": (flip_tau,
            _oracle_orientation(lambda tri: template_flag_of_tops(tri) == 0),
            "cover is orientable"),
    # every flag of cells 0 and 1, the cells over pair 0 of the full
    # octahedron cover (|H| = 2), has the wrong sign
    "parity": (flip_parity,
               _oracle_orientation(lambda tri: tri.cell_of_top < 2),
               "cover is orientable"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_fails_the_same_claim_first(defect, monkeypatch):
    plant_factored, plant_oracle, claim = DEFECTS[defect]
    factored, oracle = both_paths(monkeypatch, corpus_doc("octahedron"),
                                  plant_factored=plant_factored,
                                  plant_oracle=plant_oracle)
    firsts = [next(e for e in claims.entries if e["status"] == "fail")
              for _, _, claims in (factored, oracle)]
    assert [e["claim"] for e in firsts] == [claim, claim]
    if defect in ("sigma", "vertex"):  # the same class is named, so the bytes agree
        assert factored[:2] == oracle[:2]


def test_misnamed_vertex_fails_verify_with_deterministic_bytes(monkeypatch, tmp_path):
    octahedron = CORPUS_DIR / "octahedron.json"
    assert formats.load_complex(octahedron)[0].top_simplices[0] == (0, 2, 4)
    outputs = []
    for run, (plant, oracle) in enumerate([(tamper_vertex_table, False),
                                           (tamper_vertex_table, False),
                                           (tamper_subdivision_table, True)]):
        out = tmp_path / f"run{run}.json"
        with monkeypatch.context() as m:
            plant(m)
            if oracle:
                m.setattr(ledger, "_certify_realization", triangulation_tail)
            assert cli.main(["report", "--input", str(octahedron),
                             "--out", str(out)]) == 1
        outputs.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
        claims = json.loads(outputs[-1][0])["claims"]
        failed = [e["claim"] for e in claims if e["status"] == "fail"]
        # the first failure is the last claim: the later ones are absent
        assert failed == [claims[-1]["claim"]] == \
            ["realization map is well defined on face classes"]
        assert "with chain (1,) has 2 distinct images" in claims[-1]["detail"]
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# the template and the factored checks, one at a time

@pytest.mark.parametrize("n, flags", [(1, 2), (2, 12), (3, 144), (4, 2880)])
def test_template_is_a_closed_flag_triangulation(n, flags):
    template = flag_template(n)
    assert len(template.flags) == flags == factorial(n) * factorial(n + 1)
    assert template_is_closed(template)
    # (n+1)! nondegenerate flags, one per color order
    assert sorted(template.spells[template.spells >= 0].tolist()) == \
        list(range(factorial(n + 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_template_is_closed_matches_the_generator(n):
    template = flag_template(n)
    assert template_is_closed(template) == dict_oracle.template_is_closed(template)
    # two chains of length one swapped in every flag: the faces keep their
    # flag counts, so only the containment test can tell
    swap = np.arange(len(template.chains))
    swap[[1, 2]] = [2, 1]
    swapped = replace(template, flags=swap[template.flags])
    assert template_is_closed(swapped) == dict_oracle.template_is_closed(swapped)
    assert template_is_closed(swapped) == (n == 1)
    short = replace(template, flags=template.flags[1:])
    assert not template_is_closed(short)
    assert not dict_oracle.template_is_closed(short)


def test_broken_templates_are_rejected():
    template = flag_template(2)
    short = replace(template, flags=template.flags[1:])
    assert not template_is_closed(short)
    assert not template_is_surface(short)
    assert template_is_surface(template)


def test_surface_check_rejects_a_bad_vertex_link_or_chain():
    # the centre's link stays the 12-cycle in both plants, so each fails
    # on a link of the hexagon's boundary
    template = flag_template(2)
    assert template.flags[0].tolist() == [0, 1, 7]
    # the first flag read as (edge, centre, vertex): the link of its vertex
    # holds one path end through the centre, not two
    flags = template.flags.copy()
    flags[0, [0, 1]] = flags[0, [1, 0]]
    assert not template_is_surface(replace(template, flags=flags))
    # the chains of two edges swapped: the link of the edge (1,) now ends in
    # vertices whose chains neither contain it nor lie in it
    chains = list(template.chains)
    chains[1], chains[2] = chains[2], chains[1]
    assert not template_is_surface(replace(template, chains=chains))


@pytest.fixture(scope="module")
def covers():
    octa = ColoredPseudomanifold(*corpus.octahedron())
    sd3, _ = colored_from_complex(corpus.boundary_delta(3))
    join = ColoredPseudomanifold(*formats.complex_from_dict(INPUTS.cycle_join(2, 3))[:2])
    return {
        "hexagon": build_component(ColoredPseudomanifold(*corpus.hexagon_cycle())),
        "octahedron": build_component(octa),
        "octahedron-full": build_full(octa),
        "sd3": build_component(sd3),
        "join": build_component(join),
    }


@pytest.mark.parametrize("name", ["hexagon", "octahedron", "octahedron-full",
                                  "sd3", "join"])
def test_epsilon_is_orient_up_to_one_sign_per_component(covers, name):
    cover = covers[name]
    template = flag_template(cover.cp.n)
    assert is_oriented(template, cover.holonomies)
    tri = triangulate(cover.pc)
    parity = (-1) ** np.array([bin(g).count("1") for g in cover.g.tolist()])
    epsilon = parity[tri.cell_of_top] * template.sign[template_flag_of_tops(tri)]
    ratio = np.array(orient(tri.complex)) * epsilon
    component = cell_components(cover.pc)[tri.cell_of_top]
    for c in np.unique(component):
        assert len(set(ratio[component == c].tolist())) == 1


@pytest.mark.parametrize("name", ["hexagon", "octahedron", "octahedron-full",
                                  "sd3", "join"])
def test_push_forward_matches_verify_realization(covers, name):
    cover = covers[name]
    template = flag_template(cover.cp.n)
    classes = face_classes(cover.pc)
    vertex = vertex_table(cover.cp)
    check_well_defined(cover, template, vertex)
    got = push_forward(cover, template, vertex, oriented=True)
    want = verify_realization(realization_map(cover, classes))
    assert (got.degree, got.component_degrees, got.degenerate_flags,
            got.nondegenerate_flags, got.image_counts) == \
        (want.degree, want.component_degrees, want.degenerate_flags,
         want.nondegenerate_flags, want.image_counts)


def with_pair_sigma(cover, pair, top):
    """A copy of the cover with pair ``pair`` over top simplex ``top``:
    its cells, expanded on first read, lie over ``top`` too."""
    sigma = cover.pair_sigma.copy()
    sigma[pair] = top
    return replace(cover, pair_sigma=sigma)


def well_definedness_failures(cover, broken):
    """The messages of ``realization_map`` on the expanded cells of the
    broken cover and of ``check_well_defined`` on its pairs."""
    classes = face_classes(cover.pc)
    with pytest.raises(NotWellDefinedError, match="distinct images") as oracle:
        realization_map(broken, classes)
    with pytest.raises(NotWellDefinedError) as factored:
        check_well_defined(broken, flag_template(cover.cp.n),
                           vertex_table(cover.cp))
    return str(factored.value), str(oracle.value)


def test_well_definedness_names_the_class_realization_map_names(covers):
    cover = covers["octahedron"]
    broken = with_pair_sigma(cover, 0, cover.pair_sigma[0] ^ 0b111)
    factored, oracle = well_definedness_failures(cover, broken)
    assert factored == oracle


def test_well_definedness_names_the_class_above_a_lowest_pair(covers):
    # C4*C6 has |H| = 4 cells over each pair: the split pair is not pair 0,
    # so the class rank counts |H| classes per lower pair that is glued up
    cover = covers["join"]
    assert len(cover.basis) == 2
    broken = with_pair_sigma(cover, 100, cover.pair_sigma[7])
    factored, oracle = well_definedness_failures(cover, broken)
    assert factored == oracle
    cid, w = map(int, re.fullmatch(
        r"face class (\d+) with chain \((\d+),\) has 2 distinct images",
        factored).groups())
    cells = cover.num_cells
    rank = cid - cells - cover.pairs.subsets.index(w) * (cells // 2)
    assert rank > 0 and rank % 4 == 0


def test_push_forward_rejects_a_fibre_that_varies(covers):
    # no cell over triangle 3, twice as many over triangle 5 (same part)
    cover = covers["octahedron"]
    sigma = cover.pair_sigma.copy()
    sigma[sigma == 3] = 5
    with pytest.raises(DegreeNotConstantError, match="component 0 hits"):
        push_forward(replace(cover, pair_sigma=sigma), flag_template(2),
                     vertex_table(cover.cp), oriented=True)


def test_orientation_check_catches_a_parity_or_template_flip(covers):
    cover = covers["octahedron"]
    template = flag_template(2)
    g0 = cover.g0.copy()
    g0[1] ^= 0b10  # the cells 2 and 3 over pair 1
    assert not is_oriented(template, replace(cover, g0=g0).holonomies)
    sign = template.sign.copy()
    sign[5] = -sign[5]
    assert not is_oriented(replace(template, sign=sign), cover.holonomies)
    with pytest.raises(NonOrientableError):
        push_forward(cover, template, vertex_table(cover.cp),
                     oriented=False)


@pytest.fixture(scope="module")
def corpus_covers():
    """The component of every orientable corpus input, of sd(T^2), of the
    pinched torus and of sd(suspended octahedron), and the full cover set
    of those whose full set fits the default cap."""
    out = {}
    for name in ("hexagon", "octahedron", "boundary_delta3", "boundary_delta4"):
        bundle, _ = colored_from_complex(
            *formats.load_complex(CORPUS_DIR / f"{name}.json"))
        out[name] = build_component(bundle, max_cells=2 * 10 ** 6)
        if name in ("hexagon", "octahedron"):
            out[f"{name}-full"] = build_full(bundle)
    out["torus7"] = build_component(colored_from_complex(torus7())[0])
    out["pinched_torus"] = build_component(
        colored_from_complex(pinched_torus())[0])
    out["suspended_octahedron"] = build_component(
        colored_from_complex(suspension(corpus.octahedron()[0]))[0])
    return out


@pytest.mark.parametrize("name", ["hexagon", "hexagon-full", "octahedron",
                                  "octahedron-full", "boundary_delta3",
                                  "boundary_delta4", "torus7", "pinched_torus",
                                  "suspended_octahedron"])
def test_holonomy_orientation_agrees_with_the_glue_scan(corpus_covers, name):
    # the holonomies' parity against the glue scan it replaced, on the cover
    # and on copies with the g0 parity flipped at one pair, first or last
    cover = corpus_covers[name]
    template = flag_template(cover.cp.n)
    assert is_oriented(template, cover.holonomies)
    assert dict_oracle.is_oriented(template, cover.g0, cover.pairs.glue)
    for x in (0, cover.pairs.num_cells - 1):
        g0 = cover.g0.copy()
        g0[x] ^= 1
        flipped = replace(cover, g0=g0)
        assert not is_oriented(template, flipped.holonomies)
        assert not dict_oracle.is_oriented(template, flipped.g0,
                                           flipped.pairs.glue)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tomei_holonomy_orientation_agrees_with_the_glue_scan(n):
    pc, template = build_tomei(n), flag_template(n)
    g = np.arange(pc.num_cells)
    hol = holonomy(g, pc.glue, n)
    assert not hol.any()
    assert is_oriented(template, hol)
    assert dict_oracle.is_oriented(template, g, pc.glue)


def test_factored_path_never_triangulates(monkeypatch):
    from cyclecover import cells, realization

    def forbidden(*args, **kwargs):
        raise AssertionError("the cover was triangulated")

    for module, name in ((cli, "triangulate"), (cells, "triangulate"),
                         (cells, "face_classes"),
                         (ledger, "orient"),
                         (realization, "realization_map"),
                         (realization, "verify_realization")):
        monkeypatch.setattr(module, name, forbidden)
    validated = []
    genuine = ledger.validate_pseudomanifold
    monkeypatch.setattr(ledger, "validate_pseudomanifold",
                        lambda c: validated.append(c) or genuine(c))
    # the corpus octahedron carries its orientation, so nothing is oriented
    _, _, claims = run_pipeline(corpus_doc("octahedron"))
    assert claims.ok
    assert len(validated) == 1  # the input complex only


@pytest.mark.parametrize("mode", ["verify", "report"])
def test_verify_path_never_imports_the_realization_module(mode, tmp_path):
    # realization and the certificate read one face-id table; the
    # triangulation-based module must still stay off the verify path
    script = "\n".join([
        "import sys",
        "from cyclecover import cli",
        "codes = [cli.main([sys.argv[1], '--input', path, '--out', out])",
        "         for path, out in zip(sys.argv[2::2], sys.argv[3::2])]",
        "print(codes, 'cyclecover.realization' in sys.modules)",
    ])
    args = []
    for name in ("octahedron", "boundary_delta3"):
        args += [str(CORPUS_DIR / f"{name}.json"), str(tmp_path / f"{name}.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, mode, *args],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] False"
