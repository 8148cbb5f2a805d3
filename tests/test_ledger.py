"""The claims ledger under its one stop rule: one planted defect per claim,
each run through ``report``, and the flag template refused over the cap
before ``verify`` builds it.

A defect is a tampered corpus document or a monkeypatched stage.  A claim
that an earlier claim implies can only be reached by a monkeypatch that
breaks what it reads after the earlier claim has passed.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from extra_api import sphere_join
from cyclecover import cli, formats, ledger, pseudomanifold
from cyclecover.cells import PermutahedralComplex
from cyclecover.tomei import build_tomei

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"


def wrap(m, name, wrapper):
    """Replace the ledger's ``name`` by ``wrapper(genuine)``."""
    m.setattr(ledger, name, wrapper(getattr(ledger, name)))


# ---------------------------------------------------------------------------
# the planted defects: each takes the monkeypatch context and the corpus
# document, and returns the document to run

def drop_last_edge(m, doc):
    # the hexagon without edge (4, 5) is a path, with two boundary vertices
    return dict(doc, simplices=doc["simplices"][:-1],
                orientation=doc["orientation"][:-1])


def one_color_subdivision(m, doc):
    def subdivide(genuine):
        def one_color(c):
            sd = genuine(c)
            return replace(sd, coloring=[1] * sd.complex.num_vertices)
        return one_color

    wrap(m, "barycentric_subdivide", subdivide)
    return doc


def vertex_2_colored_1(m, doc):
    # top (0, 2, 4) then holds two vertices of color 1
    return dict(doc, colors=[1, 1, 1, 2, 3, 3])


def as_given(m, doc):
    return doc


def flipped_part(m, doc):
    # the parts read off an orientation with top 0 flipped, past the
    # orientation claim, which read the coherent one
    genuine = pseudomanifold._parts

    def parts(table, orientation, colors):
        orientation = list(orientation)
        orientation[0] = -orientation[0]
        return genuine(table, orientation, colors)

    m.setattr(pseudomanifold, "_parts", parts)
    return doc


def relabelled_base(m, doc):
    # M^n with its last two cells swapped: a closed complex, but cell 0 is
    # no longer glued to cell e_|w| across F_w
    def build(n):
        pc = build_tomei(n)
        label = np.arange(pc.num_cells)
        label[[-2, -1]] = label[[-1, -2]]
        glue = np.empty_like(pc.glue)
        glue[label] = label[pc.glue]
        return PermutahedralComplex(n, pc.num_cells, glue)

    m.setattr(ledger, "build_tomei", build)
    return doc


def identity_involutions(m, doc):
    m.setattr(ledger, "canonical_involution",
              lambda bundle, w: tuple(range(bundle.top_count)))
    return doc


def no_involution_for_1(m, doc):
    wrap(m, "count_compatible_involutions", lambda genuine: lambda cp, w: (
        0 if w == 0b1 else genuine(cp, w)))
    return doc


def full_build_capped(m, doc):
    wrap(m, "build_full", lambda genuine: lambda cp, cap, counts: (
        genuine(cp, 100, counts)))
    return doc


def component_capped(m, doc):
    wrap(m, "build_component", lambda genuine: lambda cp, max_cells: (
        genuine(cp, max_cells=100)))
    return doc


def flipped_g0_parity(m, doc):
    def build(genuine):
        def flipped(*args):
            cover = genuine(*args)
            g0 = cover.g0.copy()
            g0[5] ^= 1
            return replace(cover, g0=g0)
        return flipped

    wrap(m, "build_full", build)
    return doc


def first_flag_dropped(name):
    """The check ``name`` run on the template without its first flag."""
    def plant(m, doc):
        wrap(m, name, lambda genuine: lambda t: genuine(
            replace(t, flags=t.flags[1:])))
        return doc
    return plant


def doubled_degree(m, doc):
    def covering(genuine):
        def doubled(cover):
            report = genuine(cover)
            return replace(report, degree=2 * report.degree)
        return doubled

    wrap(m, "verify_covering", covering)
    return doc


def flipped_tau(m, doc):
    # flag 0 of every cell has the wrong sign
    def template(genuine):
        def flipped(n):
            t = genuine(n)
            sign = t.sign.copy()
            sign[0] = -sign[0]
            return replace(t, sign=sign)
        return flipped

    wrap(m, "flag_template", template)
    return doc


def antipodal_sigma(m, doc):
    # pair 0 over the antipodal triangle, after the covering check
    def certify(genuine):
        def tampered(cover, *args):
            sigma = cover.pair_sigma.copy()
            sigma[0] ^= 0b111
            return genuine(replace(cover, pair_sigma=sigma), *args)
        return tampered

    wrap(m, "_certify_realization", certify)
    return doc


def moved_fibre(m, doc):
    # the chain identity read on a cover with no cell over triangle 3 and
    # twice as many over triangle 5, after well-definedness has passed
    def push(genuine):
        def moved(cover, *args):
            sigma = cover.pair_sigma.copy()
            sigma[sigma == 3] = 5
            return genuine(replace(cover, pair_sigma=sigma), *args)
        return moved

    wrap(m, "push_forward", push)
    return doc


def fibre_moved_after_push(m, doc):
    # the fibres read on a cover with no pair over triangle 3 and twice as
    # many over triangle 5, after the realization has been checked and
    # pushed forward on the genuine cover
    genuine_cover = []

    def certify(genuine):
        def moved(cover, *args):
            genuine_cover.append(cover)
            sigma = np.where(cover.pair_sigma == 3, 5, cover.pair_sigma)
            return genuine(replace(cover, pair_sigma=sigma), *args)
        return moved

    def on_genuine_cover(genuine):
        return lambda cover, *args: genuine(genuine_cover[-1], *args)

    wrap(m, "_certify_realization", certify)
    wrap(m, "check_well_defined", on_genuine_cover)
    wrap(m, "push_forward", on_genuine_cover)
    return doc


def q_off_by_one(m, doc):
    wrap(m, "predicted_multiplicity", lambda genuine: lambda cp, counts: (
        genuine(cp, counts) + 1))
    return doc


# claim -> (corpus file, plant, a piece of the failing claim's detail)
DEFECTS = {
    "input is a closed connected pseudomanifold":
        ("hexagon", drop_last_edge, "boundary"),
    "regular coloring obtained by barycentric subdivision":
        ("boundary_delta3", one_color_subdivision, "24 top simplices"),
    "supplied coloring is regular":
        ("octahedron", vertex_2_colored_1, ""),
    "complex is orientable with coherent orientation":
        ("rp2_minimal", as_given, "; witness: ((3, 18), 36, 37)"),
    "facet-dual graph is bipartite":
        ("octahedron", flipped_part, "but lie in the same part"),
    "Tomei base complex built":
        ("octahedron", relabelled_base, "2^2 cells"),
    "canonical compatible involution exists for every color subset":
        ("octahedron", identity_involutions, ""),
    "compatible involutions counted for every color subset":
        ("octahedron", no_involution_for_1, "(1,):0, (2,):4"),
    "full cover set built and closed under crossings":
        ("octahedron", full_build_capped, "1024 cells, more than the cap 100"),
    "cover component built and closed under crossings":
        ("boundary_delta3", component_capped,
         "the cover component has 106 cells at least, one per pair numbered "
         "so far, more than the cap 100"),
    "projection to the Tomei base is a covering":
        ("octahedron", flipped_g0_parity, "violates the parity constraint"),
    "cover triangulation is a closed pseudomanifold in every component":
        ("octahedron", first_flag_dropped("template_is_closed"), ""),
    "euler characteristic is multiplicative":
        ("octahedron", doubled_degree, "-512 = 512 * -2"),
    "cover is a closed surface":
        ("octahedron", first_flag_dropped("template_is_surface"), ""),
    "cover is orientable":
        ("octahedron", flipped_tau, ""),
    "realization map is well defined on face classes":
        ("octahedron", antipodal_sigma, "has 2 distinct images"),
    "pushforward of the fundamental cycle is a constant positive multiple "
    "of the subdivided base cycle":
        ("octahedron", moved_fibre, "component 0 hits"),
    "realization degree equals the cell fiber over every base simplex":
        ("octahedron", fibre_moved_after_push, "fiber 128 over 8 simplices"),
    "cover is the full cover set and realizes the predicted multiplicity "
    "2^(n-1) * prod |P_w|":
        ("octahedron", q_off_by_one, "128 = 129"),
}


def test_every_claim_has_one_planted_defect():
    assert tuple(DEFECTS) == ledger.CLAIMS


def test_each_claim_is_named_once_in_the_package():
    text = "".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    assert [text.count(f'"{claim}"') for claim in ledger.CLAIMS] == \
        [1] * len(ledger.CLAIMS)


@pytest.mark.parametrize("claim", ledger.CLAIMS)
def test_planted_defect_fails_its_claim_and_ends_the_run(claim, tmp_path,
                                                         monkeypatch, capsys):
    name, plant, detail = DEFECTS[claim]
    written = []
    for run in ("first", "second"):
        source, out = tmp_path / f"{run}_input.json", tmp_path / f"{run}.json"
        with monkeypatch.context() as m:
            doc = json.loads((CORPUS_DIR / f"{name}.json").read_text())
            source.write_text(json.dumps(plant(m, doc)))
            assert cli.main(["report", "--input", str(source),
                             "--out", str(out)]) == 1
        written.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
    assert written[0] == written[1]
    assert "overall: FAIL" in capsys.readouterr().out

    claims = json.loads(written[0][0])["claims"]
    failed = [e for e in claims if e["status"] == "fail"]
    assert failed[0]["claim"] == claim
    assert detail in failed[0]["detail"]
    if claim == ledger.GOES_ON:
        # a non-orientable cover goes on to fail the pushforward as well
        assert [e["claim"] for e in failed[1:]] == [ledger.CLAIMS[16]]
        assert claims[-1] == failed[1]
    else:
        assert claims[-1] == failed[0]
    if claim not in ledger.WITNESSED:
        assert "witness" not in failed[0]["detail"]


# ---------------------------------------------------------------------------
# the flag template refused before it is built

@pytest.mark.parametrize("argv, size, unit, cap", [
    ([], 3628800, "flags", 1000000),
    (["--max-cells", "4000000"], 25401600, "flag faces", 4000000),
])
def test_n6_template_is_refused_before_it_is_built(argv, size, unit, cap,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    # C4*C4*C4*S0, n = 6 with 128 tops: grouping its template's flag faces
    # would take about 1.7 GB
    def forbidden(*args, **kwargs):
        raise AssertionError("built over the cap")

    for name in ("flag_template", "build_tomei"):
        monkeypatch.setattr(ledger, name, forbidden)
    cp = sphere_join(4, 4, 4, 0)
    source, out = tmp_path / "join.json", tmp_path / "report.json"
    formats.write_json(formats.complex_to_dict(cp.complex, coloring=cp.coloring),
                       source)
    start = time.perf_counter()
    assert cli.main(["report", "--input", str(source), "--out", str(out),
                     *argv]) == 1
    assert time.perf_counter() - start < 1
    claims = json.loads(out.read_text())["claims"]
    assert all(e["status"] == "pass" for e in claims[:-1])
    assert claims[-1] == {
        "claim": "Tomei base complex built", "status": "fail",
        "detail": f"the flag template of dimension 6 has {size} {unit}, "
                  f"more than the cap {cap}"}
    assert capsys.readouterr().out.endswith("overall: FAIL\n")
