"""Tests for JSON formats and the command-line driver.

CLI tests run main() in process and assert on exit codes, report files,
and byte-level determinism.  The shipped corpus files are regenerated from
the builders and compared byte for byte, so they cannot drift.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

import extra_api
from cyclecover import cli, corpus, covering, formats, ledger
from cyclecover.cells import PermutahedralComplex
from cyclecover.cli import build_parser, default_max_cells, main
from cyclecover.covering import build_component, build_full
from cyclecover.homology import boundary_matrices, homology
from cyclecover.pseudomanifold import (
    AbstractComplex,
    ColoredPseudomanifold,
    check_regular_coloring,
    orient,
    validate_pseudomanifold,
)
from cyclecover.tomei import build_tomei

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"
# the package exports the function ``homology`` under the module's name
homology_module = importlib.import_module("cyclecover.homology")

# q for sd(boundary of the 4-simplex), star by star: the 5 vertices and the
# 5 tetrahedron centers hold 12 + 12 flags each, the 10 edge and the 10
# triangle centers 6 + 6, the 60 (vertex, edge), (vertex, tetrahedron) and
# (triangle, tetrahedron) pairs 3 + 3, the 90 other incident pairs 2 + 2,
# times 2^(n-1) = 4
DELTA4_Q = (factorial(12) ** 10 * factorial(6) ** 20 * factorial(3) ** 60
            * 2 ** 90 * 4)


def hexagon_path() -> str:
    return str(CORPUS_DIR / "hexagon.json")


# ---------------------------------------------------------------------------
# formats

def test_complex_roundtrip():
    c, colors = corpus.octahedron()
    orientation = orient(c)
    d = formats.complex_to_dict(c, colors, orientation)
    c2, colors2, orientation2 = formats.complex_from_dict(
        json.loads(formats.dumps(d)))
    assert c2.top_simplices == c.top_simplices
    assert c2.num_vertices == c.num_vertices
    assert colors2 == colors
    assert orientation2 == orientation


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("n"), "missing 'n'"),
    (lambda d: d.pop("simplices"), "missing 'simplices'"),
    (lambda d: d.update(n="2"), "must be integers"),
    (lambda d: d.update(simplices=[[0, "1"]]), "lists of integers"),
    (lambda d: d.update(colors=[1, 2]), "one integer per vertex"),
    (lambda d: d.update(orientation=[2] * 8), "must assign"),
    # JSON booleans are Python ints, but not integers of the schema
    pytest.param(lambda d: d.update(n=True), "must be integers", id="n true"),
    pytest.param(lambda d: d.update(num_vertices=False), "must be integers",
                 id="num_vertices false"),
    pytest.param(lambda d: d.update(simplices=[[True if v == 1 else v for v in s]
                                               for s in d["simplices"]]),
                 "lists of integers", id="vertex 1 true"),
    pytest.param(lambda d: d.update(colors=[True if x == 1 else x
                                            for x in d["colors"]]),
                 "one integer per vertex", id="color 1 true"),
    pytest.param(lambda d: d.update(orientation=[True if x == 1 else x
                                                 for x in d["orientation"]]),
                 "must assign", id="orientation true"),
    pytest.param(lambda d: d["orientation"].__setitem__(0, 1.0), "must assign",
                 id="orientation float"),
])
def test_complex_schema_rejections(mutate, message):
    c, colors = corpus.octahedron()
    d = formats.complex_to_dict(c, colors, orient(c))
    mutate(d)
    with pytest.raises(ValueError, match=message):
        formats.complex_from_dict(d)


def test_complex_from_dict_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        formats.complex_from_dict([1, 2, 3])


def test_cell_complex_roundtrip():
    pc = build_tomei(2)
    d = formats.cell_complex_to_dict(pc)
    pc2 = extra_api.cell_complex_from_dict(json.loads(formats.dumps(d)))
    assert pc2.n == pc.n
    assert pc2.num_cells == pc.num_cells
    assert np.array_equal(pc2.glue, pc.glue)


def test_cover_roundtrip():
    cp = ColoredPseudomanifold(*corpus.octahedron())
    cover = build_component(cp)
    d = json.loads(formats.dumps(formats.cover_to_dict(cover)))
    cells = extra_api.cover_cells_from_dict(d)
    assert cells == extra_api.cover_cells(cover)
    assert np.array_equal(extra_api.cell_complex_from_dict(
        {"n": d["n"], "num_cells": len(cells), "glue": d["glue"]},
    ).glue, cover.pc.glue)


@pytest.mark.parametrize("entry, message", [
    ([7, [1], 0], "outside range"),
    ([-1, [2], 0], "outside range"),
    ([0, [1], 2], "outside range"),
    ([0, [1, 2], 1], "not labelled"),
    ([0, [], 1], "not labelled"),
    ([0, [3], 1], "not labelled"),
    ([0, [1, 1], 1], "not labelled"),
    ([0, [1], 1], "repeats"),
])
def test_glue_loader_rejects_malformed_entries(entry, message):
    d = formats.cell_complex_to_dict(build_tomei(1))  # 2 cells, labels [1], [2]
    d["glue"].append(entry)
    with pytest.raises(ValueError, match=message):
        extra_api.cell_complex_from_dict(d)


def test_dumps_is_deterministic():
    a = formats.dumps({"b": 1, "a": [3, 2]})
    b = formats.dumps({"a": [3, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_dot_export():
    c, _ = corpus.hexagon_cycle()
    dot = extra_api.dot_dual_graph(c)
    assert dot.count(" -- ") == 6
    assert dot.startswith("graph dual {")


def test_shipped_corpus_has_not_drifted():
    c, colors = corpus.hexagon_cycle()
    expected = {
        "hexagon.json": formats.complex_to_dict(c, colors, orient(c)),
    }
    c, colors = corpus.octahedron()
    expected["octahedron.json"] = formats.complex_to_dict(c, colors, orient(c))
    expected["boundary_delta3.json"] = formats.complex_to_dict(
        corpus.boundary_delta(3))
    expected["boundary_delta4.json"] = formats.complex_to_dict(
        corpus.boundary_delta(4))
    expected["rp2_minimal.json"] = formats.complex_to_dict(corpus.rp2_minimal())
    for name, d in expected.items():
        assert (CORPUS_DIR / name).read_text(encoding="utf-8") \
            == formats.dumps(d), f"{name} drifted from its builder"


# ---------------------------------------------------------------------------
# CLI plumbing

@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_max_cells_flag_exits_two(value, capsys):
    assert main(["verify", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--max-cells", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: max_cells must be positive, got {value}\n"


def test_cli_surface(capsys):
    parser = build_parser()
    modes = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert set(modes) == {"validate", "subdivide", "tomei", "cover",
                          "homology", "verify", "report"}
    for mode in modes:
        required = ["--n", "2"] if mode == "tomei" else ["--input", "x.json"]
        args = parser.parse_args([mode, *required, "--max-cells", "7"])
        assert args.max_cells == 7
    with pytest.raises(SystemExit) as e:  # the involution count has no cap
        main(["verify", "--input", hexagon_path(), "--matching-cap", "24"])
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, cells", [
    ("boundary_delta3.json", 5_159_780_352),
    ("boundary_delta4.json", 120 * DELTA4_Q),
])
def test_cover_full_over_cap_enumerates_nothing(name, cells, monkeypatch, capsys):
    calls = Counter()
    enumerate_pool = covering.enumerate_compatible_involutions

    def counted(*args):
        calls["enumerate"] += 1
        return enumerate_pool(*args)

    monkeypatch.setattr(covering, "enumerate_compatible_involutions", counted)
    assert main(["cover", "--input", str(CORPUS_DIR / name), "--full",
                 "--max-cells", "1000000"]) == 1
    assert capsys.readouterr().err == (
        f"check failed: full cover set has {cells} cells, more than the cap "
        f"1000000\n")
    assert not calls


@pytest.mark.parametrize("mode", ["cover", "verify"])
def test_out_of_memory_is_one_line(mode, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_covering", exhausted)
    monkeypatch.setattr(ledger, "verify_covering", exhausted)
    assert main([mode, "--input", str(CORPUS_DIR / "octahedron.json")]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: out of memory in {mode}\n"


def test_default_max_cells_env(monkeypatch):
    monkeypatch.delenv("REALIZER_MAX_CELLS", raising=False)
    assert default_max_cells() == 10 ** 6
    monkeypatch.setenv("REALIZER_MAX_CELLS", "500")
    assert default_max_cells() == 500
    monkeypatch.setenv("REALIZER_MAX_CELLS", "zero")
    with pytest.raises(ValueError):
        default_max_cells()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["tomei"])  # missing --n
    assert e.value.code == 2
    capsys.readouterr()


def test_missing_and_malformed_input(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["validate", "--input", str(bad)]) == 2
    capsys.readouterr()


def test_repeated_top_simplex_exits_two(tmp_path, capsys):
    # the octahedron with its first triangle listed again: once deduplicated
    # silently, so the document passed verify
    c, colors = corpus.octahedron()
    doc = formats.complex_to_dict(c, colors)
    doc["simplices"].append(list(reversed(doc["simplices"][0])))
    path = tmp_path / "repeated.json"
    formats.write_json(doc, path)
    for mode in ("validate", "verify"):
        assert main([mode, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: top simplex (0, 2, 4) is listed more than once\n"


def test_bad_env_value_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REALIZER_MAX_CELLS", "many")
    assert main(["verify", "--input", hexagon_path()]) == 2
    capsys.readouterr()


def test_nonpositive_env_value_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("REALIZER_MAX_CELLS", "0")
    assert main(["verify", "--input", hexagon_path()]) == 2
    assert capsys.readouterr() == (
        "", "error: REALIZER_MAX_CELLS must be positive, got 0\n")


@pytest.mark.parametrize("simplices, message", [
    ([], "complex has no top simplices"),
    ([[0, 1, 2], [0, 1]], "top simplex (0, 1) does not have 3 distinct vertices"),
], ids=["no tops", "short top"])
def test_malformed_top_simplices_exit_two(simplices, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "num_vertices": 5,
                                "simplices": simplices}), encoding="utf-8")
    assert main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_subdivide_without_out_exits_two(capsys):
    assert main(["subdivide", "--input", hexagon_path()]) == 2
    assert capsys.readouterr() == ("", "error: subdivide requires --out\n")


# ---------------------------------------------------------------------------
# subcommands

def test_validate_good_and_bad(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["validate", "--input", hexagon_path(),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] and report["connected"]
    assert report["coloring_regular"] is True

    bad = tmp_path / "two.json"
    formats.write_json(formats.complex_to_dict(corpus.two_triangles()), bad)
    assert main(["validate", "--input", str(bad), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["ok"]
    assert report["boundary_faces"]
    capsys.readouterr()


@pytest.mark.parametrize("complex, summary", [
    # three triangles on the edge (0, 1): it is in more than two tops, so no
    # two tops are adjacent
    (AbstractComplex(2, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
     "6 boundary facet(s), e.g. (0, 2); 1 facet(s) in more than two top "
     "simplices, e.g. (0, 1) in 3; facet-dual graph is disconnected"),
    (corpus.disjoint_circles(), "facet-dual graph is disconnected"),
], ids=["three on an edge", "disjoint circles"])
def test_validate_names_every_failure(complex, summary, tmp_path, capsys):
    path = tmp_path / "bad.json"
    formats.write_json(formats.complex_to_dict(complex), path)
    assert main(["validate", "--input", str(path)]) == 1
    assert capsys.readouterr() == (summary + "\n", "")


def test_validate_flags_irregular_coloring(tmp_path, capsys):
    c, _ = corpus.octahedron()
    doc = formats.complex_to_dict(c, coloring=[1] * 6)
    path = tmp_path / "mono.json"
    formats.write_json(doc, path)
    assert main(["validate", "--input", str(path)]) == 1
    assert "NOT regular" in capsys.readouterr().out


def test_subdivide_writes_colored_complex(tmp_path, capsys):
    out = tmp_path / "sd.json"
    assert main(["subdivide", "--input", str(CORPUS_DIR / "rp2_minimal.json"),
                 "--out", str(out)]) == 0
    c, colors, orientation = formats.load_complex(out)
    assert len(c.top_simplices) == 60
    assert orientation is None
    assert check_regular_coloring(c, colors)
    capsys.readouterr()


def test_tomei_writes_valid_outputs(tmp_path, capsys):
    out, cells_out = tmp_path / "m2.json", tmp_path / "m2_cells.json"
    assert main(["tomei", "--n", "2", "--out", str(out),
                 "--cells-out", str(cells_out)]) == 0
    c, colors, _ = formats.load_complex(out)
    assert validate_pseudomanifold(c).ok
    assert check_regular_coloring(c, colors)
    pc = extra_api.cell_complex_from_dict(json.loads(cells_out.read_text()))
    assert np.array_equal(pc.glue, build_tomei(2).glue)
    capsys.readouterr()


def test_cover_component_and_full(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["cover", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["cells"]) == 16
    assert main(["cover", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--full", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["cells"]) == 1024
    capsys.readouterr()


def test_cover_rejects_nonorientable(capsys):
    assert main(["cover", "--input", str(CORPUS_DIR / "rp2_minimal.json")]) == 1
    assert "check failed" in capsys.readouterr().err


def test_cover_with_boundary_names_an_input_facet(tmp_path, capsys):
    path = tmp_path / "two_triangles.json"
    formats.write_json(formats.complex_to_dict(corpus.two_triangles()), path)
    assert main(["cover", "--input", str(path)]) == 2
    # the facet is one of the input's four boundary edges, not an edge of
    # its subdivision
    assert capsys.readouterr().err == (
        "error: not a closed pseudomanifold: 4 boundary facet(s), "
        "e.g. (0, 2)\n")


def test_homology_output(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["homology", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    groups = homology(corpus.octahedron()[0])
    assert report["groups"] == [
        {"betti": g.betti, "torsion": g.torsion} for g in groups]
    assert "H_2 = Z" in capsys.readouterr().out


def test_homology_over_cap_allocates_no_matrix(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m3.json"
    assert main(["tomei", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    calls = Counter()

    def counted(c):
        calls["boundary_matrices"] += 1
        return boundary_matrices(c)

    monkeypatch.setattr(homology_module, "boundary_matrices", counted)
    assert main(["homology", "--input", str(path), "--max-cells", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the caps are checked from ∂_3 down: the first refused is the highest
    assert captured.err == (
        "check failed: homology needs the boundary matrix ∂_3 of the 1152 "
        "3-faces, 4608 nonzero entries, over the cap of 1000\n")
    # the octahedron cover component triangulates into 88 vertices, 288
    # edges and 192 triangles: ∂_1 and ∂_2 have 2 x 288 = 3 x 192 = 576
    # nonzero entries, and both are signed graphs, reduced without peeling
    assert main(["cover", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--cells-out", str(path)]) == 0
    capsys.readouterr()
    assert main(["homology", "--input", str(path), "--max-cells", "576"]) == 0
    assert main(["homology", "--input", str(path), "--max-cells", "575"]) == 1
    assert capsys.readouterr().err == (
        "check failed: homology needs the boundary matrix ∂_2 of the 192 "
        "2-faces, 576 nonzero entries, over the cap of 575\n")
    # homology makes no dense boundary matrix, on a passing run either
    assert not calls


# the groups of M^3 that homology printed when the cap was the square of
# the most faces of one dimension, 2304^2 = 5,308,416 entries
M3_HOMOLOGY = "".join(f"H_{k} = {group}\n" for k, group in enumerate(
    ["Z", " + ".join(["Z"] * 11), " + ".join(["Z"] * 11), "Z"]))


def test_homology_cap_is_the_largest_boundary_matrix(tmp_path, capsys):
    # M^3 triangulates into 160, 1312, 2304 and 1152 faces, so ∂_2 has the
    # most nonzero entries, 3 x 2304.  Peeling the transpose of ∂_2 pairs
    # 1142 of its 1312 columns; X beside the pivots has 5758 nonzero
    # entries and S none, so every cap that admits the boundary matrices
    # admits M^3
    path = tmp_path / "m3.json"
    assert main(["tomei", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["homology", "--input", str(path), "--max-cells", "6912"]) == 0
    assert capsys.readouterr() == (M3_HOMOLOGY, "")
    assert main(["homology", "--input", str(path), "--max-cells", "6911"]) == 1
    assert capsys.readouterr() == ("", (
        "check failed: homology needs the boundary matrix ∂_2 of the 2304 "
        "2-faces, 6912 nonzero entries, over the cap of 6911\n"))


def eulerian(n: int, i: int) -> int:
    """A(n, i): the permutations of n letters with i descents."""
    return sum((-1) ** j * comb(n + 1, j) * (i + 1 - j) ** n
               for j in range(i + 1))


def test_homology_of_m3_is_the_permutahedron_h_vector(tmp_path, monkeypatch,
                                                      capsys):
    # M^n is a small cover over the n-permutahedron (Davis and
    # Januszkiewicz, 1991), so its Betti numbers are the permutahedron's
    # h-vector, the Eulerian numbers A(n + 1, i)
    monkeypatch.delenv(cli.MAX_CELLS_ENV, raising=False)
    path, out = tmp_path / "m3.json", tmp_path / "h.json"
    assert main(["tomei", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["homology", "--input", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr() == (M3_HOMOLOGY, "")
    groups = json.loads(out.read_text())["groups"]
    assert [g["betti"] for g in groups] == [eulerian(4, i) for i in range(4)] \
        == [1, 11, 11, 1]
    assert all(g["torsion"] == [] for g in groups)


def homology_in_child(path, *args) -> tuple[subprocess.CompletedProcess, float]:
    """``homology`` on ``path`` in a child process, at the default cap
    unless ``args`` set one, and its wall time in seconds."""
    env = {k: v for k, v in os.environ.items() if k != cli.MAX_CELLS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cyclecover", "homology",
                           "--input", str(path), *args],
                          capture_output=True, text=True, env=env)
    return done, time.perf_counter() - start


def test_homology_of_m4_is_the_permutahedron_h_vector(tmp_path):
    # M^4 has 46,080 tops.  Its ∂_2 leaves an empty S; peeling its ∂_3
    # makes 910,230 nonzero entries of X and a 1010 x 1600 S of ±1 entries,
    # which a second round peels to nothing.  Both pass the default cap in
    # a child process (3.4 s on a 2-CPU machine), and its Betti numbers are
    # the Eulerian numbers A(5, i), with no torsion
    path, out = tmp_path / "m4.json", tmp_path / "h.json"
    assert main(["tomei", "--n", "4", "--out", str(path)]) == 0
    done, seconds = homology_in_child(path, "--out", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    groups = json.loads(out.read_text())["groups"]
    assert [g["betti"] for g in groups] == [eulerian(5, i) for i in range(5)] \
        == [1, 26, 66, 26, 1]
    assert all(g["torsion"] == [] for g in groups)
    assert seconds < 30
    # every boundary matrix of M^4 has at most 460,800 nonzero entries, so
    # at a cap of 500,000 the X of ∂_3 is the first to be refused, as it is
    # made (2.8 s)
    done, seconds = homology_in_child(path, "--max-cells", "500000")
    assert (done.returncode, done.stdout, done.stderr) == (1, "", (
        "check failed: homology needs X = P^-1 A beside the 69050 unit "
        "pivots of ∂_3, 500179 nonzero entries so far, over the cap of "
        "500000\n"))
    assert seconds < 30


def test_homology_refuses_a_high_simplex_boundary_at_once(tmp_path):
    # ∂Δ23 has C(24, k + 1) k-faces, and ∂_17 is the first boundary matrix
    # over the cap from the top down; it is refused before any face level
    # below it is built, where building them all took seconds and gigabytes
    path = tmp_path / "delta23.json"
    formats.write_json(formats.complex_to_dict(corpus.boundary_delta(23)), path)
    done, seconds = homology_in_child(path)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", (
        "check failed: homology needs the boundary matrix ∂_17 of the 134596 "
        "17-faces, 2422728 nonzero entries, over the cap of 1000000\n"))
    assert seconds < 2


def test_homology_refuses_smith_transforms_over_the_cap(tmp_path, monkeypatch,
                                                         capsys):
    # ∂Δ5 has 6, 15, 20, 15 and 6 faces.  ∂_1 and ∂_4 are signed graphs,
    # reduced without peeling; ∂_2 is not, and is peeled on its 20 x 15
    # transpose.  With no unit pivot peeled, its Schur complement is all of
    # it, 60 nonzero entries, and the row transform has 20^2 entries, more
    # than anything else that homology makes of ∂Δ5
    path = tmp_path / "delta5.json"
    formats.write_json(formats.complex_to_dict(corpus.boundary_delta(5)), path)

    genuine = homology_module.smith_normal_form

    def empty_only(s):
        assert not s.size, "a Smith form was begun"
        return genuine(s)

    monkeypatch.setattr(homology_module, "_peel", lambda *entries: ([], []))
    monkeypatch.setattr(homology_module, "smith_normal_form", empty_only)
    assert main(["homology", "--input", str(path), "--max-cells", "399"]) == 1
    assert capsys.readouterr() == ("", (
        "check failed: homology needs a Smith transform of the 20 x 15 Schur "
        "complement of ∂_2, 20 x 20, 400 entries, over the cap of 399\n"))


def test_homology_refuses_the_diagonal_schur_complement_before_making_it(
        tmp_path, monkeypatch, capsys):
    # 3000 disjoint copies of RP^2: ∂_1 and ∂_2 have 2 x 45000 = 3 x 30000
    # = 90000 nonzero entries, at the cap.  ∂_2 is a signed graph with 3000
    # unbalanced components, so its Schur complement is diag(2, ..., 2),
    # 3000 x 3000: that object array alone would take 72 MB, and its Smith
    # transforms 3000^2 entries each.  It is refused before it is made
    path = tmp_path / "rp2s.json"
    rp2s = extra_api.disjoint_union(*[corpus.rp2_minimal()] * 3000)
    formats.write_json(formats.complex_to_dict(rp2s), path)

    genuine = homology_module.smith_normal_form

    def empty_only(s):
        assert not s.size, "a Smith form was begun"
        return genuine(s)

    monkeypatch.setattr(homology_module, "smith_normal_form", empty_only)
    tracemalloc.start()
    try:
        assert main(["homology", "--input", str(path), "--max-cells", "90000"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == ("", (
        "check failed: homology needs a Smith transform of the 3000 x 3000 "
        "Schur complement of ∂_2, 3000 x 3000, 9000000 entries, over the cap "
        "of 90000\n"))
    assert peak < 36_000_000  # half of that array


# ---------------------------------------------------------------------------
# verify and report

def test_verify_hexagon_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--input", hexagon_path(), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["component_cells"] == 6
    assert report["covering_degree"] == 3
    assert report["q_component"] == 1
    assert report["q_formula"] == 1
    assert report["per_simplex_counts_checksum"].startswith("sha256:")
    assert all(e["status"] == "pass" for e in report["claims"])
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_octahedron_full_multiplicity(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["component_cells"] == 1024
    assert report["covering_degree"] == 256
    assert report["q_component"] == 128
    assert report["q_formula"] == 128
    capsys.readouterr()


def test_report_reuses_base_pools_and_cover_orientation(tmp_path, monkeypatch,
                                                       capsys):
    # the octahedron corpus file carries its orientation, and the cover's
    # orientation is read off its cell arrays, so nothing is oriented
    calls = Counter()

    def count(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in ("cli", "ledger", "covering", "cells", "realization",
                   "certificate", "pseudomanifold"):
        module = importlib.import_module(f"cyclecover.{module}")
        for name in ("build_tomei", "enumerate_compatible_involutions", "orient",
                     "face_classes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    assert main(["report", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(tmp_path / "report.json")]) == 0
    # no face classes: the class counts of the base and the cover are
    # read off their cell counts
    assert calls == Counter(build_tomei=1, enumerate_compatible_involutions=6,
                            orient=0, face_classes=0)
    capsys.readouterr()


def test_verify_nonorientable_fails_with_witness(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--input", str(CORPUS_DIR / "rp2_minimal.json"),
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False
    failed = [e for e in report["claims"] if e["status"] == "fail"]
    assert len(failed) == 1
    assert "orientable" in failed[0]["claim"]
    assert "witness" in failed[0]["detail"]
    capsys.readouterr()


def test_report_fails_an_incoherent_supplied_orientation(tmp_path, capsys):
    # one sign flipped: the octahedron stays orientable, its orientation not
    doc = json.loads((CORPUS_DIR / "octahedron.json").read_text())
    doc["orientation"][0] = -doc["orientation"][0]
    path = tmp_path / "incoherent.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert main(["report", "--input", str(path), "--out", str(out)]) == 1
        outputs.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0][0])
    assert report["claims"][-1] == {
        "claim": "complex is orientable with coherent orientation",
        "status": "fail",
        "detail": "supplied orientation is not coherent",
    }
    assert all(e["status"] == "pass" for e in report["claims"][:-1])
    assert report["ok"] is False and report["component_cells"] is None
    out, err = capsys.readouterr()
    assert "overall: FAIL" in out and err == ""


def uncolored_octahedron(path, orientation) -> str:
    """Write to ``path`` the corpus octahedron without its colors, so that
    it is subdivided, with ``orientation`` in place of its own (none when
    None)."""
    doc = json.loads((CORPUS_DIR / "octahedron.json").read_text())
    del doc["colors"]
    if orientation is None:
        del doc["orientation"]
    else:
        doc["orientation"] = orientation
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("mode", ["verify", "report"])
def test_incoherent_orientation_fails_before_subdividing(mode, tmp_path, capsys):
    # all +1 on the octahedron is not coherent; it was once dropped with the
    # colors, and the subdivision passed every claim
    path = uncolored_octahedron(tmp_path / "all_plus.json", [1] * 8)
    out = tmp_path / "report.json"
    assert main([mode, "--input", path, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["claims"] == [
        {"claim": "input is a closed connected pseudomanifold", "status": "pass",
         "detail": "closed pseudomanifold: every facet interior, dual graph "
                   "connected"},
        {"claim": "regular coloring obtained by barycentric subdivision",
         "status": "pass", "detail": "48 top simplices"},
        {"claim": "complex is orientable with coherent orientation",
         "status": "fail", "detail": "supplied orientation is not coherent"},
    ]
    assert report["ok"] is False and report["component_cells"] is None
    assert "overall: FAIL" in capsys.readouterr().out


def test_coherent_orientation_of_an_uncolored_input_keeps_the_report(tmp_path,
                                                                     capsys):
    signs = json.loads((CORPUS_DIR / "octahedron.json").read_text())["orientation"]
    reports = []
    for run, orientation in enumerate((None, signs, [-s for s in signs])):
        path = uncolored_octahedron(tmp_path / f"input{run}.json", orientation)
        out = tmp_path / f"report{run}.json"
        assert main(["report", "--input", path, "--out", str(out)]) == 0
        reports.append((out.read_bytes(), out.with_suffix(".txt").read_bytes()))
    assert reports[0] == reports[1] == reports[2]
    capsys.readouterr()


def test_cover_refuses_an_incoherent_orientation_before_subdividing(tmp_path,
                                                                   capsys):
    path = uncolored_octahedron(tmp_path / "all_plus.json", [1] * 8)
    assert main(["cover", "--input", path]) == 2
    assert capsys.readouterr() == (
        "", "error: supplied orientation is not coherent\n")


def test_verify_checks_the_canonical_involutions(tmp_path, monkeypatch, capsys):
    # an identity in place of each canonical involution has fixed points
    monkeypatch.setattr(ledger, "canonical_involution",
                        lambda bundle, w: tuple(range(bundle.top_count)))
    out = tmp_path / "report.json"
    assert main(["verify", "--input", str(CORPUS_DIR / "octahedron.json"),
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    last = report["claims"][-1]
    assert last["claim"] == ("canonical compatible involution exists for "
                             "every color subset")
    assert last["status"] == "fail"
    assert all(e["status"] == "pass" for e in report["claims"][:-1])
    assert report["q_formula"] is None and report["component_cells"] is None
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_counts_involutions_past_sixteen_simplices(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--input", str(CORPUS_DIR / "boundary_delta3.json"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c for _, c in report["involution_counts"]] \
        == [1296, 64, 1296, 1, 1, 1]
    assert report["q_formula"] == 214_990_848
    # the full set is over the cap, so the component is what gets certified
    assert (report["component_cells"], report["covering_degree"],
            report["q_component"]) == (432, 108, 18)
    assert all(e["status"] == "pass" for e in report["claims"])

    assert main(["verify", "--input", str(CORPUS_DIR / "boundary_delta4.json"),
                 "--max-cells", "1000", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["q_formula"] == DELTA4_Q and len(str(DELTA4_Q)) == 219
    failed = [e["claim"] for e in report["claims"] if e["status"] != "pass"]
    assert failed == ["cover component built and closed under crossings"]
    capsys.readouterr()


def test_full_verify_counts_each_star_once(monkeypatch, capsys):
    # the ledger, q and the full build's cap guard share one count per
    # proper color subset: 2^(n+1) - 2 = 6 on the octahedron
    from cyclecover import involutions

    calls = Counter()
    genuine = involutions.count_compatible_involutions

    def counted(cp, subset):
        calls[subset] += 1
        return genuine(cp, subset)

    monkeypatch.setattr(ledger, "count_compatible_involutions", counted)
    monkeypatch.setattr(involutions, "count_compatible_involutions", counted)
    assert main(["verify", "--input", str(CORPUS_DIR / "octahedron.json")]) == 0
    assert "full cover set built" in capsys.readouterr().out
    assert sum(calls.values()) == 6 and set(calls.values()) == {1}


def test_report_writes_a_q_past_the_int_to_string_limit(tmp_path, capsys):
    # sd(boundary of the 5-simplex) has a q of 4647 digits, past the
    # interpreter's default 4300-digit cap on int-to-string conversion
    import sys

    from cyclecover.involutions import predicted_multiplicity
    from cyclecover.pseudomanifold import colored_from_complex

    source = tmp_path / "delta5.json"
    formats.write_json(formats.complex_to_dict(corpus.boundary_delta(5)), source)
    out = tmp_path / "report.json"
    # the cap holds the n = 4 flag template (14400 flag faces), so the run
    # gets past the base to the component
    assert main(["report", "--input", str(source), "--max-cells", "20000",
                 "--out", str(out)]) == 1
    assert "cover component built" in capsys.readouterr().out
    bundle, _ = colored_from_complex(corpus.boundary_delta(5))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out.read_text())
        assert report["q_formula"] == predicted_multiplicity(bundle)
        assert len(str(report["q_formula"])) == 4647
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["claims"][-1]["status"] == "fail"
    assert "component exceeded 20000 cells" in report["claims"][-1]["detail"]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("mode", ["verify", "report"])
def test_involution_counts_past_the_int_to_string_limit(tmp_path, capsys, mode):
    # sd(boundary of the 6-simplex) has involution counts of more than 4300
    # digits, which the claim's detail writes in full; the run fails later,
    # on the tuple codes, and the interpreter's cap is back when main returns
    source = tmp_path / "delta6.json"
    formats.write_json(formats.complex_to_dict(corpus.boundary_delta(6)), source)
    out = tmp_path / "report.json"
    limit = sys.get_int_max_str_digits()
    assert main([mode, "--input", str(source), "--out", str(out)]) == 1
    assert sys.get_int_max_str_digits() == limit
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[   PASS] compatible involutions counted" in captured.out
    assert "more than int64 holds" in captured.out
    assert captured.out.endswith("overall: FAIL\n")
    assert out.with_suffix(".txt").exists() == (mode == "report")
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out.read_text())
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(c for _, c in report["involution_counts"]) > 10 ** 4300
    last = report["claims"][-1]
    assert (last["claim"], last["status"]) == (
        "cover component built and closed under crossings", "fail")
    assert "tuple codes need" in last["detail"]


def test_verify_cap_exceeded_fails(capsys):
    assert main(["verify", "--input", str(CORPUS_DIR / "boundary_delta4.json"),
                 "--max-cells", "20000"]) == 1
    assert "exceeded" in capsys.readouterr().out


def test_verify_env_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REALIZER_MAX_CELLS", "100")
    assert main(["verify", "--input",
                 str(CORPUS_DIR / "boundary_delta3.json")]) == 1
    # an explicit flag overrides the environment
    assert main(["verify", "--input", str(CORPUS_DIR / "boundary_delta3.json"),
                 "--max-cells", "1000"]) == 0
    capsys.readouterr()


def test_report_requires_out(capsys):
    assert main(["report", "--input", hexagon_path()]) == 2
    capsys.readouterr()


def test_report_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["report", "--input", hexagon_path(), "--out", str(a)]) == 0
    assert main(["report", "--input", hexagon_path(), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".txt").read_bytes() == b.with_suffix(".txt").read_bytes()
    assert "overall: PASS" in a.with_suffix(".txt").read_text()
    capsys.readouterr()


CELL_ARRAYS = ("sigma", "tuple_id", "g", "pc")


def forbid(monkeypatch, names=CELL_ARRAYS):
    """Make the named ``CoverComplex`` properties raise when read."""
    def expanded(cover):
        raise AssertionError("cell arrays expanded")

    for name in names:
        monkeypatch.setattr(covering.CoverComplex, name, property(expanded))


def join_path(tmp_path, a, b):
    path = tmp_path / f"join{a}x{b}.json"
    path.write_text(json.dumps(extra_api.benchmark_inputs().cycle_join(a, b)))
    return path


@pytest.mark.parametrize("name", ["octahedron", "join C4*C10"])
def test_cover_never_expands_the_cells(name, monkeypatch, capsys, tmp_path):
    # ``cover`` without --out or --cells-out certifies and counts the cover
    # on its pairs: the cell arrays and the cell glue are never made
    path = (CORPUS_DIR / "octahedron.json" if name == "octahedron"
            else join_path(tmp_path, 2, 5))
    argv = ["cover", "--input", str(path), "--max-cells", "1000000"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    forbid(monkeypatch, CELL_ARRAYS + ("components",))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert expected == {"octahedron": "cover: 16 cells, covering degree 4\n",
                        "join C4*C10": "cover: 20000 cells, covering degree 2500\n"}[name]


@pytest.mark.parametrize("mode", ["verify", "report"])
@pytest.mark.parametrize("name", ["octahedron", "boundary_delta3",
                                  "rp2_minimal", "join C4*C6"])
def test_verify_never_expands_the_cells(name, mode, monkeypatch, capsys, tmp_path):
    # every claim is certified on the pairs: the full octahedron set (64
    # components), a built component, an input that fails before any cover
    # is built, and a component at n = 3
    path = (join_path(tmp_path, 2, 3) if name == "join C4*C6"
            else CORPUS_DIR / f"{name}.json")

    def run(out):
        code = main([mode, "--input", str(path), "--out", str(out)])
        texts = [out.with_suffix(".txt").read_bytes()] if mode == "report" else []
        return code, capsys.readouterr().out, out.read_bytes(), texts

    expected = run(tmp_path / "expanding.json")
    forbid(monkeypatch)
    assert run(tmp_path / "pairs.json") == expected
    assert expected[0] == (1 if name == "rp2_minimal" else 0)


def test_north_star_report_never_expands_the_cells(monkeypatch, capsys, tmp_path):
    # sd(boundary delta4): 1,399,680 cells over 349,920 pairs
    forbid(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["report", "--input", str(CORPUS_DIR / "boundary_delta4.json"),
                 "--max-cells", "2000000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    assert (report["component_cells"], report["q_component"]) == (1399680, 11664)
    assert "overall: PASS" in capsys.readouterr().out
