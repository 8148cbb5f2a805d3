"""``tomei`` certified on the flag template against the triangulation path.

``tomei`` certifies M^n as ``verify`` certifies a cover: class counts in
closed form, the template closed and connected, tau and the parity of g
flipping, and at n = 2 the template's vertex links (``certificate``).
``triangulation_tomei`` below is the command as it was before: it builds
the face classes, triangulates and checks the triangulation.  Swapped in
for ``cli._run_tomei``, it is the oracle: both must print the same bytes,
write the same files and exit alike, also on a planted template defect.
Sizes known in closed form are refused over ``--max-cells`` before
anything is built.
"""

from dataclasses import replace
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import dict_oracle
from extra_api import template_flag_of_tops
from cyclecover import (
    cells,
    cli,
    formats,
    ledger,
    permutahedron,
    pseudomanifold,
    tomei,
)
from cyclecover.cells import (
    PermutahedralComplex,
    euler_characteristic,
    face_classes,
    triangulate,
)
from cyclecover.certificate import template_is_connected
from cyclecover.covering import DEFAULT_MAX_CELLS
from cyclecover.errors import TopologyError
from cyclecover.permutahedron import flag_template
from cyclecover.pseudomanifold import (
    is_coherent_orientation,
    orient,
    validate_pseudomanifold,
)
from cyclecover.tomei import build_tomei, glued_as_tomei

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# the oracle: tomei on the triangulation

def triangulation_tomei(config, orientation_of=lambda tri: orient(tri.complex)):
    """The ``tomei`` command on the triangulation of M^n.

    ``orientation_of`` gives the orientation whose coherence is checked,
    by default ``orient``'s, so the check is that the triangulation is
    orientable; a planted defect hands in a wrong one.  ``orient`` needs a
    closed pseudomanifold (it raised ``ValueError``, exit 2, on one with
    boundary), so a triangulation that is not closed reads as not
    orientable, as ``is_coherent_orientation`` reads it.
    """
    if config.n is None:
        raise ValueError("tomei requires --n")
    pc = build_tomei(config.n)
    classes = face_classes(pc)
    chi = euler_characteristic(pc, classes)
    tri = triangulate(pc, classes)
    report = validate_pseudomanifold(tri.complex)
    try:
        is_orientable = is_coherent_orientation(tri.complex, orientation_of(tri))
    except (TopologyError, ValueError):
        is_orientable = False
    checks = report.ok and is_orientable
    print(f"Tomei n={config.n}: {pc.num_cells} cells, "
          f"face classes {classes.counts_by_codim()}, euler {chi}")
    print(f"triangulation: {len(tri.complex.tops)} top simplices, "
          f"{'valid' if report.ok else 'INVALID'}, "
          f"{'orientable' if is_orientable else 'NOT orientable'}")
    if config.n == 2:
        surf = dict_oracle.verify_surface(tri.complex)
        checks = checks and surf.ok
        print(f"surface checks: {'pass' if surf.ok else 'FAIL'}")
    if config.out:
        # color = face dimension + 1, as in barycentric subdivisions
        coloring = [config.n + 1 - len(chain) for chain in classes.chain_of_class]
        formats.write_json(
            formats.complex_to_dict(tri.complex, coloring=coloring), config.out)
    if config.cells_out:
        formats.write_json(formats.cell_complex_to_dict(pc), config.cells_out)
    return 0 if checks else 1


def run_tomei(path, n, capsys):
    """Exit code, stdout and the bytes of ``--out`` and ``--cells-out`` of
    ``tomei --n n`` writing into ``path``."""
    path.mkdir()
    out, cells_out = path / "m.json", path / "m_cells.json"
    code = cli.main(["tomei", "--n", str(n), "--out", str(out),
                     "--cells-out", str(cells_out)])
    return code, capsys.readouterr().out, out.read_bytes(), cells_out.read_bytes()


def both_paths(tmp_path, monkeypatch, capsys, n, plant=None, oracle=None):
    """``tomei`` on the template and on the triangulation, each with the
    planted template, if any, and the oracle's orientation for it."""
    with monkeypatch.context() as m:
        if plant:
            plant(m)
        factored = run_tomei(tmp_path / "factored", n, capsys)
    with monkeypatch.context() as m:
        if plant:
            plant(m)
        m.setattr(cli, "_run_tomei", oracle or triangulation_tomei)
        expected = run_tomei(tmp_path / "oracle", n, capsys)
    return factored, expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tomei_matches_the_triangulation_path(n, tmp_path, monkeypatch, capsys):
    factored, oracle = both_paths(tmp_path, monkeypatch, capsys, n)
    assert factored == oracle
    assert factored[0] == 0
    assert "valid, orientable" in factored[1]


# ---------------------------------------------------------------------------
# planted template defects

def planted(n, change):
    """Hand the changed template of dimension n to the command and to the
    triangulation it builds."""
    template = change(flag_template(n))

    def plant(m):
        for module in (cli, cells):
            m.setattr(module, "flag_template", lambda k: template)
    return plant


def flipped_sign(t):
    sign = t.sign.copy()
    sign[0] = -sign[0]
    return replace(t, sign=sign)


def dropped_flag(t):
    return replace(t, flags=t.flags[1:], sign=t.sign[1:], colors=t.colors[1:],
                   spells=t.spells[1:])


def orientation_flipped_on_flag_zero(tri):
    signs = np.array(orient(tri.complex))
    signs[template_flag_of_tops(tri) == 0] *= -1
    return signs.tolist()


DEFECTS = {
    # flag 0 of every cell has the wrong sign
    "sign": (flipped_sign,
             lambda config: triangulation_tomei(
                 config, orientation_of=orientation_flipped_on_flag_zero),
             "valid, NOT orientable"),
    # flag 0 is missing from every cell, which leaves a boundary
    "dropped": (dropped_flag, None, "INVALID, NOT orientable"),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_fails_like_the_triangulation_path(
        defect, n, tmp_path, monkeypatch, capsys):
    change, oracle, verdict = DEFECTS[defect]
    factored, expected = both_paths(tmp_path, monkeypatch, capsys, n,
                                    plant=planted(n, change), oracle=oracle)
    assert factored == expected
    assert factored[0] == 1
    assert factored[1].splitlines()[1].endswith(verdict)
    if n == 2:
        assert factored[1].endswith("surface checks: FAIL\n") == (defect == "dropped")


# ---------------------------------------------------------------------------
# no triangulation without --out

def test_tomei_never_triangulates_without_out(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("M^n was triangulated")

    for module, name in ((cli, "triangulate"), (cells, "triangulate"),
                         (cells, "face_classes"),
                         (cli, "validate_pseudomanifold"), (ledger, "orient"),
                         (pseudomanifold, "validate_pseudomanifold"),
                         (pseudomanifold, "orient")):
        monkeypatch.setattr(module, name, forbidden)
    assert cli.main(["tomei", "--n", "5"]) == 0
    assert capsys.readouterr().out == (
        "Tomei n=5: 32 cells, face classes [32, 992, 4320, 6240, 3600, 720], "
        "euler 0\n"
        "triangulation: 2764800 top simplices, valid, orientable\n")


# ---------------------------------------------------------------------------
# refused before anything is built

def flags(n):
    return factorial(n) * factorial(n + 1)


@pytest.mark.parametrize("argv, what, size, unit, cap", [
    (["--n", "6"], "the flag template of dimension 6", flags(6), "flags",
     DEFAULT_MAX_CELLS),
    (["--n", "30"], "the flag template of dimension 30", flags(30), "flags",
     DEFAULT_MAX_CELLS),
    (["--n", "70"], "the flag template of dimension 70", flags(70), "flags",
     DEFAULT_MAX_CELLS),
    (["--n", "5", "--out", "{tmp}/m5.json"], "the triangulation of M^5",
     32 * flags(5), "top simplices", DEFAULT_MAX_CELLS),
    (["--n", "3", "--max-cells", "143"], "the flag template of dimension 3",
     144, "flags", 143),
    (["--n", "3", "--max-cells", "1151", "--out", "{tmp}/m3.json"],
     "the triangulation of M^3", 1152, "top simplices", 1151),
    (["--n", "6", "--max-cells", "4000000"], "the flag template of dimension 6",
     7 * flags(6), "flag faces", 4000000),
])
def test_tomei_over_the_cap_builds_nothing(argv, what, size, unit, cap,
                                           tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("built over the cap")

    for module, name in ((cli, "build_tomei"), (cli, "flag_template"),
                         (cells, "flag_template"), (permutahedron, "proper_subsets"),
                         (tomei, "proper_subsets"), (cells, "proper_subsets")):
        monkeypatch.setattr(module, name, forbidden)
    assert cli.main(["tomei", *[a.format(tmp=tmp_path) for a in argv]]) == 1
    assert capsys.readouterr() == ("", (
        f"check failed: {what} has {size} {unit}, more than the cap {cap}\n"))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["0", "-1"])
def test_tomei_dimension_below_one_exits_two(n, capsys):
    assert cli.main(["tomei", "--n", n, "--max-cells", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dimension must be at least 1\n"


def test_tomei_at_the_cap_runs(tmp_path, capsys):
    out = tmp_path / "m3.json"
    assert cli.main(["tomei", "--n", "3", "--max-cells", "1152",
                     "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()


def test_cover_cells_out_is_refused_over_the_cap(tmp_path, monkeypatch, capsys):
    # the 16-cell octahedron component triangulates into 16 * 12 tops
    octahedron = str(CORPUS_DIR / "octahedron.json")
    out = tmp_path / "tri.json"
    assert cli.main(["cover", "--input", octahedron, "--cells-out", str(out),
                     "--max-cells", "192"]) == 0
    assert out.exists()
    out.unlink()
    capsys.readouterr()
    assert cli.main(["cover", "--input", octahedron, "--cells-out", str(out),
                     "--max-cells", "191"]) == 1
    assert capsys.readouterr() == ("", (
        "check failed: the triangulated cover has 192 top simplices, more "
        "than the cap 191\n"))
    assert not out.exists()


def test_north_star_cover_cells_out_is_refused(tmp_path, monkeypatch, capsys):
    # the 1,399,680-cell sd(boundary delta4) component has 144 flags a cell
    def forbidden(*args, **kwargs):
        raise AssertionError("the cover was triangulated")

    monkeypatch.setattr(cli, "triangulate", forbidden)
    out = tmp_path / "tri.json"
    assert cli.main(["cover", "--input", str(CORPUS_DIR / "boundary_delta4.json"),
                     "--cells-out", str(out), "--max-cells", "2000000"]) == 1
    assert capsys.readouterr() == ("", (
        "check failed: the triangulated cover has 201553920 top simplices, "
        "more than the cap 2000000\n"))
    assert not out.exists()


# ---------------------------------------------------------------------------
# the checks that valid reads beyond closedness

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_disjoint_templates_are_not_connected(n):
    t = flag_template(n)
    assert template_is_connected(t)
    twice = replace(t, chains=t.chains + t.chains,
                    flags=np.concatenate([t.flags, t.flags + len(t.chains)]))
    assert (twice.facets[1][twice.facets[0][:, 1:]] == 2).all()
    assert not template_is_connected(twice)


def test_a_relabelled_tomei_manifold_is_not_glued_as_tomei():
    pc = build_tomei(3)
    assert glued_as_tomei(pc)
    label = np.array([0, 1, 2, 3, 4, 5, 7, 6])  # swap cells 6 and 7
    glue = np.empty_like(pc.glue)
    glue[label] = label[pc.glue]
    relabelled = PermutahedralComplex(3, 8, glue)
    assert not glued_as_tomei(relabelled)
