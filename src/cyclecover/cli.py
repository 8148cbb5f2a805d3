"""Command-line driver: parse the arguments, run one command, print it.

Each subcommand's handler reads the namespace that ``build_parser``
parses, in which ``main`` has refused a ``--max-cells`` cap that is not
positive.

Subcommands run one pipeline stage each; ``verify`` and ``report`` print
the claims ledger of one input complex (``ledger.verify_pipeline``).
``cover --out`` and ``cover --cells-out`` expand the cover's cells, and
only the latter triangulates them; ``tomei`` certifies M^n as the ledger
certifies a cover and triangulates only to write ``--out``.  Sizes known
in closed form are checked against ``--max-cells`` before anything of
that size is built.

Exit codes: 0 all enabled checks pass, 1 a check failed or a cap was hit,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import factorial
from pathlib import Path

import numpy as np

from . import formats, ledger
from .cells import euler_of_counts, triangulate
from .certificate import (
    class_counts,
    is_oriented,
    template_is_closed,
    template_is_connected,
    template_is_surface,
)
from .covering import build_component, build_full, holonomy, verify_covering
from .errors import DEFAULT_MAX_CELLS, TopologyError, check_cap
from .homology import homology
from .permutahedron import check_subdivision_size, check_template_size, flag_template
from .pseudomanifold import (
    barycentric_subdivide,
    check_regular_coloring,
    colored_from_complex,
    validate_pseudomanifold,
)
from .tomei import build_tomei, glued_as_tomei


# ---------------------------------------------------------------------------
# subcommands

def _run_validate(config: argparse.Namespace) -> int:
    complex, coloring, _ = formats.load_complex(config.input)
    report = validate_pseudomanifold(complex)
    print(report.summary())
    coloring_ok = True
    if coloring is not None:
        coloring_ok = check_regular_coloring(complex, coloring)
        print(f"coloring: {'regular' if coloring_ok else 'NOT regular'}")
    if config.out:
        formats.write_json({
            "ok": report.ok and coloring_ok,
            "connected": report.connected,
            "boundary_faces": [list(f) for f in report.boundary_faces],
            "overused_faces": [[list(f), k] for f, k in report.overused_faces],
            "coloring_regular": coloring_ok if coloring is not None else None,
        }, config.out)
    return 0 if report.ok and coloring_ok else 1


def _run_subdivide(config: argparse.Namespace) -> int:
    complex, _, _ = formats.load_complex(config.input)
    if not config.out:
        raise ValueError("subdivide requires --out")
    check_subdivision_size(complex.n, len(complex.tops), config.max_cells)
    sd = barycentric_subdivide(complex)
    formats.write_json(
        formats.complex_to_dict(sd.complex, coloring=sd.coloring), config.out)
    print(f"subdivision: {sd.complex.num_vertices} vertices, "
          f"{len(sd.complex.tops)} top simplices -> {config.out}")
    return 0


def _run_tomei(config: argparse.Namespace) -> int:
    """Build M^n and certify it as ``verify`` certifies a cover, on the
    flag template and the glue (``certificate``); valid means closed and
    connected.  The template (``check_template_size``) and with ``--out``
    the 2^n n!(n+1)! tops are checked against the cap before anything is
    built, and the triangulation is built only to write ``--out``."""
    n = config.n
    if n < 1:
        raise ValueError("dimension must be at least 1")
    check_template_size(n, config.max_cells)
    if config.out:
        check_cap(f"the triangulation of M^{n}",
                  factorial(n) * factorial(n + 1) << n, "top simplices",
                  config.max_cells)
    pc = build_tomei(n)
    template = flag_template(n)
    counts = class_counts(template, pc.num_cells)
    valid = (glued_as_tomei(pc) and template_is_closed(template)
             and template_is_connected(template))
    oriented = is_oriented(template, holonomy(np.arange(pc.num_cells), pc.glue, n))
    checks = valid and oriented
    print(f"Tomei n={n}: {pc.num_cells} cells, "
          f"face classes {counts}, euler {euler_of_counts(counts)}")
    print(f"triangulation: {pc.num_cells * len(template.flags)} top simplices, "
          f"{'valid' if valid else 'INVALID'}, "
          f"{'orientable' if oriented else 'NOT orientable'}")
    if n == 2:
        surface = template_is_surface(template)
        checks = checks and surface
        print(f"surface checks: {'pass' if surface else 'FAIL'}")
    if config.out:
        tri = triangulate(pc)
        # color = face dimension + 1, as in barycentric subdivisions
        coloring = [n + 1 - len(chain) for chain in tri.classes.chain_of_class]
        formats.write_json(
            formats.complex_to_dict(tri.complex, coloring=coloring), config.out)
    if config.cells_out:
        formats.write_json(formats.cell_complex_to_dict(pc), config.cells_out)
    return 0 if checks else 1


def _run_cover(config: argparse.Namespace) -> int:
    complex, coloring, orientation = formats.load_complex(config.input)
    if coloring is None:
        check_subdivision_size(complex.n, len(complex.tops), config.max_cells)
    bundle, _ = colored_from_complex(complex, coloring, orientation)
    cover = (build_full(bundle, config.max_cells)
             if config.full
             else build_component(bundle, max_cells=config.max_cells))
    if config.cells_out:
        flags = factorial(bundle.n) * factorial(bundle.n + 1)
        check_cap("the triangulated cover", cover.num_cells * flags,
                  "top simplices", config.max_cells)
    covering = verify_covering(cover)
    print(f"cover: {cover.num_cells} cells, covering degree {covering.degree}")
    if config.out:
        formats.write_json(formats.cover_to_dict(cover), config.out)
    if config.cells_out:
        tri = triangulate(cover.pc)
        formats.write_json(formats.complex_to_dict(tri.complex), config.cells_out)
    return 0


def _run_homology(config: argparse.Namespace) -> int:
    complex, _, _ = formats.load_complex(config.input)
    groups = homology(complex, max_entries=config.max_cells)
    for k, g in enumerate(groups):
        print(f"H_{k} = {g}")
    if config.out:
        formats.write_json({
            "groups": [{"betti": g.betti, "torsion": g.torsion} for g in groups],
        }, config.out)
    return 0


def _run_verify(config: argparse.Namespace) -> int:
    if config.mode == "report" and not config.out:
        raise ValueError("report requires --out")
    complex, coloring, orientation = formats.load_complex(config.input)
    claims, report = ledger.verify_pipeline(complex, coloring, orientation,
                                            config.max_cells)
    report["claims"] = claims.entries
    report["ok"] = claims.ok
    text = claims.text() + "\n" + (
        f"overall: {'PASS' if claims.ok else 'FAIL'}\n")
    print(text, end="")
    if config.out:
        formats.write_json(report, config.out)
        if config.mode == "report":
            Path(config.out).with_suffix(".txt").write_text(
                text, encoding="utf-8")
    return 0 if claims.ok else 1


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cyclecover",
        description="verify realization of cycles by covers of Tomei manifolds")
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p, needs_input=True, bounds="cell cap"):
        if needs_input:
            p.add_argument("--input", "-i", required=True,
                           help="input complex JSON")
        p.add_argument("--out", "-o", help="output JSON path")
        p.add_argument("--max-cells", type=int, default=DEFAULT_MAX_CELLS,
                       help=f"{bounds} (default {DEFAULT_MAX_CELLS})")

    add_common(sub.add_parser("validate", help="pseudomanifold checks"))
    add_common(sub.add_parser("subdivide", help="barycentric subdivision"))
    tomei = sub.add_parser("tomei", help="build and check a Tomei manifold")
    tomei.add_argument("--n", type=int, required=True)
    add_common(tomei, needs_input=False)
    tomei.add_argument("--cells-out", help="cell-complex JSON path")
    cover = sub.add_parser("cover", help="build a covering cell complex")
    add_common(cover)
    cover.add_argument("--full", action="store_true",
                       help="build the full cover set instead of one component")
    cover.add_argument("--cells-out",
                       help="triangulated complex JSON path")
    add_common(sub.add_parser("homology", help="integral homology groups"),
               bounds="cap on the entries homology makes: the nonzero "
                   "entries of each boundary matrix, of the solve X and the "
                   "Schur complement S that unit-pivot peeling makes of it, "
                   "and the Smith transforms of S")
    add_common(sub.add_parser("verify", help="run the whole verification chain"))
    add_common(sub.add_parser("report", help="verify and write JSON + text reports"))
    return parser


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    # looked up per call, so that a handler can be swapped on the module
    handlers = {
        "validate": _run_validate,
        "subdivide": _run_subdivide,
        "tomei": _run_tomei,
        "cover": _run_cover,
        "homology": _run_homology,
        "verify": _run_verify,
        "report": _run_verify,
    }
    try:
        if config.max_cells <= 0:
            raise ValueError(f"max_cells must be positive, got {config.max_cells}")
        return handlers[config.mode](config)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TopologyError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {config.mode}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
