"""Command-line verification driver.

Subcommands run one pipeline stage each; ``verify`` runs the whole chain on
one input complex and reports a claims ledger: one line per mathematical
statement checked, with pass/fail status and a diagnostic detail.  Reports
contain no timestamps, so identical runs produce identical bytes.

The chain: validate the input, color it (by barycentric subdivision when it
carries no coloring), orient it, build the colored bundle and the Tomei
base, check the canonical involutions and count the compatible ones once,
build the full cover set or one component, and check that it covers the
base.  Every claim is certified on the cover's monodromy, without making a
cell: the permutations of the (tuple, simplex) pairs that the facet
crossings induce, the lift g0 of each pair and the holonomy group H of g
along them.  The covering check (``covering.verify_covering``) shows that
every face class of the cover has 2^k members in codimension k.  The
claims after it (closed pseudomanifold, Euler characteristic, surface,
orientation, well-definedness, chain identity, fibres) are certified on
the flag template of one permutahedron and the pairs (``certificate``),
with the class counts of the cover and the base in closed form.  The
cover's cells are expanded only for ``cover --out`` and
``cover --cells-out``, and triangulated only for the latter; ``verify``
builds no face classes.  ``tomei`` certifies M^n the same way, and
triangulates only to write ``--out``.  Sizes known in closed form (the
template's flags and their faces, the tops that ``tomei --out`` and
``cover --cells-out`` write) are checked against ``--max-cells`` before
anything of that size is built.

Exit codes: 0 all enabled checks pass, 1 a check failed or a cap was hit,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import numpy as np

from . import formats
from .cells import euler_of_counts, triangulate
from .certificate import (
    check_well_defined,
    class_counts,
    is_oriented,
    push_forward,
    template_is_closed,
    template_is_connected,
    template_is_surface,
)
from .covering import DEFAULT_MAX_CELLS, build_component, build_full, verify_covering
from .errors import CapExceededError, TopologyError
from .homology import homology
from .involutions import (
    canonical_involution,
    count_compatible_involutions,
    is_compatible_involution,
    predicted_multiplicity,
)
from .permutahedron import flag_template, mask_elements, proper_subsets
from .pseudomanifold import (
    ColoredPseudomanifold,
    barycentric_subdivide,
    check_regular_coloring,
    colored_from_complex,
    face_ids,
    is_coherent_orientation,
    orient,
    validate_pseudomanifold,
)
from .tomei import build_tomei, glued_as_tomei

MAX_CELLS_ENV = "REALIZER_MAX_CELLS"


@dataclass
class RunConfig:
    mode: str
    input: str | None = None
    n: int | None = None
    out: str | None = None
    cells_out: str | None = None
    full: bool = False
    max_cells: int = DEFAULT_MAX_CELLS

    def __post_init__(self):
        if self.max_cells <= 0:
            raise ValueError(f"max_cells must be positive, got {self.max_cells}")


def default_max_cells() -> int:
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{MAX_CELLS_ENV} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# the claims ledger

@dataclass
class Claims:
    """Ordered list of checked statements with pass/fail status."""

    entries: list[dict] = field(default_factory=list)

    def check(self, claim: str, passed: bool, detail: str = "") -> bool:
        self.entries.append({
            "claim": claim,
            "status": "pass" if passed else "fail",
            "detail": detail,
        })
        return passed

    @property
    def ok(self) -> bool:
        return all(e["status"] != "fail" for e in self.entries)

    def text(self) -> str:
        width = max((len(e["claim"]) for e in self.entries), default=0)
        lines = []
        for e in self.entries:
            status = e["status"].upper()
            line = f"[{status:>7}] {e['claim']:<{width}}"
            if e["detail"]:
                line += f"  ({e['detail']})"
            lines.append(line)
        return "\n".join(lines)


def _diagnostic(e: TopologyError) -> str:
    """Error message plus the witness data when the error carries one."""
    witness = getattr(e, "witness", None)
    return f"{e}; witness: {witness}" if witness is not None else str(e)


def _counts_checksum(image_counts) -> str:
    """sha256 of the table ``[[simplex, count], ...]`` sorted by simplex,
    in the bytes ``formats.dumps`` gives it.  The simplices all have one
    length, so the text is written with one row template, without the
    pure-Python JSON encoder that ``indent`` selects."""
    text = "[]\n"
    if image_counts:
        flags = np.array(list(image_counts), dtype=np.int64)
        table = np.column_stack([flags, list(image_counts.values())])
        table = table[np.lexsort(flags.T[::-1])]
        row = "  [\n    [\n%s\n    ],\n    %%d\n  ]" % ",\n".join(
            ["      %d"] * flags.shape[1])
        rows = ",\n".join([row] * len(table)) % tuple(table.ravel().tolist())
        text = f"[\n{rows}\n]\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def verify_pipeline(complex, coloring, orientation,
                    max_cells: int) -> tuple[Claims, dict]:
    """Run every check from raw complex to chain identity.

    Returns the claims ledger and the report body.  Stops at the first
    failed claim; later stages are simply absent from the ledger.
    """
    claims = Claims()
    report: dict = {
        "component_cells": None,
        "covering_degree": None,
        "q_component": None,
        "q_formula": None,
        "per_simplex_counts_checksum": None,
    }

    v = validate_pseudomanifold(complex)
    if not claims.check(
            "input is a closed connected pseudomanifold", v.ok, v.summary()):
        return claims, report

    subdivided = coloring is None
    if subdivided:
        sd = barycentric_subdivide(complex)
        complex, coloring = sd.complex, sd.coloring
        orientation = None
        claims.check("regular coloring obtained by barycentric subdivision",
                     True, f"{len(complex.top_simplices)} top simplices")
    else:
        if not claims.check("supplied coloring is regular",
                            check_regular_coloring(complex, coloring)):
            return claims, report

    try:
        if orientation is None:
            orientation = orient(complex)
        elif not is_coherent_orientation(complex, orientation):
            raise TopologyError("supplied orientation is not coherent")
        claims.check("complex is orientable with coherent orientation", True)
    except TopologyError as e:
        claims.check("complex is orientable with coherent orientation",
                     False, _diagnostic(e))
        return claims, report

    try:
        bundle = ColoredPseudomanifold(complex, coloring, orientation)
        claims.check("facet-dual graph is bipartite", True)
    except TopologyError as e:
        claims.check("facet-dual graph is bipartite", False, _diagnostic(e))
        return claims, report

    n = bundle.n
    report["input"] = {
        "n": n,
        "top_simplices": bundle.top_count,
        "subdivided": subdivided,
    }

    # glued as M^n, a base class of a chain of length k has 2^k members
    base = build_tomei(n)
    base_euler = euler_of_counts(class_counts(flag_template(n), base.num_cells))
    claims.check("Tomei base complex built", glued_as_tomei(base),
                 f"2^{n} cells, euler characteristic {base_euler}")
    report["base"] = {"cells": base.num_cells, "euler": base_euler}

    ok = all(is_compatible_involution(bundle, canonical_involution(bundle, w), w)
             for w in proper_subsets(n))
    claims.check("canonical compatible involution exists for every color subset",
                 ok)
    if not ok:
        return claims, report

    # counted once: the ledger, q and the full build's cap guard share them
    subsets = proper_subsets(n)
    counts = [count_compatible_involutions(bundle, w) for w in subsets]
    claims.check("compatible involutions counted for every color subset",
                 all(counts),
                 ", ".join(f"{mask_elements(w)}:{c}"
                           for w, c in zip(subsets, counts)))
    report["q_formula"] = predicted_multiplicity(bundle, counts)
    report["involution_counts"] = [[list(mask_elements(w)), c]
                                   for w, c in zip(subsets, counts)]

    # Build the full cover set when its size fits the cap, otherwise a
    # single component.
    full = bundle.top_count * report["q_formula"] <= max_cells
    built = (f"{'full cover set' if full else 'cover component'} built and "
             f"closed under crossings")
    try:
        cover = (build_full(bundle, max_cells, counts) if full
                 else build_component(bundle, max_cells=max_cells))
        claims.check(built, True, f"{cover.num_cells} cells")
    except TopologyError as e:
        claims.check(built, False, str(e))
        return claims, report
    report["component_cells"] = cover.num_cells

    try:
        covering = verify_covering(cover, base)
        claims.check("projection to the Tomei base is a covering",
                     True, f"degree {covering.degree}")
        report["covering_degree"] = covering.degree
    except TopologyError as e:
        claims.check("projection to the Tomei base is a covering", False, str(e))
        return claims, report

    _certify_realization(claims, report, cover, covering.degree, base_euler,
                         full)
    return claims, report


def _certify_realization(claims: Claims, report: dict, cover, degree: int,
                         base_euler: int, full: bool) -> None:
    """The claims after the covering check, each certified on the flag
    template of one permutahedron and on the cover's pairs
    (``certificate``), never on its cells or a triangulation.  Stops at the
    first failed claim, except that a non-orientable cover goes on to fail
    the pushforward claim as well."""
    bundle = cover.cp
    n = bundle.n
    template = flag_template(n)
    closed = template_is_closed(template)
    claims.check("cover triangulation is a closed pseudomanifold in every "
                 "component", closed,
                 f"{cover.num_cells * len(template.flags)} top simplices")
    if not closed:
        return

    counts = class_counts(template, cover.num_cells)
    cover_euler = euler_of_counts(counts)
    claims.check("euler characteristic is multiplicative",
                 cover_euler == degree * base_euler,
                 f"{cover_euler} = {degree} * {base_euler}")

    if n == 2:
        if not claims.check("cover is a closed surface",
                            template_is_surface(template)):
            return

    oriented = is_oriented(template, cover.g0, cover.pairs.glue)
    claims.check("cover is orientable", oriented)

    vertex, _ = face_ids(bundle.by_color)
    try:
        check_well_defined(cover, template, vertex)
        claims.check("realization map is well defined on face classes", True,
                     f"{sum(counts)} classes checked")
    except TopologyError as e:
        claims.check("realization map is well defined on face classes",
                     False, str(e))
        return

    try:
        real = push_forward(cover, template, vertex, oriented)
        claims.check("pushforward of the fundamental cycle is a constant "
                     "positive multiple of the subdivided base cycle", True,
                     f"degree {real.degree} over "
                     f"{len(real.image_counts)} base flags")
        report["q_component"] = real.degree
        report["per_simplex_counts_checksum"] = _counts_checksum(real.image_counts)
        report["realization"] = {
            "degree": real.degree,
            "component_degrees": real.component_degrees,
            "degenerate_flags": real.degenerate_flags,
            "nondegenerate_flags": real.nondegenerate_flags,
        }
    except TopologyError as e:
        claims.check("pushforward of the fundamental cycle is a constant "
                     "positive multiple of the subdivided base cycle",
                     False, str(e))
        return

    fibers = np.bincount(cover.pair_sigma, minlength=bundle.top_count) << len(cover.basis)
    claims.check("realization degree equals the cell fiber over every base "
                 "simplex", bool((fibers == real.degree).all()),
                 f"fiber {real.degree} over {bundle.top_count} simplices")

    if full:
        claims.check("cover is the full cover set and realizes the predicted "
                     "multiplicity 2^(n-1) * prod |P_w|",
                     real.degree == report["q_formula"],
                     f"{real.degree} = {report['q_formula']}")


# ---------------------------------------------------------------------------
# subcommands

def _load(config: RunConfig):
    if not config.input:
        raise ValueError(f"mode {config.mode!r} requires --input")
    return formats.load_complex(config.input)


def _run_validate(config: RunConfig) -> int:
    complex, coloring, _ = _load(config)
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


def _run_subdivide(config: RunConfig) -> int:
    complex, _, _ = _load(config)
    if not config.out:
        raise ValueError("subdivide requires --out")
    sd = barycentric_subdivide(complex)
    formats.write_json(
        formats.complex_to_dict(sd.complex, coloring=sd.coloring), config.out)
    print(f"subdivision: {sd.complex.num_vertices} vertices, "
          f"{len(sd.complex.top_simplices)} top simplices -> {config.out}")
    return 0


def _check_cap(what: str, size: int, unit: str, cap: int) -> None:
    """Refuse a size over the cap, known in closed form before anything of
    that size is built."""
    if size > cap:
        raise CapExceededError(
            f"{what} has {size} {unit}, more than the cap {cap}", cap, size)


def _run_tomei(config: RunConfig) -> int:
    """Build M^n and certify it as ``verify`` certifies a cover, on the
    flag template and the glue (``certificate``); valid means closed and
    connected.  The template's n!(n+1)! flags, the (n+1) n!(n+1)! flag
    faces that its closedness check groups, and with ``--out`` the
    2^n n!(n+1)! tops, are checked against the cap before anything is
    built, and the triangulation is built only to write ``--out``."""
    n = config.n
    if n is None:
        raise ValueError("tomei requires --n")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    flags = factorial(n) * factorial(n + 1)
    _check_cap(f"the flag template of dimension {n}", flags, "flags",
               config.max_cells)
    _check_cap(f"the flag template of dimension {n}", (n + 1) * flags,
               "flag faces", config.max_cells)
    if config.out:
        _check_cap(f"the triangulation of M^{n}", flags << n, "top simplices",
                   config.max_cells)
    pc = build_tomei(n)
    template = flag_template(n)
    counts = class_counts(template, pc.num_cells)
    valid = (glued_as_tomei(pc) and template_is_closed(template)
             and template_is_connected(template))
    oriented = is_oriented(template, np.arange(pc.num_cells), pc.glue)
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


def _run_cover(config: RunConfig) -> int:
    bundle, _ = colored_from_complex(*_load(config))
    cover = (build_full(bundle, config.max_cells)
             if config.full
             else build_component(bundle, max_cells=config.max_cells))
    if config.cells_out:
        flags = factorial(bundle.n) * factorial(bundle.n + 1)
        _check_cap("the triangulated cover", cover.num_cells * flags,
                   "top simplices", config.max_cells)
    covering = verify_covering(cover)
    print(f"cover: {cover.num_cells} cells, covering degree {covering.degree}")
    if config.out:
        formats.write_json(formats.cover_to_dict(cover), config.out)
    if config.cells_out:
        tri = triangulate(cover.pc)
        formats.write_json(formats.complex_to_dict(tri.complex), config.cells_out)
    return 0


def _run_homology(config: RunConfig) -> int:
    complex, _, _ = _load(config)
    groups = homology(complex, max_entries=config.max_cells)
    for k, g in enumerate(groups):
        print(f"H_{k} = {g}")
    if config.out:
        formats.write_json({
            "groups": [{"betti": g.betti, "torsion": g.torsion} for g in groups],
        }, config.out)
    return 0


def _run_verify(config: RunConfig, write_text: bool) -> int:
    complex, coloring, orientation = _load(config)
    claims, report = verify_pipeline(complex, coloring, orientation,
                                     config.max_cells)
    report["claims"] = claims.entries
    report["ok"] = claims.ok
    text = claims.text() + "\n" + (
        f"overall: {'PASS' if claims.ok else 'FAIL'}\n")
    print(text, end="")
    if config.out:
        formats.write_json(report, config.out)
        if write_text:
            Path(config.out).with_suffix(".txt").write_text(
                text, encoding="utf-8")
    return 0 if claims.ok else 1


def run(config: RunConfig) -> int:
    handlers = {
        "validate": _run_validate,
        "subdivide": _run_subdivide,
        "tomei": _run_tomei,
        "cover": _run_cover,
        "homology": _run_homology,
    }
    if config.mode == "verify":
        return _run_verify(config, write_text=False)
    if config.mode == "report":
        if not config.out:
            raise ValueError("report requires --out")
        return _run_verify(config, write_text=True)
    if config.mode not in handlers:
        raise ValueError(f"unknown mode {config.mode!r}")
    return handlers[config.mode](config)


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cyclecover",
        description="verify realization of cycles by covers of Tomei manifolds")
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p, needs_input=True, cap="cell cap"):
        if needs_input:
            p.add_argument("--input", "-i", required=True,
                           help="input complex JSON")
        p.add_argument("--out", "-o", help="output JSON path")
        p.add_argument("--max-cells", type=int, default=None,
                       help=f"{cap} (default {MAX_CELLS_ENV} or "
                            f"{DEFAULT_MAX_CELLS})")

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
               cap="cap on the entries of each dense matrix: every boundary "
                   "matrix, checked before any is allocated, and the Smith "
                   "transforms of what unit-pivot peeling leaves of it")
    add_common(sub.add_parser("verify", help="run the whole verification chain"))
    add_common(sub.add_parser("report", help="verify and write JSON + text reports"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        max_cells = (args.max_cells if args.max_cells is not None
                     else default_max_cells())
        config = RunConfig(
            mode=args.mode,
            input=getattr(args, "input", None),
            n=getattr(args, "n", None),
            out=args.out,
            cells_out=getattr(args, "cells_out", None),
            full=getattr(args, "full", False),
            max_cells=max_cells,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return run(config)
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
