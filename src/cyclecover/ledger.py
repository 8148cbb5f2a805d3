"""The claims ledger that ``verify`` and ``report`` print: one line per
mathematical statement checked on one input complex, with pass/fail status
and a diagnostic detail.  Reports hold no timestamps, so identical runs
give identical bytes.

The chain: validate the input, color it (by barycentric subdivision when it
carries no coloring), orient it, build the colored bundle and the Tomei
base, check the canonical involutions and count the compatible ones once,
build the full cover set or one component, and check on its monodromy
that it covers the base (``covering.verify_covering``).  The claims after
that are certified on the flag template of one permutahedron and the
cover's pairs (``certificate``), with class counts in closed form: no cell
is made.  The template is checked against the cap before its first build.

``CLAIMS`` names the claims in order.  The stages yield one outcome per
claim, (passed, detail) or None where the claim does not apply, and one
rule records them (``verify_pipeline``): a ``TopologyError`` fails the
claim it interrupts, with its message as detail, and the first failed
claim ends the run, except that a non-orientable cover goes on to fail the
pushforward claim too.  A comment names the check that implies a claim,
where one does; only a planted defect makes such a claim fail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .cells import euler_of_counts
from .certificate import (
    check_well_defined,
    class_counts,
    is_oriented,
    push_forward,
    template_is_closed,
    template_is_surface,
)
from .covering import build_component, build_full, verify_covering
from .errors import TopologyError
from .formats import all_digits
from .involutions import (
    canonical_involution,
    compatible_rows,
    count_compatible_involutions,
    predicted_multiplicity,
)
from .permutahedron import (check_subdivision_size, check_template_size,
                            flag_template, mask_elements, proper_subsets)
from .pseudomanifold import (
    ColoredPseudomanifold,
    barycentric_subdivide,
    check_regular_coloring,
    face_ids,
    is_coherent_orientation,
    orient,
    validate_pseudomanifold,
)
from .tomei import build_tomei, glued_as_tomei

CLAIMS = (
    "input is a closed connected pseudomanifold",
    "regular coloring obtained by barycentric subdivision",
    "supplied coloring is regular",
    "complex is orientable with coherent orientation",
    "facet-dual graph is bipartite",
    "Tomei base complex built",
    "canonical compatible involution exists for every color subset",
    "compatible involutions counted for every color subset",
    "full cover set built and closed under crossings",
    "cover component built and closed under crossings",
    "projection to the Tomei base is a covering",
    "cover triangulation is a closed pseudomanifold in every component",
    "euler characteristic is multiplicative",
    "cover is a closed surface",
    "cover is orientable",
    "realization map is well defined on face classes",
    "pushforward of the fundamental cycle is a constant positive multiple of the subdivided base cycle",
    "realization degree equals the cell fiber over every base simplex",
    "cover is the full cover set and realizes the predicted multiplicity 2^(n-1) * prod |P_w|",
)
# the input's orientation and bipartition failures add their witness
WITNESSED = CLAIMS[3:5]
# a non-orientable cover goes on, so that the pushforward claim fails too
GOES_ON = CLAIMS[14]


@dataclass
class Claims:
    """Ordered list of checked statements with pass/fail status."""

    entries: list[dict] = field(default_factory=list)

    def check(self, claim: str, passed: bool, detail: str = "") -> None:
        self.entries.append({
            "claim": claim,
            "status": "pass" if passed else "fail",
            "detail": detail,
        })

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


def _stages(complex, coloring, orientation, max_cells: int, report: dict):
    """The outcomes of ``CLAIMS`` in order, written into the report body."""
    v = validate_pseudomanifold(complex)
    yield v.ok, v.summary()

    # a supplied orientation is checked on the input; the subdivision is
    # oriented afresh
    coherent = orientation is None or is_coherent_orientation(complex, orientation)
    # one coloring claim applies; the subdivision's is implied, as it is
    # colored by face dimension
    subdivided = coloring is None
    if subdivided:
        check_subdivision_size(complex.n, len(complex.tops), max_cells)
        sd = barycentric_subdivide(complex)
        complex, coloring, orientation = sd.complex, sd.coloring, None
    regular = check_regular_coloring(complex, coloring)
    yield (regular, f"{len(complex.tops)} top simplices") if subdivided else None
    yield None if subdivided else (regular, "")

    if not coherent:
        raise TopologyError("supplied orientation is not coherent")
    if orientation is None:
        orientation = orient(complex)
    yield True, ""

    # implied by the coherent orientation and the regular coloring: the
    # parts are the orientation read in color order
    bundle = ColoredPseudomanifold(complex, coloring, orientation)
    n = bundle.n
    report["input"] = {
        "n": n,
        "top_simplices": bundle.top_count,
        "subdivided": subdivided,
    }
    yield True, ""

    # implied by build_tomei; glued as M^n, a class of a k-chain has 2^k members
    check_template_size(n, max_cells)
    base = build_tomei(n)
    base_euler = euler_of_counts(class_counts(flag_template(n), base.num_cells))
    report["base"] = {"cells": base.num_cells, "euler": base_euler}
    yield glued_as_tomei(base), f"2^{n} cells, euler characteristic {base_euler}"

    subsets = proper_subsets(n)
    canonical = np.array([canonical_involution(bundle, w) for w in subsets])
    yield bool(compatible_rows(bundle, canonical, subsets).all()), ""

    # implied by the canonical involutions, one in each count; counted once,
    # as the ledger, q and the full build's cap guard share them
    counts = [count_compatible_involutions(bundle, w) for w in subsets]
    report["q_formula"] = predicted_multiplicity(bundle, counts)
    report["involution_counts"] = [[list(mask_elements(w)), c]
                                   for w, c in zip(subsets, counts)]
    # a count can run to thousands of digits: over 100 it is written as its
    # digit count, and report.json keeps it in full
    with all_digits():
        digits = [str(c) for c in counts]
    yield all(counts), ", ".join(
        f"{mask_elements(w)}:" + (d if len(d) <= 100 else f"<{len(d)} digits>")
        for w, d in zip(subsets, digits))

    # the full cover set's claim when it fits the cap, else the component's
    full = bundle.top_count * report["q_formula"] <= max_cells
    if not full:
        yield None
    cover = (build_full(bundle, max_cells, counts) if full
             else build_component(bundle, max_cells=max_cells))
    report["component_cells"] = cover.num_cells
    yield True, f"{cover.num_cells} cells"
    if full:
        yield None

    degree = report["covering_degree"] = verify_covering(cover).degree
    yield True, f"degree {degree}"
    yield from _certify_realization(cover, degree, base_euler, full, report)


def _certify_realization(cover, degree: int, base_euler: int, full: bool,
                         report: dict):
    """The outcomes of the claims after the covering check, on the flag
    template of one permutahedron and the cover's pairs, never its cells."""
    bundle = cover.cp
    template = flag_template(bundle.n)
    # implied by the covering of M^n, a closed manifold, as are the next two
    yield (template_is_closed(template),
           f"{cover.num_cells * len(template.flags)} top simplices")

    counts = class_counts(template, cover.num_cells)
    cover_euler = euler_of_counts(counts)
    yield (cover_euler == degree * base_euler,
           f"{cover_euler} = {degree} * {base_euler}")
    yield (template_is_surface(template), "") if bundle.n == 2 else None

    oriented = is_oriented(template, cover.holonomies)
    yield oriented, ""

    vertex, _ = face_ids(bundle.by_color)
    check_well_defined(cover, template, vertex)
    yield True, f"{sum(counts)} classes checked"

    real = push_forward(cover, template, vertex, oriented)
    report["q_component"] = real.degree
    report["per_simplex_counts_checksum"] = _counts_checksum(real.image_counts)
    report["realization"] = {
        "degree": real.degree,
        "component_degrees": real.component_degrees,
        "degenerate_flags": real.degenerate_flags,
        "nondegenerate_flags": real.nondegenerate_flags,
    }
    yield True, f"degree {real.degree} over {len(real.image_counts)} base flags"

    # implied by the pushforward, which counts the cells over every base flag
    fibers = np.bincount(cover.pair_sigma, minlength=bundle.top_count) << len(cover.basis)
    yield (bool((fibers == real.degree).all()),
           f"fiber {real.degree} over {bundle.top_count} simplices")

    q = report["q_formula"]
    yield (real.degree == q, f"{real.degree} = {q}") if full else None


def verify_pipeline(complex, coloring, orientation,
                    max_cells: int) -> tuple[Claims, dict]:
    """Check every claim from raw complex to chain identity under the one
    rule above.  Returns the claims ledger and the report body."""
    claims = Claims()
    report: dict = {
        "component_cells": None,
        "covering_degree": None,
        "q_component": None,
        "q_formula": None,
        "per_simplex_counts_checksum": None,
    }
    outcomes = _stages(complex, coloring, orientation, max_cells, report)
    for claim in CLAIMS:
        try:
            outcome = next(outcomes)
        except TopologyError as e:
            witness = getattr(e, "witness", None) if claim in WITNESSED else None
            claims.check(claim, False, str(e) if witness is None
                         else f"{e}; witness: {witness}")
            break
        if outcome is not None:
            claims.check(claim, *outcome)
            if not outcome[0] and claim != GOES_ON:
                break
    return claims, report
