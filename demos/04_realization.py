"""Realizing a multiple of the fundamental class by a covering manifold.

The full pipeline on the octahedron: build the full cover of the Tomei
manifold labeled by compatible involutions, triangulate it, map each face
class to a face of the octahedron, push the fundamental cycle through, and
check that the image is an exact integer multiple of the subdivided
fundamental cycle.  The multiplicity matches the closed-form prediction
2^(n-1) times the product of the involution counts.

The boundary of the 3-simplex carries no regular coloring of its own, so
it is subdivided first; its full cover is astronomically large, so only a
component is built and the full multiplicity is reported from the formula.
"""

from cyclecover import corpus
from cyclecover.cells import triangulate
from cyclecover.covering import build_component, build_full, verify_covering
from cyclecover.homology import homology
from cyclecover.involutions import predicted_multiplicity
from cyclecover.pseudomanifold import ColoredPseudomanifold, colored_from_complex
from cyclecover.realization import (
    realization_map,
    verify_realization,
)


def main():
    print("== octahedron: full cover realizes 128 times the cycle ==")
    octa = ColoredPseudomanifold(*corpus.octahedron())
    cover = build_full(octa)
    print(f"full cover: {cover.num_cells} cells, covering degree "
          f"{verify_covering(cover).degree}")
    rmap = realization_map(cover)
    report = verify_realization(rmap)
    print(f"pushforward of the fundamental cycle = {report.degree} times "
          f"the subdivided cycle")
    print(f"predicted multiplicity 2^(n-1) * prod |involutions| = "
          f"{predicted_multiplicity(octa)}")
    print(f"components: {len(report.component_degrees)}, each of "
          f"multiplicity {set(report.component_degrees)}")
    print(f"flags: {report.nondegenerate_flags} nondegenerate, "
          f"{report.degenerate_flags} degenerate (mapped to a repeated "
          f"vertex, contributing zero)")
    counts = set(report.image_counts.values())
    print(f"per-simplex preimage counts over all "
          f"{len(report.image_counts)} subdivided simplices: {counts}")

    print("\n== one covering component is a genus 5 surface ==")
    component = build_component(octa)
    tri = triangulate(component.pc)
    groups = homology(tri.complex)
    print("integral homology:",
          ", ".join(f"H_{k} = {g}" for k, g in enumerate(groups)))
    creport = verify_realization(realization_map(component))
    print(f"component multiplicity: {creport.degree}")

    print("\n== a base needing subdivision: the boundary of the 3-simplex ==")
    bundle, _ = colored_from_complex(corpus.boundary_delta(3))
    component = build_component(bundle)
    creport = verify_realization(realization_map(component))
    print(f"component cover: {component.num_cells} cells, multiplicity "
          f"{creport.degree}")
    q = predicted_multiplicity(bundle)
    print(f"full-cover multiplicity from the formula: {q} "
          f"(cover too large to build)")


if __name__ == "__main__":
    main()
