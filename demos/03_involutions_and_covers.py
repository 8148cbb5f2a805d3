"""Compatible involutions and covers of the Tomei manifold.

For a colored oriented pseudomanifold Z, each proper color subset gets a
fixed-point-free involution on the top simplices that swaps orientation
sides and preserves the faces spanned by those colors.  Tuples of such
involutions label the cells of a cell complex that covers the Tomei
manifold of the same dimension.  This script counts the involutions,
builds covers for the hexagon and the octahedron, and verifies the
covering property cell by cell.
"""

from itertools import combinations

from cyclecover import corpus
from cyclecover.cells import euler_characteristic, face_classes, triangulate
from cyclecover.covering import build_component, build_full, verify_covering
from cyclecover.involutions import (
    canonical_involution,
    count_compatible_involutions,
)
from cyclecover.pseudomanifold import ColoredPseudomanifold
from cyclecover.tomei import build_tomei


def color_mask(colors):
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


def count_components(pc):
    parent = list(range(pc.num_cells))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(pc.glue.tolist()):
        for j in row:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(pc.num_cells)})


def survey(name, bundle):
    print(f"== {name} (n = {bundle.n}) ==")
    n = bundle.n
    for k in range(1, n + 1):
        for colors in combinations(range(1, n + 2), k):
            w = color_mask(colors)
            count = count_compatible_involutions(bundle, w)
            example = canonical_involution(bundle, w)
            print(f"  colors {set(colors)}: {count} compatible involution(s), "
                  f"canonical one {example}")


def main():
    hexagon = ColoredPseudomanifold(*corpus.hexagon_cycle())
    survey("hexagon", hexagon)
    cover = build_component(hexagon)
    report = verify_covering(cover)
    base = build_tomei(hexagon.n)
    print(f"cover component: {cover.num_cells} cells over the "
          f"{base.num_cells}-cell base, covering degree {report.degree}\n")

    octa = ColoredPseudomanifold(*corpus.octahedron())
    survey("octahedron", octa)
    component = build_component(octa)
    report = verify_covering(component)
    classes = face_classes(component.pc)
    print(f"cover component: {component.num_cells} cells, covering degree "
          f"{report.degree}, face classes {classes.counts_by_codim()}, "
          f"Euler characteristic {euler_characteristic(component.pc, classes)}")
    tri = triangulate(component.pc, classes)
    print(f"triangulated component: {len(tri.complex.top_simplices)} "
          f"triangles")

    full = build_full(octa)
    report = verify_covering(full)
    print(f"full cover: {full.num_cells} cells, covering degree "
          f"{report.degree}, components {count_components(full.pc)} "
          f"(all translates of the seed component)")


if __name__ == "__main__":
    main()
