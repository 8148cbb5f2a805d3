"""The permutahedral cell structure of the Tomei manifolds.

Builds the n-dimensional Tomei manifold as a cell complex of (n+1)!
permutahedra glued along color-set facets, counts face classes, checks
Euler characteristics, triangulates barycentrically, and computes integral
homology.  The n = 2 member is the closed orientable surface of genus 2.
"""

from cyclecover.cells import (
    euler_characteristic,
    face_classes,
    triangulate,
    verify_surface,
)
from cyclecover.homology import fundamental_class, homology
from cyclecover.pseudomanifold import orient, validate_pseudomanifold
from cyclecover.tomei import build_tomei


def main():
    for n in (1, 2, 3):
        pc = build_tomei(n)
        classes = face_classes(pc)
        counts = classes.counts_by_codim()
        chi = euler_characteristic(pc, classes)
        print(f"n={n}: {pc.num_cells} permutahedra, face classes by "
              f"codimension {counts}, Euler characteristic {chi}")

    print("\n== the surface member, n = 2 ==")
    pc = build_tomei(2)
    tri = triangulate(pc)
    print(f"triangulation: {tri.complex.num_vertices} vertices, "
          f"{len(tri.complex.top_simplices)} triangles")
    report = validate_pseudomanifold(tri.complex)
    print(f"closed pseudomanifold: {report.ok}")
    surface = verify_surface(tri)
    print(f"surface checks (edge degrees, vertex links): {surface.ok}")
    print(f"orientable: {len(orient(tri.complex))} coherently signed triangles")
    groups = homology(tri.complex)
    print("integral homology:",
          ", ".join(f"H_{k} = {g}" for k, g in enumerate(groups)))
    cycle = fundamental_class(tri.complex)
    print(f"fundamental cycle: {len(cycle)} triangles with signs "
          f"{sorted(set(cycle.tolist()))}")

    print("\n== the 3-dimensional member ==")
    pc = build_tomei(3)
    tri = triangulate(pc)
    report = validate_pseudomanifold(tri.complex)
    print(f"triangulation: {len(tri.complex.top_simplices)} tetrahedra, "
          f"closed: {report.ok}, coherently oriented: "
          f"{len(orient(tri.complex))} signs")


if __name__ == "__main__":
    main()
