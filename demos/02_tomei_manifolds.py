"""The permutahedral cell structure of the Tomei manifolds.

M^n is 2^n permutahedra, one per g in (Z_2)^n, with facet F_w of cell g
glued to facet F_w of cell g + e_|w|.  Its barycentric triangulation is one
flag template, the flag triangulation of one permutahedron, repeated over
the cells.  So M^n is certified on that template and the glue table, as the
``tomei`` command certifies it: face classes counted in closed form, closed
and connected, orientable (its holonomies, read off the glue, are all even),
and at n = 2 a surface.  Only the n = 2 member is
triangulated, to compute its integral homology: it is the closed orientable
surface of genus 2.
"""

import numpy as np

from cyclecover.cells import euler_of_counts, triangulate
from cyclecover.certificate import (
    class_counts,
    is_oriented,
    template_is_closed,
    template_is_connected,
    template_is_surface,
)
from cyclecover.covering import holonomy
from cyclecover.homology import fundamental_class, homology
from cyclecover.permutahedron import flag_template
from cyclecover.tomei import build_tomei, glued_as_tomei


def main():
    for n in (1, 2, 3, 4):
        pc = build_tomei(n)
        template = flag_template(n)
        counts = class_counts(template, pc.num_cells)
        hol = holonomy(np.arange(pc.num_cells), pc.glue, n)
        print(f"n={n}: {pc.num_cells} permutahedra of {len(template.flags)} "
              f"flags each, face classes by codimension {counts}, Euler "
              f"characteristic {euler_of_counts(counts)}")
        print(f"  glued as M^n: {glued_as_tomei(pc)}, "
              f"closed: {template_is_closed(template)}, "
              f"connected: {template_is_connected(template)}, orientable: "
              f"{is_oriented(template, hol)}")

    print("\n== the surface member, n = 2 ==")
    print(f"every vertex link one cycle: {template_is_surface(flag_template(2))}")
    tri = triangulate(build_tomei(2))
    print(f"triangulation: {tri.complex.num_vertices} vertices, "
          f"{len(tri.complex.top_simplices)} triangles")
    groups = homology(tri.complex)
    print("integral homology:",
          ", ".join(f"H_{k} = {g}" for k, g in enumerate(groups)))
    cycle = fundamental_class(tri.complex)
    print(f"fundamental cycle: {len(cycle)} triangles with signs "
          f"{sorted(set(cycle.tolist()))}")


if __name__ == "__main__":
    main()
