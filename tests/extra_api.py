"""Helpers that only the tests use: the search that enumerates one
permutahedron's faces and flags, kept as the oracle for its closed-form
flag template, walks of its face lattice, its barycentric triangulation,
the template flag of each top of a triangulation, a cover's cells as
triples and its tuples as involutions, loaders for
cell-complex and cover documents, the facet-dual graph and its DOT export,
the suspended cycle, suspensions, joins of spheres, the pinched torus,
the 7-vertex torus, cycles, the benchmark's input generators, and the
reading of a cap refusal."""

import importlib.util
import re
from itertools import permutations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cyclecover.cells import UNGLUED, PermutahedralComplex
from cyclecover.permutahedron import (
    Chain,
    flag_template,
    full_mask,
    mask_elements,
    proper_subsets,
)
from cyclecover.pseudomanifold import AbstractComplex, ColoredPseudomanifold

# ---------------------------------------------------------------------------
# the face lattice of one permutahedron, by search


def mask_of(colors) -> int:
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


def is_chain(masks) -> bool:
    return all(a != b and a & b == a for a, b in zip(masks, masks[1:]))


def enumerate_faces(n: int, codim: int) -> list[Chain]:
    """All codimension-``codim`` faces as chains of ``codim`` nested subsets,
    in lexicographic order with respect to ``proper_subsets``."""
    if codim == 0:
        return [()]
    subsets = proper_subsets(n)
    out: list[Chain] = []

    def grow(chain: Chain):
        if len(chain) == codim:
            out.append(chain)
            return
        last = chain[-1] if chain else 0
        for m in subsets:
            if m != last and (m & last) == last:
                grow(chain + (m,))

    grow(())
    return out


def vertex_chains(n: int) -> list[Chain]:
    """Complete chains (codimension n); one per ordering of {1, ..., n+1}
    with the last element dropped."""
    return enumerate_faces(n, n)


def face_counts(n: int) -> list[int]:
    """Number of codimension-k faces for k = 0..n."""
    return [len(enumerate_faces(n, k)) for k in range(n + 1)]


def triangulation_flags(n: int) -> list[tuple[Chain, ...]]:
    """Top simplices of the barycentric triangulation, one per flag of faces.

    A flag is a sequence of chains () = c_0 < c_1 < ... < c_n where each step
    inserts one subset; equivalently a complete chain together with the order
    of insertion of its subsets.  There are n! * (n+1)! flags.
    """
    flags = []
    for complete in vertex_chains(n):
        for insert_order in permutations(range(n)):
            chains: list[Chain] = [()]
            held: list[int] = []
            for pos in insert_order:
                held.append(complete[pos])
                held.sort(key=lambda m: (m.bit_count(), mask_elements(m)))
                chains.append(tuple(held))
            flags.append(tuple(chains))
    return flags


# ---------------------------------------------------------------------------
# walks of the face lattice


def facets_intersect(a: int, b: int) -> bool:
    """Two facets of the permutahedron meet iff their subsets are nested."""
    common = a & b
    return common == a or common == b


def contained_faces(chain: Chain, n: int) -> list[Chain]:
    """Faces of the given face: superchains obtained by inserting one more
    nested subset (one codimension deeper)."""
    subsets = proper_subsets(n)
    present = set(chain)
    out = []
    for m in subsets:
        if m in present:
            continue
        extended = tuple(sorted(chain + (m,), key=lambda x: (x.bit_count(), mask_elements(x))))
        if is_chain(extended):
            out.append(extended)
    return out


def containing_faces(chain: Chain) -> list[Chain]:
    """Faces this face lies in: subchains dropping one subset."""
    return [chain[:i] + chain[i + 1:] for i in range(len(chain))]


def chain_as_order(chain: Chain, n: int) -> tuple[int, ...]:
    """Read a complete chain as the ordering of colors it adds."""
    order = []
    prev = 0
    for m in chain + (full_mask(n),):
        added = mask_elements(m & ~prev)
        order.extend(added)
        prev = m
    return tuple(order)


def barycentric_triangulation(n: int):
    """Triangulate one permutahedron: vertices are its faces (chains,
    including the empty chain for the whole cell), top simplices are flags.

    Returns (complex, chain_ids) with chains indexed by (codim, chain) order.
    """
    chains: list[Chain] = []
    for k in range(n + 1):
        chains.extend(enumerate_faces(n, k))
    chain_ids = {c: i for i, c in enumerate(chains)}
    tops = [tuple(sorted(chain_ids[c] for c in flag)) for flag in triangulation_flags(n)]
    return AbstractComplex(n, len(chains), tops), chain_ids


def template_flag_of_tops(tri):
    """The template flag of every top of a cover triangulation, from the
    chain rows of its vertex classes."""
    template = flag_template(tri.pc.n)
    rows = np.searchsorted(tri.classes.chain_start, tri.complex.tops,
                           side="right") - 1
    index = {tuple(flag): f for f, flag in enumerate(template.flags.tolist())}
    return np.array([index[tuple(r)] for r in rows.tolist()])


# ---------------------------------------------------------------------------
# cover cells as triples


class CoverCell(NamedTuple):
    sigma: int
    tuple_id: int
    g: int


def cover_cells(cover) -> list[CoverCell]:
    """Cell i of the cover as (sigma[i], tuple_id[i], g[i])."""
    return list(map(CoverCell, cover.sigma.tolist(), cover.tuple_id.tolist(),
                    cover.g.tolist()))


def tuple_values(registry) -> list[tuple]:
    """Tuple t of a cover's registry as its involutions, one tuple of image
    indices per slot."""
    held = np.stack([closure[registry.digits[:, s]]
                     for s, closure in enumerate(registry.closures)], axis=1)
    return [tuple(map(tuple, row)) for row in held.tolist()]


# ---------------------------------------------------------------------------
# documents and exports

def glue_from_list(n: int, num_cells: int, data) -> PermutahedralComplex:
    if not isinstance(n, int) or n < 1 or not isinstance(num_cells, int) or num_cells < 0:
        raise ValueError("'n' must be a positive integer and 'num_cells' a "
                         "nonnegative integer")
    if not isinstance(data, list):
        raise ValueError("'glue' must be a list of [cell, [colors], cell]")
    subsets = proper_subsets(n)
    slot_of = {w: slot for slot, w in enumerate(subsets)}
    glue = np.full((num_cells, len(subsets)), UNGLUED, dtype=np.int32)
    for entry in data:
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], int) or not isinstance(entry[2], int)
                or not isinstance(entry[1], list)):
            raise ValueError(f"bad gluing entry {entry!r}")
        cell, colors, target = entry
        if not (0 <= cell < num_cells and 0 <= target < num_cells):
            raise ValueError(f"gluing entry {entry!r} names a cell outside "
                             f"range(0, {num_cells})")
        if (not all(isinstance(c, int) and 1 <= c <= n + 1 for c in colors)
                or len(set(colors)) != len(colors)
                or mask_of(colors) not in slot_of):
            raise ValueError(f"gluing entry {entry!r} is not labelled by a proper "
                             f"nonempty subset of the colors 1..{n + 1}")
        slot = slot_of[mask_of(colors)]
        if glue[cell, slot] != UNGLUED:
            raise ValueError(f"gluing entry {entry!r} repeats a (cell, label) pair")
        glue[cell, slot] = target
    return PermutahedralComplex(n, num_cells, glue)


def cell_complex_from_dict(d) -> PermutahedralComplex:
    for key in ("n", "num_cells", "glue"):
        if key not in d:
            raise ValueError(f"cell complex document is missing {key!r}")
    return glue_from_list(d["n"], d["num_cells"], d["glue"])


def cover_cells_from_dict(d) -> list[CoverCell]:
    if "cells" not in d or not isinstance(d["cells"], list):
        raise ValueError("cover document needs a 'cells' list")
    out = []
    for cell in d["cells"]:
        try:
            out.append(CoverCell(cell["sigma"], cell["tuple_id"], cell["g"]))
        except (TypeError, KeyError) as e:
            raise ValueError(f"bad cover cell {cell!r}") from e
    return out


def dual_edges(c: AbstractComplex) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of top simplices sharing a facet that lies in
    exactly those two, read off the facet table's neighbors, ordered by the
    lower top and its dropped position."""
    neighbor = c.facet_table.neighbor
    top, slot = np.nonzero(neighbor > np.arange(len(neighbor))[:, None])
    return list(zip(top.tolist(), neighbor[top, slot].tolist()))


def dot_dual_graph(c: AbstractComplex, name: str = "dual") -> str:
    lines = [f"graph {name} {{"]
    for i in range(len(c.top_simplices)):
        lines.append(f"  t{i};")
    for i, j in dual_edges(c):
        lines.append(f"  t{i} -- t{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def suspended_cycle(k: int) -> AbstractComplex:
    """The suspension of the 2k-cycle: a 2-sphere with 4k triangles."""
    length = 2 * k
    return AbstractComplex(2, length + 2, [(i, (i + 1) % length, apex)
                                           for apex in (length, length + 1)
                                           for i in range(length)])


def suspension(c: AbstractComplex) -> AbstractComplex:
    """The suspension of ``c``: two new vertices, each joined to every top."""
    apexes = (c.num_vertices, c.num_vertices + 1)
    return AbstractComplex(c.n + 1, c.num_vertices + 2,
                           [top + (apex,) for apex in apexes for top in c.top_simplices])


def pinched_torus() -> AbstractComplex:
    """The icosahedron with its antipodal vertices 0 and 11 identified: 11
    vertices and 20 triangles, singular at vertex 0, whose link is two
    pentagons.  The two caps share no vertex but 0, so it stays a
    simplicial complex."""
    upper = [1 + i % 5 for i in range(6)]
    lower = [6 + i % 5 for i in range(6)]
    tops = [t for i in range(5) for t in (
        (0, upper[i], upper[i + 1]), (upper[i], upper[i + 1], lower[i]),
        (upper[i + 1], lower[i], lower[i + 1]), (lower[i], lower[i + 1], 0))]
    return AbstractComplex(2, 11, tops)


def torus7() -> AbstractComplex:
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return AbstractComplex(2, 7, [(i, (i + a) % 7, (i + 3) % 7)
                                  for i in range(7) for a in (1, 2)])


def disjoint_union(*complexes) -> AbstractComplex:
    """The complexes of one dimension side by side, vertices renumbered."""
    tops, start = [], 0
    for c in complexes:
        tops += (c.tops + start).tolist()
        start += c.num_vertices
    return AbstractComplex(complexes[0].n, start, tops)


def cycle(m: int) -> AbstractComplex:
    """The m-cycle, a 1-sphere with m edges; odd m has no regular
    coloring, so ``verify`` subdivides it."""
    return AbstractComplex(1, m, [(i, (i + 1) % m) for i in range(m)])


def sphere_join(*factors: int) -> ColoredPseudomanifold:
    """The join of spheres, each an even cycle of the given length whose
    vertices alternate two new colors, or for 0 two points of one new
    color."""
    tops, colors = [()], []
    for length in factors:
        first, color = len(colors), max(colors, default=0) + 1
        if length:
            simplices = [(i, (i + 1) % length) for i in range(length)]
            colors += [color + i % 2 for i in range(length)]
        else:
            simplices = [(0,), (1,)]
            colors += [color, color]
        tops = [top + tuple(first + v for v in s) for top in tops for s in simplices]
    return ColoredPseudomanifold(
        AbstractComplex(len(tops[0]) - 1, len(colors), tops), colors)


def benchmark_inputs():
    """The benchmark's seeded input generators, ``perfbench/inputs.py``
    (standard library only)."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_inputs",
        Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def refusal(e) -> tuple[int, int]:
    """The cap and the count reached of a ``CapExceededError``, checked:
    the count is over the cap, and both are the numbers its message
    prints."""
    assert e.reached > e.cap
    assert re.fullmatch(rf".* has {e.reached} .*, more than the cap {e.cap}",
                        str(e)), str(e)
    return e.cap, e.reached
