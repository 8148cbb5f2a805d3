"""The dict-backed gluing code that the array tables replaced, kept as the
oracle for them.

Glue is a dict keyed by (cell, subset mask); face classes are found by
breadth-first search over it; cover builds call ``cross_facet`` for every
cell and facet, with no memo of the tuple transitions.
"""

from collections import deque
from itertools import product

from cyclecover.covering import (
    CoverCell,
    InvolutionRegistry,
    cross_facet,
    in_cover_set,
    seed_cell,
)
from cyclecover.involutions import enumerate_compatible_involutions
from cyclecover.permutahedron import enumerate_faces


def glue_dict(pc) -> dict:
    """The glue table as {(cell, subset): partner cell}."""
    return {(i, w): j for i, row in enumerate(pc.glue.tolist())
            for w, j in zip(pc.subsets, row)}


def face_classes(pc):
    """(class_of, members, chain_of_class): orbits of (cell, chain) pairs,
    numbered codimension first, then chain order, then lowest cell."""
    glue = glue_dict(pc)
    class_of: dict = {}
    members: list = []
    chain_of_class: list = []
    for k in range(pc.n + 1):
        for chain in enumerate_faces(pc.n, k):
            for cell in range(pc.num_cells):
                if (cell, chain) in class_of:
                    continue
                cid = len(members)
                orbit = [(cell, chain)]
                class_of[(cell, chain)] = cid
                queue = deque([cell])
                while queue:
                    i = queue.popleft()
                    for w in chain:
                        j = glue[(i, w)]
                        if (j, chain) not in class_of:
                            class_of[(j, chain)] = cid
                            orbit.append((j, chain))
                            queue.append(j)
                assert len(orbit) == 1 << len(chain)
                members.append(orbit)
                chain_of_class.append(chain)
    return class_of, members, chain_of_class


def cover_to_base(cover_pc, projection, base) -> list[int]:
    """The base class under each cover class, asserting it is unique."""
    _, cover_members, _ = face_classes(cover_pc)
    base_class_of, _, _ = face_classes(base)
    out = []
    for members in cover_members:
        images = {base_class_of[(projection[i], chain)] for i, chain in members}
        assert len(images) == 1
        out.append(images.pop())
    return out


def build_component(cp):
    """(cells, glue dict) of the component of the seed cell, breadth first."""
    reg = InvolutionRegistry(cp)
    seed = seed_cell(reg)
    cells = [seed]
    index = {seed: 0}
    glue = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for w in reg.subsets:
            neighbor = cross_facet(reg, cells[i], w)
            j = index.get(neighbor)
            if j is None:
                j = len(cells)
                cells.append(neighbor)
                index[neighbor] = j
                queue.append(j)
            glue[(i, w)] = j
    return cells, glue


def build_full(cp):
    """(cells, glue dict) of the full cover set, cells sorted."""
    reg = InvolutionRegistry(cp)
    pools = [[reg.intern_involution(p)
              for p in enumerate_compatible_involutions(cp, w)]
             for w in reg.subsets]
    cells = []
    for combo in product(*pools):
        tid = reg.intern_tuple(combo)
        for sigma in range(cp.top_count):
            for g in range(1 << cp.n):
                cell = CoverCell(sigma, tid, g)
                if in_cover_set(cp, cell):
                    cells.append(cell)
    cells.sort()
    index = {cell: i for i, cell in enumerate(cells)}
    glue = {(i, w): index[cross_facet(reg, cell, w)]
            for i, cell in enumerate(cells) for w in reg.subsets}
    return cells, glue
