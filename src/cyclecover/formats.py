"""Deterministic JSON serialization for complexes, covers, and reports.

Simplicial complexes travel as {"n", "num_vertices", "simplices"} with
optional "colors" and "orientation"; permutahedral cell complexes as
{"n", "num_cells", "glue"} with each gluing written [cell, [colors], cell];
covers add the cell labels.  Dumps are key-sorted with fixed indentation so
identical data always produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cells import UNGLUED, PermutahedralComplex
from .covering import CoverCell, CoverComplex
from .permutahedron import mask_elements, mask_of, proper_subsets
from .pseudomanifold import AbstractComplex


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# simplicial complexes

def complex_to_dict(c: AbstractComplex, coloring=None, orientation=None) -> dict:
    out = {
        "n": c.n,
        "num_vertices": c.num_vertices,
        "simplices": [list(s) for s in c.top_simplices],
    }
    if coloring is not None:
        out["colors"] = list(coloring)
    if orientation is not None:
        out["orientation"] = list(orientation)
    return out


def complex_from_dict(d) -> tuple[AbstractComplex, list[int] | None, list[int] | None]:
    if not isinstance(d, dict):
        raise ValueError("complex document must be a JSON object")
    for key in ("n", "num_vertices", "simplices"):
        if key not in d:
            raise ValueError(f"complex document is missing {key!r}")
    if not isinstance(d["n"], int) or not isinstance(d["num_vertices"], int):
        raise ValueError("'n' and 'num_vertices' must be integers")
    simplices = d["simplices"]
    if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(isinstance(v, int) for v in s)
            for s in simplices):
        raise ValueError("'simplices' must be a list of lists of integers")
    c = AbstractComplex(d["n"], d["num_vertices"], [tuple(s) for s in simplices])

    coloring = d.get("colors")
    if coloring is not None:
        if (not isinstance(coloring, list) or len(coloring) != c.num_vertices
                or not all(isinstance(x, int) for x in coloring)):
            raise ValueError("'colors' must list one integer per vertex")
    orientation = d.get("orientation")
    if orientation is not None:
        if (not isinstance(orientation, list)
                or len(orientation) != len(c.top_simplices)
                or not all(x in (1, -1) for x in orientation)):
            raise ValueError("'orientation' must assign +1 or -1 per simplex")
    return c, coloring, orientation


def load_complex(path):
    return complex_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# permutahedral complexes and covers

def _glue_to_list(pc: PermutahedralComplex) -> list:
    """Entries [cell, [colors], cell], sorted by (cell, subset mask)."""
    order = sorted(range(len(pc.subsets)), key=pc.subsets.__getitem__)
    labels = [mask_elements(pc.subsets[slot]) for slot in order]
    return [[i, list(label), j]
            for i, row in enumerate(pc.glue[:, order].tolist())
            for label, j in zip(labels, row)]


def _glue_from_list(n: int, num_cells: int, data) -> PermutahedralComplex:
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


def cell_complex_to_dict(pc: PermutahedralComplex) -> dict:
    return {"n": pc.n, "num_cells": pc.num_cells, "glue": _glue_to_list(pc)}


def cell_complex_from_dict(d) -> PermutahedralComplex:
    for key in ("n", "num_cells", "glue"):
        if key not in d:
            raise ValueError(f"cell complex document is missing {key!r}")
    return _glue_from_list(d["n"], d["num_cells"], d["glue"])


def cover_to_dict(cover: CoverComplex) -> dict:
    return {
        "n": cover.pc.n,
        "cells": [{"sigma": c.sigma, "tuple_id": c.tuple_id, "g": c.g}
                  for c in cover.cells],
        "glue": _glue_to_list(cover.pc),
    }


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


# ---------------------------------------------------------------------------
# optional DOT export of facet-dual graphs

def dot_dual_graph(c: AbstractComplex, name: str = "dual") -> str:
    lines = [f"graph {name} {{"]
    for i in range(len(c.top_simplices)):
        lines.append(f"  t{i};")
    for i, j in c.dual_edges():
        lines.append(f"  t{i} -- t{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
