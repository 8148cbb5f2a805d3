"""Deterministic JSON serialization for complexes, covers, and reports.

Simplicial complexes travel as {"n", "num_vertices", "simplices"} with
optional "colors" and "orientation"; permutahedral cell complexes as
{"n", "num_cells", "glue"} with each gluing written [cell, [colors], cell];
covers add the cell labels.  Dumps are key-sorted with fixed indentation so
identical data always produces identical bytes.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .cells import PermutahedralComplex
from .covering import CoverComplex
from .permutahedron import mask_elements
from .pseudomanifold import AbstractComplex


@contextmanager
def all_digits():
    """Lift the interpreter's cap on int-to-string conversion inside the
    block, and restore the cap it had when the block ends: q and the
    involution counts run to thousands of digits on small inputs."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def dumps(obj) -> str:
    """Key-sorted, indented JSON.  Integers are written in full, however
    many digits they have (``all_digits``)."""
    with all_digits():
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


def _is_int(x) -> bool:
    """Is x an integer of the schema?  JSON ``true`` and ``false`` load as
    Python bools, which are ints, and are refused."""
    return type(x) is int


def complex_from_dict(d) -> tuple[AbstractComplex, list[int] | None, list[int] | None]:
    if not isinstance(d, dict):
        raise ValueError("complex document must be a JSON object")
    for key in ("n", "num_vertices", "simplices"):
        if key not in d:
            raise ValueError(f"complex document is missing {key!r}")
    if not _is_int(d["n"]) or not _is_int(d["num_vertices"]):
        raise ValueError("'n' and 'num_vertices' must be integers")
    simplices = d["simplices"]
    if not isinstance(simplices, list) or not all(
            isinstance(s, list) and all(_is_int(v) for v in s)
            for s in simplices):
        raise ValueError("'simplices' must be a list of lists of integers")
    c = AbstractComplex(d["n"], d["num_vertices"], [tuple(s) for s in simplices])

    coloring = d.get("colors")
    if coloring is not None:
        if (not isinstance(coloring, list) or len(coloring) != c.num_vertices
                or not all(_is_int(x) for x in coloring)):
            raise ValueError("'colors' must list one integer per vertex")
    orientation = d.get("orientation")
    if orientation is not None:
        if (not isinstance(orientation, list)
                or len(orientation) != len(c.tops)
                or not all(_is_int(x) and x in (1, -1) for x in orientation)):
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


def cell_complex_to_dict(pc: PermutahedralComplex) -> dict:
    return {"n": pc.n, "num_cells": pc.num_cells, "glue": _glue_to_list(pc)}


def cover_to_dict(cover: CoverComplex) -> dict:
    return {
        "n": cover.pc.n,
        "cells": [{"sigma": s, "tuple_id": t, "g": g}
                  for s, t, g in zip(cover.sigma.tolist(), cover.tuple_id.tolist(),
                                     cover.g.tolist())],
        "glue": _glue_to_list(cover.pc),
    }
