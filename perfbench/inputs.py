"""Seeded input complexes for the benchmark.

``cycle_join``, ``suspended_cycle``, ``octahedron`` and ``boundary_delta3``
return a complex document in the package's JSON format (``n``,
``num_vertices``, ``simplices`` and optional ``colors``).  ``scramble``
then relabels the vertices, reorders each simplex and shuffles the simplex
list from a seed, so the program never sees the same bytes twice across seeds
while the complex stays the same up to isomorphism.  Only the standard library
is used, so the set-up probe's import of the package finds nothing preloaded.
"""

from __future__ import annotations

import json
import random
from itertools import combinations


def cycle_join(a: int, b: int) -> dict:
    """The join C_2a * C_2b of two even cycles: a 3-sphere with 4ab
    tetrahedra.  The first cycle alternates colors 1, 2 and the second
    colors 3, 4, so the coloring is regular."""
    if a < 2 or b < 2:
        raise ValueError("each cycle needs at least 4 vertices")
    first, second = 2 * a, 2 * b
    simplices = [[i, (i + 1) % first, first + j, first + (j + 1) % second]
                 for i in range(first) for j in range(second)]
    colors = ([1 + i % 2 for i in range(first)]
              + [3 + j % 2 for j in range(second)])
    return {"n": 3, "num_vertices": first + second, "simplices": simplices,
            "colors": colors}


def suspended_cycle(k: int) -> dict:
    """The suspension of the 2k-cycle: a 2-sphere with 4k triangles, left
    uncolored so the program colors it by barycentric subdivision."""
    if k < 2:
        raise ValueError("the cycle needs at least 4 vertices")
    length = 2 * k
    simplices = [[i, (i + 1) % length, apex]
                 for apex in (length, length + 1) for i in range(length)]
    return {"n": 2, "num_vertices": length + 2, "simplices": simplices}


def octahedron() -> dict:
    """The corpus octahedron: vertices 2c-2 and 2c-1 carry color c."""
    simplices = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return {"n": 2, "num_vertices": 6, "simplices": simplices,
            "colors": [1, 1, 2, 2, 3, 3]}


def boundary_delta3() -> dict:
    """The corpus boundary of the tetrahedron, uncolored."""
    return {"n": 2, "num_vertices": 4,
            "simplices": [list(s) for s in combinations(range(4), 3)]}


def scramble(doc: dict, rng: random.Random) -> dict:
    """Relabel vertices, permute each simplex and shuffle the simplex list."""
    label = list(range(doc["num_vertices"]))
    rng.shuffle(label)
    simplices = []
    for s in doc["simplices"]:
        s = [label[v] for v in s]
        rng.shuffle(s)
        simplices.append(s)
    rng.shuffle(simplices)
    out = {"n": doc["n"], "num_vertices": doc["num_vertices"],
           "simplices": simplices}
    if "colors" in doc:
        colors = [0] * doc["num_vertices"]
        for v, c in enumerate(doc["colors"]):
            colors[label[v]] = c
        out["colors"] = colors
    return out


def seeded_document(name: str, doc: dict, seed: int) -> str:
    """The scrambled document as JSON text.  The generator is seeded from the
    input's name and the seed, so each input of a workload gets its own
    stream and the same seed always gives the same bytes."""
    rng = random.Random(f"{name}:{seed}")
    return json.dumps(scramble(doc, rng), sort_keys=True, indent=2) + "\n"
