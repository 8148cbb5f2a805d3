"""Spans and counters around the package's layers, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules, and
the constructors written in their source, with a wrapper in every
``cyclecover`` module that binds them; ``uninstall`` puts the originals back.
Nothing in the package changes.

A call records a span (name, start, end, parent, operation) when it enters a
layer from another layer, or when a time metric below names its function.
Any other call from inside the same layer is only counted: its time is that
layer's own time either way, and spanning the inner helpers would multiply
the tracing cost.  Spans live in flat arrays until the run
ends.  A layer's self time is the time its spans cover minus the time their
child spans cover, so the self times of one operation add up to the duration
of its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

# The package's modules that form layers.  ``permutahedron`` holds small
# helpers whose cost is counted inside their callers; ``errors``, ``corpus``
# and the package itself hold no work of their own.
LAYERS = ("cli", "formats", "pseudomanifold", "involutions", "tomei",
          "covering", "cells", "realization", "homology")

# Time metrics: the self time of spans of the named functions.
TIMES = {
    "formats.load_s": ("formats.read_json", "formats.load_complex",
                       "formats.complex_from_dict",
                       "formats.cell_complex_from_dict",
                       "formats.cover_cells_from_dict"),
    "formats.dump_s": ("formats.dumps", "formats.write_json",
                       "formats.complex_to_dict", "formats.cell_complex_to_dict",
                       "formats.cover_to_dict"),
    "covering.build_s": ("covering.build_component", "covering.build_full"),
    "covering.verify_s": ("covering.verify_covering",
                          "covering.verify_cell_projection"),
    "cells.complex_s": ("cells.PermutahedralComplex.__init__",),
    "cells.face_classes_s": ("cells.face_classes",),
    "cells.triangulate_s": ("cells.triangulate",),
    "realization.map_s": ("realization.realization_map",),
    "realization.verify_s": ("realization.verify_realization",),
    "homology.boundary_s": ("homology.boundary_matrices",
                            "homology.faces_by_dimension"),
    "homology.snf_s": ("homology.smith_normal_form",),
}

# Call counts, including calls from inside the same layer.
CALLS = {
    "pseudomanifold.validate_calls": "pseudomanifold.validate_pseudomanifold",
    "pseudomanifold.orient_calls": "pseudomanifold.orient",
    "involutions.enumerate_calls": "involutions.enumerate_compatible_involutions",
    "tomei.build_calls": "tomei.build_tomei",
    "homology.snf_calls": "homology.smith_normal_form",
}


# Work counters: function -> (metric, amount taken from its args and result).
WORK = {
    "formats.read_json": (("formats.bytes", lambda a, r: os.path.getsize(a[0])),),
    "formats.write_json": (("formats.bytes", lambda a, r: os.path.getsize(a[1])),),
    "pseudomanifold.orient": (("pseudomanifold.oriented_tops", lambda a, r: len(r)),),
    "involutions.enumerate_compatible_involutions":
        (("involutions.enumerated", lambda a, r: len(r)),),
    "covering.build_component": (
        ("covering.cells", lambda a, r: r.num_cells),
        ("covering.tuples", lambda a, r: r.registry.tuple_count)),
    "covering.build_full": (
        ("covering.cells", lambda a, r: r.num_cells),
        ("covering.tuples", lambda a, r: r.registry.tuple_count)),
    "cells.PermutahedralComplex.__init__":
        (("cells.glue_entries", lambda a, r: len(a[0].glue)),),
    "cells.face_classes": (("cells.classes", lambda a, r: len(r.members)),),
    "cells.triangulate":
        (("cells.tri_tops", lambda a, r: len(r.complex.top_simplices)),),
    "realization.realization_map":
        (("realization.classes_checked", lambda a, r: len(r.classes.members)),),
    "realization.verify_realization": (
        ("realization.flags",
         lambda a, r: r.degenerate_flags + r.nondegenerate_flags),
        ("realization.useful_flags", lambda a, r: r.nondegenerate_flags)),
    "homology.smith_normal_form":
        (("homology.matrix_entries", lambda a, r: r.d.shape[0] * r.d.shape[1]),),
}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.  ``spans`` is a list of
    (start, end, parent index or -1)."""
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][0]):
            lo, hi = max(spans[c][0], reach), min(spans[c][1], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Wraps the layers, records spans and counts, and turns them into the
    per-layer metrics of each operation."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.stack: list[tuple[int, str]] = []
        self.op = -1
        self.calls: list[Counter] = []
        self.work: list[Counter] = []
        self.errors: list[Counter] = []
        self.broken: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.calls.append(Counter())
        self.work.append(Counter())
        self.errors.append(Counter())

    def _count(self, specs, args, result) -> None:
        for metric, amount in specs:
            try:
                self.work[self.op][metric] += amount(args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                # an object that changed shape leaves its metric absent
                self.broken.add(metric)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        specs = WORK.get(name)
        timed = any(name in names for names in TIMES.values())
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            self.calls[self.op][name] += 1
            if stack and stack[-1][1] == layer and not timed:
                result = fn(*args, **kwargs)
            else:
                index = len(self.start)
                self.parent.append(stack[-1][0] if stack else -1)
                self.name_id.append(nid)
                self.op_id.append(self.op)
                self.end.append(0.0)
                stack.append((index, layer))
                self.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.errors[self.op][layer] += 1
                    raise
                finally:
                    self.end[index] = clock()
                    stack.pop()
            if specs is not None:
                self._count(specs, args, result)
            return result

        return wrapper

    def install(self, package: str = "cyclecover") -> None:
        """Wrap each public function and source-defined constructor of every
        layer module, wherever a module of the package binds it."""
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue  # a layer removed by a refactor leaves its metrics absent
            for attr, value in vars(module).items():
                if (attr.startswith("_")
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                if inspect.isfunction(value):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    init = vars(value).get("__init__")
                    if (inspect.isfunction(init)
                            and init.__code__.co_filename == module.__file__):
                        self._patched.append((value, "__init__", init))
                        value.__init__ = self._wrap(f"{layer}.{attr}.__init__", init)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ----------------------------------------------------------

    def op_metrics(self, op: int) -> dict[str, float]:
        """The per-layer metrics of one operation, plus ``trace.root_s``, the
        duration of its root spans.  A metric whose functions no longer exist
        is left out."""
        index = [i for i in range(len(self.start)) if self.op_id[i] == op]
        local = {i: k for k, i in enumerate(index)}
        spans = [(self.start[i], self.end[i], local.get(self.parent[i], -1))
                 for i in index]
        by_name: Counter = Counter()
        for i, s in zip(index, self_times(spans)):
            by_name[self.names[self.name_id[i]]] += s
        known = set(self.names)

        out: dict[str, float] = {}
        for layer in LAYERS:
            if any(n.split(".")[0] == layer for n in known):
                out[f"{layer}.self_s"] = sum(
                    s for n, s in by_name.items() if n.split(".")[0] == layer)
                out[f"{layer}.errors"] = self.errors[op][layer]
        for metric, names in TIMES.items():
            if known.intersection(names):
                out[metric] = sum(by_name[n] for n in names)
        for metric, name in CALLS.items():
            if name in known:
                out[metric] = self.calls[op][name]
        for name, specs in WORK.items():
            if name in known:
                for metric, _ in specs:
                    if metric not in self.broken:
                        out[metric] = self.work[op][metric]
        useful = out.pop("realization.useful_flags", None)
        if useful is not None and "realization.flags" in out:
            flags = out["realization.flags"]
            out["realization.useful_flag_ratio"] = useful / flags if flags else 0.0
        if "covering.cells" in out:
            build = sum(self.end[i] - self.start[i] for i in index
                        if self.names[self.name_id[i]] in TIMES["covering.build_s"])
            out["covering.build_cells_per_s"] = (
                out["covering.cells"] / build if build else 0.0)
        out["trace.root_s"] = sum(self.end[i] - self.start[i] for i in index
                                  if self.parent[i] < 0)
        return out

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; return the number written."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.start)):
                f.write(f'{{"id": {i}, "op": {self.op_id[i]}, '
                        f'"parent": {self.parent[i]}, '
                        f'"name": "{self.names[self.name_id[i]]}", '
                        f'"start": {self.start[i] - self.t0:.9f}, '
                        f'"end": {self.end[i] - self.t0:.9f}}}\n')
        return len(self.start)
