"""The benchmark's workloads: seeded inputs, one operation each, and the
oracle that checks every output of that operation.

An operation is a fixed list of steps, each one call of the package's command
line entry point ``cyclecover.cli.main(argv)`` in this process.  Every step
passes ``--max-cells 1000000`` so the cap never comes from the environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from inputs import (boundary_delta3, cycle_join, octahedron, seeded_document,
                    suspended_cycle)

MAX_CELLS = "1000000"
COUNT_CLAIM = "compatible involutions counted for every color subset"


class Mismatch(Exception):
    """An operation's exit code or output differs from the expected values."""


def call_cli(cli, argv: list[str]) -> tuple[str, float]:
    """Run one command; return its standard output and wall seconds.
    Exit codes other than 0 are mismatches."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv + ["--max-cells", MAX_CELLS])
        seconds = time.perf_counter() - start
    if code != 0:
        raise Mismatch(f"{argv[0]} exited with code {code}")
    return out.getvalue(), seconds


@dataclass(frozen=True)
class Report:
    """``report`` on one input: the claims ledger must pass, except that the
    involution count may be skipped, and the counts must match."""

    input: str
    cells: int
    degree: int
    q_component: int
    q_formula: int | None = None

    def run(self, cli, work: Path) -> tuple[bytes, int, float]:
        out = work / f"{self.input}.report.json"
        _, seconds = call_cli(cli, ["report", "--input",
                                    str(work / f"{self.input}.json"),
                                    "--out", str(out)])
        data = out.read_bytes()
        report = json.loads(data)
        for claim in report["claims"]:
            if claim["status"] != "pass" and not (
                    claim["claim"] == COUNT_CLAIM and claim["status"] == "skipped"):
                raise Mismatch(f"{self.input}: claim {claim['claim']!r} is "
                               f"{claim['status']}")
        got = (report["ok"], report["component_cells"],
               report["covering_degree"], report["q_component"])
        want = (True, self.cells, self.degree, self.q_component)
        if got != want:
            raise Mismatch(f"{self.input}: (ok, cells, degree, q) is {got}, "
                           f"expected {want}")
        if self.q_formula is not None and report["q_formula"] != self.q_formula:
            raise Mismatch(f"{self.input}: q_formula is {report['q_formula']}, "
                           f"expected {self.q_formula}")
        return data, self.cells, seconds


@dataclass(frozen=True)
class Cover:
    """``cover`` on one input: the printed summary must match exactly."""

    input: str
    cells: int
    degree: int

    def run(self, cli, work: Path) -> tuple[bytes, int, float]:
        text, seconds = call_cli(
            cli, ["cover", "--input", str(work / f"{self.input}.json")])
        want = f"cover: {self.cells} cells, covering degree {self.degree}\n"
        if text != want:
            raise Mismatch(f"{self.input}: printed {text!r}, expected {want!r}")
        return text.encode(), self.cells, seconds


@dataclass(frozen=True)
class Homology:
    """``homology`` on one input: the printed groups must match exactly.
    The work count is the number of simplices of every dimension."""

    input: str
    groups: tuple[str, ...]

    def run(self, cli, work: Path) -> tuple[bytes, int, float]:
        path = work / f"{self.input}.json"
        text, seconds = call_cli(cli, ["homology", "--input", str(path)])
        want = "".join(f"H_{k} = {g}\n" for k, g in enumerate(self.groups))
        if text != want:
            raise Mismatch(f"{self.input}: printed {text!r}, expected {want!r}")
        return (text.encode(), simplex_count(json.loads(path.read_text())),
                seconds)


def simplex_count(doc: dict) -> int:
    """Nonempty faces of every dimension of a pure complex document."""
    faces = set()
    for s in doc["simplices"]:
        s = sorted(s)
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))
    return len(faces)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict  # file stem -> function making the unscrambled document
    steps: tuple
    # commands that turn generated inputs into further inputs during setup
    prepare: tuple = ()
    # per-layer counts the traced run must reproduce exactly
    expected_counts: tuple = ()

    def setup(self, cli, seed: int, work: Path) -> None:
        """Write the seeded inputs and run the preparing commands."""
        for stem, build in self.inputs.items():
            (work / f"{stem}.json").write_text(
                seeded_document(stem, build(), seed), encoding="utf-8")
        for argv in self.prepare:
            call_cli(cli, [a.format(work=work) for a in argv])

    def operation(self, cli, work: Path) -> tuple[list[bytes], int, float]:
        """Run every step once and check it.  Returns the outputs to compare
        between operations, the cells processed and the seconds spent in
        the commands, which leaves out the checking."""
        outputs, cells, seconds = [], 0, 0.0
        for step in self.steps:
            data, n, dt = step.run(cli, work)
            outputs.append(data)
            cells += n
            seconds += dt
        return outputs, cells, seconds


HOMOLOGY_GENUS_FIVE = ("Z", " + ".join(["Z"] * 10), "Z")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-n2",
        why="whole certificate at surface scale, where per-call overhead shows; "
            "the only workload on the full-product build, involution "
            "enumeration, triangulation and realization",
        inputs={"octahedron": octahedron, "delta3": boundary_delta3,
                "suspended10": lambda: suspended_cycle(5)},
        steps=(Report("octahedron", 1024, 256, 128, q_formula=128),
               Report("delta3", 432, 108, 18),
               Report("suspended10", 2400, 600, 20)),
    ),
    Workload(
        name="cover-n3",
        why="breadth-first cover build, gluing check, face classes and "
            "covering check with nothing triangulated: the counterpart of "
            "verify-n2",
        inputs={"join4x10": lambda: cycle_join(2, 5)},
        steps=(Cover("join4x10", 20000, 2500),),
        expected_counts=(("covering.tuples", 125),),
    ),
    Workload(
        name="homology-cover",
        why="Smith normal form over exact integers on the triangulated "
            "16-cell octahedron cover; the one layer the verify path never "
            "calls",
        inputs={"octahedron": octahedron},
        prepare=(("cover", "--input", "{work}/octahedron.json",
                  "--cells-out", "{work}/octahedron_cover.json"),),
        steps=(Homology("octahedron_cover", HOMOLOGY_GENUS_FIVE),),
        expected_counts=(("homology.snf_calls", 3),),
    ),
)}
