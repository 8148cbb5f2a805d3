"""Tests of the benchmark's own code: input generation, the oracle, the
tracer and its self-time arithmetic.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from cyclecover import cli  # noqa: E402
from inputs import boundary_delta3, octahedron, scramble, seeded_document  # noqa: E402
from run import tail  # noqa: E402
from speed import PROBE_REF_S, normalised  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402


def _inputs(seed):
    return {(w.name, stem): seeded_document(stem, build(), seed)
            for w in WORKLOADS.values() for stem, build in w.inputs.items()}


def test_same_seed_same_bytes_and_other_seeds_other_bytes():
    assert _inputs(7) == _inputs(7)
    first, second = _inputs(0), _inputs(1)
    assert all(first[k] != second[k] for k in first)


def test_scramble_is_a_relabeling():
    for build in (octahedron, boundary_delta3):
        doc = build()
        out = scramble(doc, random.Random(3))
        assert len(out["simplices"]) == len(doc["simplices"])
        assert sorted(out.get("colors", [])) == sorted(doc.get("colors", []))
        if "colors" in out:
            palette = set(range(1, doc["n"] + 2))
            assert all({out["colors"][v] for v in s} == palette
                       for s in out["simplices"])


@pytest.mark.parametrize("build,name", [(octahedron, "octahedron"),
                                        (boundary_delta3, "boundary_delta3")])
def test_unscrambled_inputs_are_the_corpus_complexes(build, name):
    corpus = json.loads((ROOT / "corpus" / f"{name}.json").read_text())
    doc = build()
    assert sorted(map(sorted, doc["simplices"])) == sorted(corpus["simplices"])
    assert doc.get("colors") == corpus.get("colors")


@pytest.mark.parametrize("name", ["verify-n2", "homology-cover"])
def test_three_seeds_give_the_expected_outputs(name, tmp_path):
    workload = WORKLOADS[name]
    for seed in (0, 1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        workload.setup(cli, seed, work)
        _, cells, seconds = workload.operation(cli, work)
        assert cells > 0 and seconds > 0


def test_oracle_rejects_a_wrong_count(tmp_path):
    workload = WORKLOADS["verify-n2"]
    workload.setup(cli, 0, tmp_path)
    wrong = type(workload.steps[0])("octahedron", 1024, 256, 64)
    with pytest.raises(Mismatch, match="expected"):
        wrong.run(cli, tmp_path)


def test_self_times_on_a_synthetic_tree():
    spans = [
        (0.0, 10.0, -1),   # root: children cover [1, 4] and [5, 9]
        (1.0, 4.0, 0),     # child with its own child [2, 3]
        (2.0, 3.0, 1),
        (5.0, 9.0, 0),
        (20.0, 21.0, -1),  # a second root
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(self_times(spans)) == 10.0 + 1.0


def test_overlapping_children_are_covered_once():
    spans = [(0.0, 10.0, -1), (1.0, 6.0, 0), (4.0, 8.0, 0), (9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tail_percentile():
    value, label = tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("slowest of 3 operations")
    value, label = tail([float(i) for i in range(1, 12)])
    assert value == 11.0 and label.startswith("slowest of 11 operations")
    value, label = tail([float(i) for i in range(1, 21)])
    assert value == 20.0 and label.startswith("slowest of 20 operations")
    value, label = tail([float(i) for i in range(1, 100)])
    assert value == 99.0 and label.startswith("slowest of 99 operations")
    value, label = tail([float(i) for i in range(1, 101)])
    assert (value, label) == (90.0, "p90 of 100 operations")
    value, label = tail([float(i) for i in range(1, 201)])
    assert (value, label) == (190.0, "p95 of 200 operations")


def test_normalised_seconds_scale_by_the_probes_on_both_sides():
    ref = PROBE_REF_S
    assert normalised(2.0, ref, ref) == pytest.approx(2.0)
    assert normalised(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert normalised(1.0, 2 * ref, ref) == pytest.approx(2 / 3)


def test_traced_report_counts_duplicate_work(tmp_path):
    WORKLOADS["verify-n2"].setup(cli, 0, tmp_path)
    step = WORKLOADS["verify-n2"].steps[0]
    untraced = step.run(cli, tmp_path)[0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        traced = step.run(cli, tmp_path)[0]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    m = tracer.op_metrics(0)
    assert m["tomei.build_calls"] == 2
    assert m["pseudomanifold.validate_calls"] == 3
    assert m["pseudomanifold.orient_calls"] == 3
    assert m["involutions.enumerate_calls"] == 12
    assert m["covering.cells"] == 1024
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(m["trace.root_s"], rel=1e-9)


def test_tracer_leaves_removed_names_absent(tmp_path):
    package = tmp_path / "slimpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "tomei.py").write_text(
        "def build_tomei(n):\n    return sum(range(n))\n")
    (package / "cli.py").write_text(
        "from .tomei import build_tomei\n\n"
        "def main(n):\n    return build_tomei(n) + build_tomei(n)\n")
    sys.path.insert(0, str(tmp_path))
    try:
        import slimpkg.cli
        tracer = Tracer()
        tracer.install("slimpkg")
        try:
            tracer.begin_op()
            assert slimpkg.cli.main(5) == 20
        finally:
            tracer.uninstall()
    finally:
        sys.path.remove(str(tmp_path))
    m = tracer.op_metrics(0)
    assert m["tomei.build_calls"] == 2
    assert "covering.build_s" not in m and "cells.tri_tops" not in m
    assert m["cli.self_s"] + m["tomei.self_s"] == pytest.approx(m["trace.root_s"])


def test_run_without_the_package_fails_without_a_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-n2",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
