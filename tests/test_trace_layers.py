"""The benchmark's traced run reads its per-layer metrics from the layer
modules and from the functions that ``perfbench/tracing.py`` names.  A
refactor that moves or renames one of them makes the metric vanish from
the traced run; this test catches that without running the benchmark."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from cyclecover import cli

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_report_has_every_benchmark_layer_metric(tmp_path):
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["report", "--input",
                             str(ROOT / "corpus" / "octahedron.json"),
                             "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.op_metrics(0)
    missing = [name for name in names
               if not name.startswith("trace.") and name not in metrics]
    assert missing == []
