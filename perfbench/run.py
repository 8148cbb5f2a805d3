"""Benchmark of the ``cyclecover`` command line on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed and
every operation calls ``cyclecover.cli.main(argv)`` in this process, one after
another (a closed loop with one client).  Operations start until ``--seconds``
have passed, and every output is checked against the expected values and
against the first operation's bytes.  The timings that ``BENCHMARK.json``
bounds are in normalised seconds (see ``speed``).

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced operations alternate, and the last line
holds the per-layer metrics of the traced operations (medians over them), the
traced operation time and the tracing overhead.  The spans go to
``.perfbench/trace-<workload>-seed<N>.jsonl``.

Exit codes: 0 every output correct, 1 an output was wrong, 2 the package or
the arguments are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import normalised, probe
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# cold set-ups per run; set-up time is their median
SETUP_REPEATS = 5


def import_cli():
    """Import the package from this checkout's source tree."""
    if not (SRC / "cyclecover" / "__init__.py").is_file():
        raise ImportError(f"no cyclecover package under {SRC}")
    sys.path.insert(0, str(SRC))
    from cyclecover import cli
    return cli


class Loop:
    """Runs operations back to back and keeps their times and failures."""

    def __init__(self, workload, cli, work: Path):
        self.workload, self.cli, self.work = workload, cli, work
        self.reference = None
        self.attempted = self.failed = 0

    def once(self, after=None) -> tuple[float, int] | None:
        """One checked operation: (seconds, cells), or None if it failed.
        ``after`` may raise Mismatch to fail the operation."""
        gc.collect()
        self.attempted += 1
        try:
            outputs, cells, seconds = self.workload.operation(self.cli, self.work)
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                raise Mismatch("output bytes differ from the first operation")
            if after is not None:
                after()
        except Mismatch as e:
            print(f"operation {self.attempted} failed: {e}", file=sys.stderr)
            self.failed += 1
            return None
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        return seconds, cells

    def until(self, deadline: float, before=None, after=None,
              probed: bool = False) -> list[tuple]:
        """Operations back to back, at least one, while the next one would
        end less than half an operation after the deadline.  Returns
        (seconds, cells) of those that passed their checks, followed, if
        ``probed``, by the probes before and after each one."""
        done, first, last = [], self.attempted, 0.0
        probes = [probe()] if probed else []
        while self.attempted == first or time.perf_counter() + last / 2 < deadline:
            if before is not None:
                before()
            start = time.perf_counter()
            result = self.once(after)
            last = time.perf_counter() - start
            if probed:
                probes.append(probe())
                if result is not None:
                    result += tuple(probes[-2:])
            if result is not None:
                done.append(result)
        return done


def tail(times: list[float]) -> tuple[float, str]:
    """The highest nearest-rank percentile with at least ten operations
    above it.  Below 100 operations that percentile is under p90, or does
    not exist, so the slowest operation stands in for it.  A lower
    threshold would let the tail jump between the slowest operation and
    the median as the operation count of a run crosses it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 100:
        return ordered[-1], (f"slowest of {n} operations; below 100 no "
                             f"percentile from p90 up has ten beyond it")
    p = 100 * (n - 10) // n
    return ordered[math.ceil(p * n / 100) - 1], f"p{p} of {n} operations"


def setup_seconds(workload: str, seed: int, tmp: Path) -> list[tuple]:
    """Cold set-ups, each in a fresh interpreter and a fresh directory:
    (seconds, probe before, probe after) of each."""
    out = []
    for k in range(SETUP_REPEATS):
        work = tmp / f"setup{k}"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(work)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(tuple(map(float, proc.stdout.split()[-3:])))
    return out


def end_to_end(args, workload, cli, work: Path, tmp: Path):
    setups = setup_seconds(args.workload, args.seed, tmp)
    loop = Loop(workload, cli, work)
    done = loop.until(time.perf_counter() + args.seconds, probed=True)
    if not done:
        return loop, {}, {}, {"fail_rate": f"{loop.failed}/{loop.attempted}"}, {}
    cells = sum(d[1] for d in done)
    wall = [d[0] for d in done]
    norm = [normalised(seconds, *around) for seconds, _, *around in done]
    wall_tail, tail_label = tail(wall)
    metrics = {
        "op_p50_norm_s": statistics.median(norm),
        "op_tail_norm_s": tail(norm)[0],
        "cells_per_norm_s": cells / sum(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(normalised(*s) for s in setups),
    }
    probes = [d[2] for d in done] + [done[-1][3]]
    # the same figures in wall seconds, printed but not bounded
    shown = {"op_p50_s": statistics.median(wall), "op_tail_s": wall_tail,
             "cells_per_s": cells / sum(wall),
             "setup_wall_s": statistics.median(s[0] for s in setups),
             "probe_p50_s": statistics.median(probes)}
    notes = {"op_p50_norm_s": f"median of {len(done)} operations",
             "op_tail_norm_s": tail_label,
             "op_p50_s": f"median of {len(done)} operations",
             "op_tail_s": tail_label,
             "probe_p50_s": f"median of {len(probes)} probes",
             "setup_s": f"median of {len(setups)} cold set-ups",
             "setup_wall_s": f"median of {len(setups)} cold set-ups",
             "fail_rate": f"{loop.failed}/{loop.attempted}"}
    return loop, metrics, {m: unit_of(m) for m in {**metrics, **shown}}, notes, shown


def unit_of(metric: str) -> str:
    if "cells_per_" in metric:
        return "cells/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "formats.bytes":
        return "bytes"
    return "count"


def per_layer(args, workload, cli, work: Path):
    loop = Loop(workload, cli, work)
    tracer = Tracer()

    def check_counts():
        got = tracer.op_metrics(tracer.op)
        for metric, want in workload.expected_counts:
            if metric in got and got[metric] != want:
                raise Mismatch(f"traced {metric} is {got[metric]}, expected {want}")

    # untraced and traced operations alternate, so that a change in the
    # machine's speed during the run does not show up as tracing overhead
    untraced, traced, pair = [], [], 0.0
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() + pair / 2 < deadline:
        start = time.perf_counter()
        untraced += loop.until(start)
        tracer.install()
        try:
            traced += loop.until(start, before=tracer.begin_op, after=check_counts)
        finally:
            tracer.uninstall()
        pair = time.perf_counter() - start
    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    per_op = [tracer.op_metrics(op) for op in range(tracer.op + 1)]
    names = sorted(set().union(*per_op))
    metrics = {m: statistics.median_low([op.get(m, 0) for op in per_op])
               for m in names}
    root = metrics.pop("trace.root_s")
    traced_p50 = statistics.median(t for t, _ in traced) if traced else 0.0
    untraced_p50 = statistics.median(t for t, _ in untraced) if untraced else 0.0
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    accounted = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    notes = {"trace.op_p50_s": f"median of {len(traced)} traced operations",
             "trace.overhead_s": f"minus the median of {len(untraced)} untraced "
                                 f"operations run in turn with them",
             "layer self times": f"{accounted:.4f} s of {root:.4f} s in "
                                 f"cli.main spans, {traced_p50:.4f} s per "
                                 f"operation",
             "spans": f"{spans} written",
             "fail_rate": f"{loop.failed}/{loop.attempted}"}
    return loop, metrics, {m: unit_of(m) for m in metrics}, notes, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        workload.setup(cli, args.seed, work)
        if args.trace:
            loop, metrics, units, notes, shown = per_layer(args, workload, cli,
                                                           work)
        else:
            loop, metrics, units, notes, shown = end_to_end(
                args, workload, cli, work, Path(tmp))

    for name, value in {**metrics, **shown}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} seed={args.seed} {name} = {value:.6g} "
              f"{units[name]}{note}")
    for name in ("fail_rate", "layer self times", "spans"):
        if name in notes:
            print(f"{args.workload} seed={args.seed} {name}: {notes[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
