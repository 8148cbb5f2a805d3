"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 0-9 [--workloads a,b] [--trace 0|1]
                                   [--out perfbench/baseline.json]

Runs are sequential, one process each, as ``BENCHMARK.json`` specifies.  For
every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  That includes the
figures a run prints but does not bound, such as the wall-second timings.
With ``--out`` the summary and every run's values are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    import numpy
    result = {"machine": {"cpus": len(os.sched_getaffinity(0)),
                          "python": platform.python_version(),
                          "numpy": numpy.__version__},
              "run_seconds": spec["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(proc.stderr, file=sys.stderr)
                return 1
            printed = {}
            for text in proc.stdout.splitlines():
                m = re.match(rf"{re.escape(workload)} seed={seed} (\S+) = (\S+) (\S+)",
                             text)
                if m:
                    printed[m[1]] = {"value": float(m[2]), "unit": m[3]}
            runs.append({"seed": seed, **line,
                         "printed": {k: v for k, v in printed.items()
                                     if k not in line["metrics"]}})
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in printed.items()}, flush=True)
        names = {**runs[0]["metrics"], **runs[0]["printed"]}
        stats = {m: {**summary([{**r["metrics"], **r["printed"]}[m]["value"]
                                for r in runs]),
                     "unit": names[m]["unit"],
                     "bounded": m in runs[0]["metrics"]} for m in names}
        for m, s in stats.items():
            print(f"{workload} {m}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f}")
        result["workloads"][workload] = {"metrics": stats, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
