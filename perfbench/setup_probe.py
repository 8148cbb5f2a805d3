"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing the package, writing the seeded inputs and running the
workload's preparing commands.  Prints the seconds it took and the speed
probes before and after it (see ``speed``).

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY
"""

import sys
import time
from pathlib import Path

from speed import probe
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> None:
    name, seed, work = argv
    workload = WORKLOADS[name]
    before = probe()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from cyclecover import cli

    workload.setup(cli, int(seed), Path(work))
    seconds = time.perf_counter() - start
    print(seconds, before, probe())


if __name__ == "__main__":
    main(sys.argv[1:])
