"""Time one fresh set-up: import ``repro`` and build a workload's inputs.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``; prints the
seconds taken.  ``harness.measure_setup`` runs it in fresh interpreters.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.process_time()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    print(time.process_time() - start)


if __name__ == "__main__":
    main()
