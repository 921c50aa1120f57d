"""One set-up sample: a fresh interpreter that imports ``repro`` and prepares.

    python3 paperbench/setup_child.py --workload fig08-serial --seed 0

The runner times this whole process, from spawn to exit, as one raw
set-up sample.  The last stdout line reports how long ``import repro``
took inside it, for the ``startup.import_s`` layer metric.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import repro  # noqa: E402,F401

_IMPORT_S = time.perf_counter() - _T0

from workloads import SCALES, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="paper", choices=sorted(SCALES))
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](SCALES[args.scale](), args.seed)
    try:
        workload.prepare()
    finally:
        workload.close()
    print(json.dumps({"import_s": _IMPORT_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
