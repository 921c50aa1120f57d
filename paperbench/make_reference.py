"""Regenerate ``reference.json``: the stored output digests per seed.

    python3 paperbench/make_reference.py --seeds 64

For every seed it runs each op of ``fig08-serial`` and ``restore-epochs``
once, serially, and records the digests the benchmark checks against.
An op that raises is recorded with its error; the benchmark counts it as
a failed op on that seed.
``fig08-pool2`` is checked against the ``fig08-serial`` cells.  Before
writing, the cell totals of seeds 0-4 are checked against the committed
paper-scale Figure 8 (``benchmarks/results/paper/fig08.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import SCALES, Fig08Serial, RestoreEpochs  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
FIG08 = os.path.join(ROOT, "benchmarks", "results", "paper", "fig08.json")


def seed_reference(setup, seed: int) -> dict:
    entry = {}
    for cls in (Fig08Serial, RestoreEpochs):
        workload = cls(setup, seed)
        workload.prepare()
        digests: dict = {}
        for label, run, check in workload.ops():
            try:
                digests.update(check(run()))
            except Exception as exc:  # recorded: the benchmark fails this op
                digests[label] = {"error": f"{type(exc).__name__}: {exc}"}
        entry[cls.reference_kind] = digests
        workload.close()
    return entry


def fig08_mismatches(reference: dict) -> list[str]:
    """Cells whose seed 0-4 mean total differs from the committed Figure 8."""
    with open(FIG08) as fh:
        figure = json.load(fh)
    out = []
    seeds = [reference["seeds"][str(s)]["cells"] for s in range(5)]
    for series, xy in figure["series"].items():
        for k, y in zip(xy["x"], xy["y"]):
            label = f"{series}/k{int(k)}"
            mean = sum(cells[label]["total_alive"] for cells in seeds) / 5.0
            if mean != y:
                out.append(f"{label}: reference mean {mean} != figure {y}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64,
                        help="seeds 0..N-1 to store (default: the 64 shipped)")
    args = parser.parse_args(argv)
    setup = SCALES["paper"]()
    reference = {"scale": "paper", "seeds": {}}
    for seed in range(args.seeds):
        reference["seeds"][str(seed)] = seed_reference(setup, seed)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    if args.seeds >= 5:
        bad = fig08_mismatches(reference)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
