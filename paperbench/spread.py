"""Spread report over a set of benchmark result files.

    python3 paperbench/spread.py .paperbench/results/*.json

For each workload (and trace mode) it prints every metric's median,
quartiles, quartile spread as a share of the median, and min/max over the
given runs.  Each host-normalised time is followed by its raw
counterpart (``host.raw_*``), so a reader can see how much of the raw
run-to-run noise the normalisation removed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

#: Raw diagnostic printed right after the normalised metric it shadows.
RAW_OF = {"pass_s": "host.raw_pass_s", "setup_s": "host.raw_setup_s"}


def load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        values = {k: v["value"] for k, v in record["summary"]["metrics"].items()}
        for key, value in record.get("host_values", {}).items():
            values.setdefault(key, value)
        values["correct"] = record["summary"]["correct"]
        groups.setdefault((record["workload"], record["trace"]), []).append(values)
    return groups


def row(name: str, values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    share = (q3 - q1) / med if med else 0.0
    return (f"  {name:28s} {len(values):3d} {med:12.5g} {q1:12.5g} {q3:12.5g}"
            f" {100 * share:7.2f}% {min(values):12.5g} {max(values):12.5g}")


def report(groups: dict[tuple[str, int], list[dict]]) -> str:
    lines = []
    for (workload, trace), runs in sorted(groups.items()):
        ok = sum(1 for r in runs if r["correct"])
        lines.append(f"{workload} (trace {trace}): {len(runs)} runs, "
                     f"{ok} correct")
        lines.append(f"  {'metric':28s} {'n':>3s} {'median':>12s} {'q1':>12s} "
                     f"{'q3':>12s} {'iqr/med':>8s} {'min':>12s} {'max':>12s}")
        names = [k for k in runs[0] if k != "correct"]
        order = []
        for name in names:
            if name in RAW_OF.values():
                continue
            order.append(name)
            if name in RAW_OF:
                order.append(RAW_OF[name])
        order += [n for n in names if n not in order]
        for name in order:
            values = [r[name] for r in runs if name in r]
            if values:
                lines.append(row(name, values))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="result JSON files")
    args = parser.parse_args(argv)
    print(report(load(args.results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
