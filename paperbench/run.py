"""Paper-scale end-to-end benchmark of the DECOR reproduction.

    python3 paperbench/run.py --workload fig08-serial --seed 0 --seconds 60 --trace 0

Runs one workload (see ``workloads.py``) from outside the program: an
untimed warm-up pass, then timed passes of the workload's ops in a fixed
round-robin order until ``--seconds`` are used, with set-up samples
(fresh child processes) spread between the passes.  Every time is
host-normalised: an op's wall time is divided by the mean of the op
probes run right before and right after it (consecutive ops share one),
a set-up sample by the mean of the reference child run right before and
after it, and both are
multiplied back by the nominal constants in ``nominal.json``, so results
read as seconds on a host where the probe takes its nominal time.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``pass_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced passes with passes
run under :class:`tracer.LayerTracer` and prints the per-layer table.
The last stdout line is the JSON summary; the full record, with every
raw and normalised sample, is written under ``.paperbench/results/``.
Exits 2 without a result if any ``REPRO_*`` variable is set (each selects
a different program) or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".paperbench", "results")

#: Set-up samples per run: one after the warm-up pass, the rest spread
#: between the timed passes.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def refuse(message: str) -> None:
    print(f"paperbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper", choices=("paper", "smoke"),
                        help="smoke is for the self-test only")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def check_environment() -> float:
    """Refuse a selected program; import ``repro``; returns the import time."""
    selected = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if selected:
        refuse(f"refusing to run with {', '.join(selected)} set: each REPRO_* "
               "variable selects a different program")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        refuse(f"no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0
    from repro.checks import CHECKS
    from repro.obs import FREC, LEDGER, OBS

    for name, switch in (("OBS", OBS), ("FREC", FREC), ("LEDGER", LEDGER),
                         ("CHECKS", CHECKS)):
        if switch.enabled:
            refuse(f"{name} is enabled; the benchmark measures it disabled")
    return import_s


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def host_record() -> dict:
    import numpy
    import scipy

    from workloads import src_digest

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(SRC),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class Runner:
    def __init__(self, args, nominal: dict) -> None:
        from probe import OpProbe
        from workloads import SCALES, WORKLOADS

        if args.workload not in WORKLOADS:
            refuse(f"unknown workload {args.workload!r}; "
                   f"known: {sorted(WORKLOADS)}")
        self.args = args
        self.nominal_probe_s = float(nominal["probe_s"])
        self.nominal_reference_s = float(nominal["reference_child_s"])
        self.cell_nodes = nominal["cell_nodes"] if args.scale == "paper" else {}
        self.probe = OpProbe()
        self.probe.seconds()
        self.setup = SCALES[args.scale]()
        self.workload = WORKLOADS[args.workload](self.setup, args.seed)
        self.samples: list[dict] = []
        self.setup_samples: list[dict] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.first: dict[str, dict] = {}
        self.expected = self._expected_digests()

    # -- correctness ----------------------------------------------------
    def _expected_digests(self) -> dict | None:
        """Stored digests for this seed, or ``None`` when none are shipped.

        ``fig08-pool2`` is held to the serial cells of the same seed; for a
        seed without stored digests they are computed here, serially.
        """
        from workloads import Fig08Serial

        kind = self.workload.reference_kind
        path = os.path.join(HERE, "reference.json")
        with open(path) as fh:
            reference = json.load(fh)
        entry = reference["seeds"].get(str(self.args.seed))
        if reference["scale"] == self.args.scale and entry is not None:
            return entry[kind]
        if self.args.workload != "fig08-pool2":
            return None
        serial = Fig08Serial(self.setup, self.args.seed)
        serial.prepare()
        digests: dict = {}
        for _, run, check in serial.ops():
            digests.update(check(run()))
        return digests

    def _check(self, label: str, digests: dict) -> bool:
        ok = True
        for key, value in digests.items():
            want = self.expected.get(key) if self.expected is not None else None
            if want is not None and value != want:
                self.mismatches.append(f"{label}: {key} {value} != stored {want}")
                ok = False
        first = self.first.setdefault(label, digests)
        if digests != first:
            self.mismatches.append(f"{label}: output differs from first repeat")
            ok = False
        return ok

    def _size_factor(self, digests: dict) -> float:
        """Nominal over actual node count of the op's placement cells.

        The random baseline's node count is a coupon-collector draw whose
        spread across fields (a quartile spread of about a fifth) would
        otherwise swamp the time spread; scaling each cell to its nominal
        size makes seeds comparable.  Sweeps are not scaled.
        """
        nominal = actual = 0
        for key, value in digests.items():
            if key in self.cell_nodes:
                nominal += self.cell_nodes[key]
                actual += value["total_alive"]
        return nominal / actual if actual else 1.0

    # -- one op -----------------------------------------------------------
    def _probe(self) -> float:
        seconds = self.probe.seconds()
        self.probes.append(seconds)
        return seconds

    def timed_op(self, pass_index: int, op, p0: float, tracer=None) -> dict:
        """Run one op between probe ``p0`` (taken right before) and a new one.

        The after-probe follows a ``gc.collect()``, so it also serves as
        the next op's before-probe.
        """
        label, run, check = op
        if tracer is not None:
            tracer.reset()
            counts_before = self._field_counts(tracer)
        error = None
        t0 = time.perf_counter()
        try:
            output = run()
        except Exception as exc:  # an op that raises is a failed op
            output, error = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        gc.collect()
        p1 = self._probe()
        self.attempted += 1
        size_factor = 1.0
        if error is None:
            try:
                digests = check(output)
                ok = self._check(label, digests)
                size_factor = self._size_factor(digests)
            except Exception as exc:
                ok, error = False, f"{type(exc).__name__}: {exc}"
        else:
            ok = False
        if error is not None:
            self.mismatches.append(f"{label}: {error}")
        if not ok:
            self.failed += 1
        probe_factor = self.nominal_probe_s / ((p0 + p1) / 2.0)
        factor = probe_factor * size_factor
        sample = {
            "op": label, "pass": pass_index, "traced": tracer is not None,
            "raw_s": raw, "probe_s": [p0, p1], "probe_factor": probe_factor,
            "size_factor": size_factor, "factor": factor,
            "norm_s": raw * factor, "ok": ok,
        }
        if tracer is not None:
            sample["layers"] = self._layer_sample(tracer, counts_before)
        return sample

    def _field_counts(self, tracer) -> dict:
        from tracer import field_counts

        return field_counts(self._watched_models() + tracer.field_models)

    def _watched_models(self) -> list:
        model = getattr(self.workload, "model", None)
        cache = getattr(self.workload, "cache", None)
        models = [model] if model is not None else []
        if cache is not None:
            models.append(cache.field(self.args.seed))
        return models

    def _layer_sample(self, tracer, counts_before: dict) -> dict:
        after = self._field_counts(tracer)
        builds = hits = 0
        for key, (b, h) in after.items():
            b0, h0 = counts_before.get(key, (0, 0))
            builds += b - b0
            hits += h - h0
        return {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "field_builds": builds,
            "field_hits": hits,
            "argmax_calls": sum(
                e.selection_stats.argmax_calls for e in tracer.engines),
            "entries_scanned": sum(
                e.selection_stats.entries_scanned for e in tracer.engines),
            "dirty_points": tracer.dirty_points,
            "dirty_field_points": tracer.dirty_field_points,
        }

    def run_pass(self, pass_index: int, ops, tracer=None) -> float:
        t0 = time.perf_counter()
        gc.collect()
        probe = self._probe()
        with tracer.installed() if tracer is not None else nullcontext():
            for op in ops:
                sample = self.timed_op(pass_index, op, probe, tracer)
                self.samples.append(sample)
                probe = sample["probe_s"][1]
        return time.perf_counter() - t0

    # -- set-up samples -----------------------------------------------------
    def _child(self, argv) -> tuple[float, str]:
        # A child of its own session, so that a timeout also kills the
        # pool workers and resource tracker a set-up child may have started.
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1]} exited {proc.returncode}: "
                               f"{err.strip()[-500:]}")
        return seconds, out

    def setup_sample(self) -> float:
        from probe import REFERENCE_CHILD

        t0 = time.perf_counter()
        r0, _ = self._child(list(REFERENCE_CHILD))
        raw, out = self._child([
            sys.executable, os.path.join(HERE, "setup_child.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--scale", self.args.scale,
        ])
        r1, _ = self._child(list(REFERENCE_CHILD))
        factor = self.nominal_reference_s / ((r0 + r1) / 2.0)
        import_raw = json.loads(out.strip().splitlines()[-1])["import_s"]
        self.setup_samples.append({
            "raw_s": raw, "reference_s": [r0, r1], "norm_s": raw * factor,
            "import_raw_s": import_raw, "import_norm_s": import_raw * factor,
        })
        return time.perf_counter() - t0

    # -- the run ------------------------------------------------------------
    def run(self) -> None:
        from tracer import LayerTracer
        from workloads import peak_rss_parts_mb

        args = self.args
        t_prep = time.perf_counter()
        self.workload.prepare()
        self.prepare_raw_s = time.perf_counter() - t_prep
        ops = self.workload.ops()
        deadline = time.perf_counter() + args.seconds
        pass_cost = self.run_pass(-1, ops)  # warm-up: untimed, still checked
        setup_cost = self.setup_sample()
        tracer = LayerTracer() if args.trace else None
        min_passes = 2 if tracer is not None else 1
        index = 0
        while True:
            # re-plan after every pass: as many passes as the time left
            # holds, with the remaining set-up samples spread between them
            pending = SETUP_SAMPLES - len(self.setup_samples)
            left = deadline - time.perf_counter() - pending * setup_cost
            passes_left = int(left // pass_cost) if left > 0 else 0
            if index >= min_passes and passes_left < 1:
                break
            planned = index + max(passes_left, 1)
            traced = tracer is not None and index % 2 == 1
            pass_cost = self.run_pass(index, ops, tracer if traced else None)
            index += 1
            taken = len(self.setup_samples)
            if pending and index >= planned * taken / SETUP_SAMPLES:
                setup_cost = self.setup_sample()
        while len(self.setup_samples) < SETUP_SAMPLES and (
                time.perf_counter() + setup_cost < deadline):
            setup_cost = self.setup_sample()
        self.peak_rss_parts_mb = peak_rss_parts_mb(self.workload.worker_pids())
        self.peak_rss_mb = sum(self.peak_rss_parts_mb.values())
        self.shm_bytes = self.workload.shm_bytes()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def op_medians(samples: list[dict], key: str) -> dict[str, float]:
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(s[key])
    return {op: median(v) for op, v in by_op.items()}


def representative(samples: list[dict]) -> list[dict]:
    """Per op, the traced sample at the (lower) median normalised time."""
    by_op: dict[str, list[dict]] = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(s)
    out = []
    for group in by_op.values():
        group = sorted(group, key=lambda s: s["norm_s"])
        out.append(group[(len(group) - 1) // 2])
    return out


#: Self-time layers, in reporting order, with the metric each feeds.
SELF_TIME_METRICS = (
    ("field.build", "field.build_s"),
    ("field.query", "field.query_s"),
    ("benefit.init", "benefit.init_s"),
    ("benefit.update", "benefit.update_s"),
    ("benefit.remove_rows", "benefit.remove_rows_s"),
    ("benefit.select", "benefit.select_s"),
    ("method.centralized", "method.centralized_s"),
    ("method.grid", "method.grid_s"),
    ("method.voronoi", "method.voronoi_s"),
    ("method.random", "method.random_s"),
    ("finalize", "finalize.self_s"),
    ("coverage.recount", "coverage.recount_s"),
    ("restore", "restore.epoch_s"),
    ("pool.prefill", "pool.wait_s"),
    ("pool.publish", "pool.publish_s"),
    ("pool.merge", "pool.merge_s"),
)

CALL_METRICS = (
    ("field.build", "field.build_calls"),
    ("field.query", "field.query_calls"),
    ("geometry.validate", "geometry.validate_calls"),
    ("benefit.update", "benefit.update_calls"),
    ("benefit.remove_rows", "benefit.remove_rows_calls"),
    ("benefit.select", "benefit.select_calls"),
    ("coverage.recount", "coverage.recount_calls"),
)


def layer_metrics(runner: Runner, untraced: list[dict], traced: list[dict]) -> dict:
    reps = representative(traced)
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    totals = dict.fromkeys(
        ("field_builds", "field_hits", "argmax_calls", "entries_scanned",
         "dirty_points", "dirty_field_points"), 0)
    for rep in reps:
        layers = rep["layers"]
        for name, value in layers["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value * rep["factor"]
        for name, value in layers["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for key in totals:
            totals[key] += layers[key]
    known = {layer for layer, _ in SELF_TIME_METRICS}
    unknown = sorted(set(self_s) - known)
    if unknown:
        raise RuntimeError(f"traced layers without a metric: {unknown}")
    traced_pass = sum(rep["norm_s"] for rep in reps)
    untraced_pass = sum(op_medians(untraced, "norm_s").values())
    m: dict[str, tuple[float, str]] = {}
    setup = runner.setup_samples
    m["startup.import_s"] = (median([s["import_norm_s"] for s in setup]), "s")
    for layer, metric in SELF_TIME_METRICS:
        m[metric] = (self_s.get(layer, 0.0), "s")
    for layer, metric in CALL_METRICS:
        m[metric] = (calls.get(layer, 0), "count")
    m["field.hit_ratio"] = (
        totals["field_hits"] / max(1, totals["field_hits"] + totals["field_builds"]),
        "ratio")
    m["benefit.scanned_per_select"] = (
        totals["entries_scanned"] / max(1, totals["argmax_calls"]), "count")
    m["restore.dirty_fraction"] = (
        totals["dirty_points"] / max(1, totals["dirty_field_points"]), "ratio")
    m["pool.shm_bytes"] = (runner.shm_bytes, "B")
    m["other_s"] = (traced_pass - sum(self_s.values()), "s")
    m["trace.pass_s"] = (traced_pass, "s")
    m["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    m.update(host_metrics(runner, untraced))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def host_metrics(runner: Runner, untraced: list[dict]) -> dict:
    return {
        "host.probe_ms": (1000.0 * median(runner.probes), "ms"),
        "host.raw_pass_s": (sum(op_medians(untraced, "raw_s").values()), "s"),
        "host.raw_setup_s": (
            median([s["raw_s"] for s in runner.setup_samples]), "s"),
    }


def end_to_end_metrics(runner: Runner, untraced: list[dict]) -> dict:
    m = {
        "setup_s": (median([s["norm_s"] for s in runner.setup_samples]), "s"),
        "pass_s": (sum(op_medians(untraced, "norm_s").values()), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def diagnostics(runner: Runner, untraced: list[dict]) -> dict:
    """Values kept out of the gated set (see README.md)."""
    per_op = sorted(op_medians(untraced, "norm_s").values())
    if len(per_op) >= 2:
        p50, p90 = statistics.quantiles(per_op, n=10, method="inclusive")[4::4]
    else:
        p50 = p90 = per_op[0] if per_op else 0.0
    return {
        "op_p50_ms": 1000.0 * p50,
        "op_p90_ms": 1000.0 * p90,
        "prepare_raw_s": runner.prepare_raw_s,
        "peak_rss_parts_mb": runner.peak_rss_parts_mb,
        "timed_passes": len({s["pass"] for s in untraced}),
        "setup_samples": len(runner.setup_samples),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = check_environment()
    with open(os.path.join(HERE, "nominal.json")) as fh:
        nominal = json.load(fh)
    started = time.time()
    runner = Runner(args, nominal)
    try:
        runner.run()
    finally:
        runner.workload.close()
    timed = [s for s in runner.samples if s["pass"] >= 0]
    untraced = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    if args.trace:
        metrics = layer_metrics(runner, untraced, traced)
    else:
        metrics = end_to_end_metrics(runner, untraced)
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "started_unix": started,
        "host": host_record(), "nominal": nominal,
        "reference_checked": runner.expected is not None,
        "in_process_import_raw_s": import_s,
        "summary": summary,
        "host_values": {k: v for k, (v, _) in host_metrics(runner, untraced).items()},
        "diagnostics": diagnostics(runner, untraced),
        "mismatches": runner.mismatches,
        "setup_samples": runner.setup_samples,
        "op_samples": runner.samples,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
