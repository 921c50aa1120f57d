"""Self-test of the benchmark at smoke scale (about a minute).

    python3 paperbench/selftest.py

Checks that every workload prints the contract's output shape with named
units and ``correct`` true in both modes, and leaves no process running;
that traced self times plus ``other_s`` add up to the traced pass; that a
traced pass leaves every wrapped binding as the original object; that a
delay injected into one layer shows in that layer's self time and nowhere
else; that the stored reference reproduces the committed paper-scale
Figure 8; and that the benchmark refuses to run when a ``REPRO_*``
variable is set or the program is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from make_reference import REFERENCE, fig08_mismatches  # noqa: E402
from run import SELF_TIME_METRICS  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from workloads import SCALES, WORKLOADS, Fig08Serial  # noqa: E402

from repro.network.coverage import CoverageState  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_bench(workload: str, trace: int, *, cwd: str = ROOT, env=None,
              runner=None) -> subprocess.CompletedProcess:
    argv = (runner or RUN) + ["--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace),
                              "--scale", "smoke"]
    # Output goes to files, not pipes: reading a pipe to its end would wait
    # for every process that inherited it, and so hide one left running.
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run(argv, stdout=out, stderr=err, text=True,
                              cwd=cwd, timeout=300,
                              env=env if env is not None else clean_env())
        out.seek(0)
        err.seek(0)
        proc.stdout, proc.stderr = out.read(), err.read()
    return proc


def bench_processes() -> set[int]:
    """PIDs of live processes that belong to a benchmark run.

    Pool workers carry the runner's command line, and multiprocessing's
    resource tracker names itself on its own.
    """
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if b"paperbench" in cmdline or b"resource_tracker" in cmdline:
            pids.add(int(entry))
    return pids


def check_output_shape(spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = bench_processes()
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            left = bench_processes() - before
            assert not left, f"{workload} left processes running: {left}"
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(summary) == {"correct", "attempted", "failed", "metrics"}
            assert summary["correct"] is True, (workload, trace, proc.stderr)
            assert summary["failed"] == 0 and summary["attempted"] >= 1
            metrics = summary["metrics"]
            assert set(metrics) == set(expected[trace]), (
                set(metrics) ^ set(expected[trace]))
            for name, entry in metrics.items():
                assert set(entry) == {"value", "unit"}
                assert isinstance(entry["value"], (int, float))
                assert entry["unit"] == expected[trace][name], name
            if trace:
                self_times = sum(
                    metrics[name]["value"] for _, name in SELF_TIME_METRICS)
                total = self_times + metrics["other_s"]["value"]
                wall = metrics["trace.pass_s"]["value"]
                assert abs(total - wall) <= 1e-9 * max(1.0, wall), (total, wall)
            print(f"ok  {workload} trace {trace}: shape, units, correct, "
                  "no process left")


def check_restored() -> None:
    tracer = LayerTracer()
    with tracer.installed():
        patched = tracer.patched()
        for owner, name, original in patched:
            assert vars(owner)[name] is not original
    finalize_sites = [p for p in patched if p[1] == "finalize"]
    assert len(finalize_sites) >= 5, finalize_sites
    for owner, name, original in patched:
        assert vars(owner)[name] is original, (owner, name)
    assert not tracer.patched()
    print(f"ok  {len(patched)} wrapped bindings restored "
          f"({len(finalize_sites)} for finalize)")


def traced_self_times(workload) -> tuple[dict, dict]:
    tracer = LayerTracer()
    with tracer.installed():
        for _, run, check in workload.ops():
            check(run())
    return dict(tracer.self_s), dict(tracer.calls)


def check_injected_delay(delay_s: float = 0.02) -> None:
    workload = Fig08Serial(SCALES["smoke"](), 0)
    workload.prepare()
    traced_self_times(workload)  # warm the field caches
    base, _ = traced_self_times(workload)
    original = vars(CoverageState)["from_deployment"]

    def delayed(cls, *args, **kwargs):
        time.sleep(delay_s)
        return original.__func__(cls, *args, **kwargs)

    CoverageState.from_deployment = classmethod(delayed)
    try:
        slow, calls = traced_self_times(workload)
    finally:
        CoverageState.from_deployment = original
    injected = delay_s * calls["coverage.recount"]
    grew = slow["coverage.recount"] - base["coverage.recount"]
    assert grew >= 0.9 * injected, (grew, injected)
    for layer in set(base) | set(slow):
        if layer == "coverage.recount":
            continue
        moved = abs(slow.get(layer, 0.0) - base.get(layer, 0.0))
        assert moved < 0.2 * injected, (layer, moved, injected)
    print(f"ok  injected {injected:.3f} s into coverage.recount: it grew "
          f"{grew:.3f} s, no other layer moved more than {0.2 * injected:.3f} s")


def check_reference() -> None:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    assert fig08_mismatches(reference) == []
    print(f"ok  stored cells of seeds 0-4 reproduce fig08.json "
          f"({len(reference['seeds'])} seeds stored)")


def check_refusals() -> None:
    env = clean_env()
    env["REPRO_OBS"] = "1"
    proc = run_bench("fig08-serial", 0, env=env)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "paperbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("fig08-serial", 0, cwd=tmp,
                         runner=[sys.executable, "paperbench/run.py"])
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  refuses a REPRO_* variable and a checkout without the program")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_reference()
    check_restored()
    check_injected_delay()
    check_refusals()
    check_output_shape(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
