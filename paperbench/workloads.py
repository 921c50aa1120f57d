"""The benchmark's workloads, built only from ``repro``'s public functions.

A workload is prepared once (:meth:`Workload.prepare`, the untimed set-up
a user pays before the first result) and then offers a fixed, per-seed
list of ops.  An op is ``(label, run, check)``: ``run()`` is the timed
call into the program, and ``check(output)``, run after the clock stops,
turns its output into ``{label: digest}`` for the runner to compare
against the stored reference and against the op's own repeats.

=================  =====================================================
``fig08-serial``   the 30 ``(series, k)`` cells of paper-scale Figure 8,
                   each one ``run_series`` on a FieldModel built in set-up
``restore-epochs`` one 6-epoch ``run_epoch_sweep`` per series from a k=3
                   deployment made in set-up (voronoi-small, grid-small,
                   centralized)
``fig08-pool2``    the same 30 cells on a ``WorkerPool(setup, 2)``, one
                   prefill batch per k (the six series' cells) into a
                   fresh ``DeploymentCache``
=================  =====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
from multiprocessing import resource_tracker
from typing import Any, Callable

import numpy as np

from repro.experiments import (
    SERIES,
    DeploymentCache,
    ExperimentSetup,
    field_model_for_seed,
    run_epoch_sweep,
    run_series,
)
from repro.parallel import WorkerPool

#: Series the restoration sweeps repair, and their coverage requirement.
SWEEP_SERIES = ("voronoi-small", "grid-small", "centralized")
SWEEP_K = 3
SWEEP_EPOCHS = 6
POOL_WORKERS = 2

SCALES: dict[str, Callable[[], ExperimentSetup]] = {
    "paper": ExperimentSetup.paper,
    "smoke": ExperimentSetup.smoke,
}


#: ``(label, run, check)``; see the module docstring.
Op = tuple[str, Callable[[], Any], Callable[[Any], dict]]


class OpFailed(Exception):
    """An op's output broke an invariant that holds for every seed."""


def cell_label(series: str, k: int) -> str:
    return f"{series}/k{k}"


def cell_digest(result, k: int) -> dict:
    """Digest of one placement cell: positions and node count.

    Also checks the one property every fig08 cell must have whatever the
    seed: the final deployment k-covers every field point.
    """
    if not result.coverage.is_fully_covered(k):
        raise OpFailed(f"{result.method} k={k} left field points short of k")
    positions = np.ascontiguousarray(result.deployment.positions, np.float64)
    h = hashlib.sha256(positions.tobytes())
    h.update(str(result.total_alive).encode())
    return {"total_alive": int(result.total_alive), "digest": h.hexdigest()[:32]}


def sweep_digest(sweep) -> dict:
    """Digest of one epoch sweep: its JSON payload without the warm flag."""
    payload = sweep.as_dict()
    payload.pop("warm")
    for record in payload["records"]:
        if not record["complete"]:
            raise OpFailed(f"{sweep.series} epoch {record['epoch']} not repaired")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "total_alive": int(payload["records"][-1]["total_alive"]),
        "digest": hashlib.sha256(text.encode()).hexdigest()[:32],
    }


def fig08_cells(setup: ExperimentSetup) -> list[tuple[str, int]]:
    return [(s.name, k) for s in SERIES for k in setup.k_values]


class Workload:
    """One workload at one seed: set-up state plus its op list."""

    name = ""
    #: Reference section the digests are checked against.
    reference_kind = "cells"

    def __init__(self, setup: ExperimentSetup, seed: int) -> None:
        self.setup = setup
        self.seed = int(seed)

    def prepare(self) -> None:
        """The untimed set-up: field model and whatever the ops start from."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        return []

    def shm_bytes(self) -> int:
        return 0

    def close(self) -> None:
        """Release processes and shared memory (idempotent)."""


class Fig08Serial(Workload):
    name = "fig08-serial"

    def prepare(self) -> None:
        self.model = field_model_for_seed(self.setup, self.seed)
        self.model.adjacency(self.setup.rs)

    def ops(self):
        return [
            (
                cell_label(series, k),
                lambda s=series, k=k: run_series(
                    self.setup, s, k, self.seed, use_initial=False,
                    field=self.model,
                ),
                lambda result, s=series, k=k: {
                    cell_label(s, k): cell_digest(result, k)
                },
            )
            for series, k in fig08_cells(self.setup)
        ]


class RestoreEpochs(Workload):
    name = "restore-epochs"
    reference_kind = "sweeps"

    def prepare(self) -> None:
        self.cache = DeploymentCache(self.setup)
        for series in SWEEP_SERIES:
            self.cache.get(series, SWEEP_K, self.seed)

    def ops(self):
        return [
            (
                s,
                lambda s=s: run_epoch_sweep(
                    self.setup, s, SWEEP_K, self.seed,
                    epochs=SWEEP_EPOCHS, cache=self.cache,
                ),
                lambda sweep, s=s: {s: sweep_digest(sweep)},
            )
            for s in SWEEP_SERIES
        ]


class Fig08Pool2(Workload):
    name = "fig08-pool2"

    def prepare(self) -> None:
        self.pool = WorkerPool(self.setup, POOL_WORKERS)
        self.pool.warm_up()

    def _cells(self, k: int) -> list[tuple[str, int, int]]:
        return [(s.name, k, self.seed) for s in SERIES]

    def _batch(self, k: int) -> DeploymentCache:
        cache = DeploymentCache(self.setup)
        self.pool.prefill(cache, self._cells(k))
        return cache

    def _check(self, cache: DeploymentCache, k: int) -> dict:
        return {
            cell_label(s, k): cell_digest(cache.get(s, k, seed), k)
            for s, k, seed in self._cells(k)
        }

    def ops(self):
        return [
            (
                f"k{k}",
                lambda k=k: self._batch(k),
                lambda cache, k=k: self._check(cache, k),
            )
            for k in self.setup.k_values
        ]

    def shm_bytes(self) -> int:
        return self.pool.store.shared_bytes

    def worker_pids(self) -> list[int]:
        return self.pool.worker_pids()

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()
        # The pool started multiprocessing's resource tracker, a process
        # that would outlive this one by a moment.  With the workers
        # joined, closing its pipe ends it; _stop waits until it has.
        resource_tracker._resource_tracker._stop()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Fig08Serial, RestoreEpochs, Fig08Pool2)
}


def peak_rss_parts_mb(pids: list[int]) -> dict[str, float]:
    """Peak resident set of this process (``self``) and of each given child, in MB."""
    parts = {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        parts[str(pid)] = int(line.split()[1]) / 1024.0
        except FileNotFoundError:
            continue
    return parts


def src_digest(src_dir: str) -> str:
    """sha256 over every ``.py`` file under ``src_dir`` (path and bytes)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]
