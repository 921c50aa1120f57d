"""The fixed host-speed probes every timed benchmark value is divided by.

Nothing here imports ``repro``: the probes measure the host, not the
program, so a change to the program cannot move them.  Changing this file
(or ``nominal.json``) changes the unit every result is expressed in, so a
change that claims a speed-up must leave both untouched.

* :func:`run_op_probe` — about 15 ms of the work mix greedy placement
  does: an interpreter loop of ``argmax`` over a benefit vector, a CSR
  row gather, a scatter into coverage counts, a gather-and-compare on the
  touched rows, and a cKDTree ball query, over a fixed 2000-point set
  with radius 4 (the paper's field density and sensing radius).
* :data:`REFERENCE_CHILD` — the interpreter start plus the heavy imports
  ``import repro`` pays; set-up children are divided by it.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from scipy.spatial import cKDTree

#: argv of the set-up reference child (run with the benchmark's interpreter).
REFERENCE_CHILD = (
    sys.executable,
    "-c",
    "import numpy, scipy.sparse, scipy.spatial, networkx",
)

_N_POINTS = 2000
_SIDE = 100.0
_RADIUS = 4.0
_K = 3
_STEPS = 650


class OpProbe:
    """The probe's fixed inputs, built once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20070326)
        self.points = rng.random((_N_POINTS, 2)) * _SIDE
        self.tree = cKDTree(self.points)
        rows = self.tree.query_ball_point(self.points, _RADIUS)
        self.indptr = np.zeros(_N_POINTS + 1, dtype=np.intp)
        self.indptr[1:] = np.cumsum([len(r) for r in rows])
        self.indices = np.concatenate(
            [np.asarray(sorted(r), dtype=np.intp) for r in rows]
        )

    def work(self) -> int:
        """One probe pass; returns a checksum so the work cannot be skipped."""
        indptr, indices, points, tree = (
            self.indptr, self.indices, self.points, self.tree
        )
        counts = np.zeros(_N_POINTS, dtype=np.int64)
        benefit = np.diff(indptr).astype(np.int64) * _K
        checksum = 0
        for _ in range(_STEPS):
            i = int(np.argmax(benefit))
            row = indices[indptr[i]:indptr[i + 1]]
            short = row[counts[row] < _K]
            counts[row] += 1
            benefit[short] -= 1
            benefit[i] = -1
            checksum += len(tree.query_ball_point(points[i], _RADIUS))
        return checksum + int(counts.sum())

    def seconds(self) -> float:
        """Wall time of one :meth:`work` pass."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
