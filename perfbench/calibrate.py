"""Host-speed probe: a fixed kernel that shares no code with the program.

The benchmark host is shared: for seconds to minutes at a time it runs the
same instructions up to ~1.8x slower, and a run cannot tell a slow program
from a slow host by its own timings.  The probe is timed between the
workload's ops, and the end-to-end timings are scaled to a host on which
the probe takes :data:`REFERENCE_S`.  The probe spends about equal time on
what the workloads spend theirs on: a sparse LU solve, interpreted Python
loops, JSON and hashing of small records, and NumPy calls on
thousand-element arrays.  Its matrix is small, so the probe adds little to
the process's peak RSS.

Imported before the tracer patches ``scipy``, so the probe's own solve is
never traced.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

#: Probe time [s] of the nominal host the scaled metrics refer to.
REFERENCE_S = 0.021

_SIDE = 40
_LINE = sparse.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(_SIDE, _SIDE))
_MATRIX = (sparse.kron(sparse.eye(_SIDE), _LINE) + sparse.kron(_LINE, sparse.eye(_SIDE))).tocsc()
_RHS = np.ones(_SIDE * _SIDE)
_LANES = np.linspace(0.1, 1.0, 1024)
_RECORD = {"values": list(range(50)), "label": "x" * 100,
           "rows": [{"index": i, "value": i * 0.5} for i in range(30)]}


def _kernel() -> None:
    spsolve(_MATRIX, _RHS)
    bins = {}
    for i in range(30_000):
        bins[i & 255] = bins.get(i & 255, 0.0) + i * 0.5
    for _ in range(60):
        text = json.dumps(_RECORD, sort_keys=True)
        hashlib.sha256(text.encode()).hexdigest()
        json.loads(text)
    x = _LANES.copy()
    for _ in range(250):
        y = np.sinh(x)
        x = np.where(np.exp(-x / 3.0) > 0.5, x * 1.0001, x)
        np.flatnonzero(y > 0.5)


class HostSpeed:
    """The probe times of one run."""

    def __init__(self) -> None:
        self.samples = []

    def sample(self) -> float:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def slowdown(self) -> float:
        """Mean probe time over the nominal one: >1 on a slower host."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
