"""Numerics-health watchdog: NaN/Inf/underflow guards and anomaly detectors.

A silent numerical pathology — a NaN leaking out of a solve, a residual
that stalls instead of contracting, a Newton loop grinding at its iteration
ceiling, a Jacobian drifting toward singularity — corrupts results long
before anything crashes.  The watchdog turns those conditions into
structured ``numerics.*`` counters, gauges and events through the existing
:class:`~repro.obs.telemetry.Telemetry` registry, so they ride the same
snapshots and ledger records as every other signal.

Every live telemetry carries one watchdog (``tel.numerics``), so the checks
run exactly when telemetry is on and cost nothing beyond the one
``tel.enabled`` check when it is off.  The watchdog holds no results — it
only *emits* into the telemetry it is bound to.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

#: Fraction of the iteration budget at which a solve counts as "pressured".
ITERATION_PRESSURE_FRACTION = 0.9

#: Growth factor between consecutive residuals that flags a blowup step.
RESIDUAL_BLOWUP_FACTOR = 1e3


class NumericsWatchdog:
    """Emits ``numerics.*`` health signals through one telemetry."""

    __slots__ = ("telemetry",)

    def __init__(self, telemetry: Any) -> None:
        self.telemetry = telemetry

    def check_array(self, stage: str, name: str, values: Any) -> bool:
        """Guard one array against NaN/Inf/subnormal underflow.

        Returns False (and emits a ``numerics.nonfinite`` event plus
        counters) when any element is non-finite; subnormal values emit
        only the ``numerics.underflow`` counter — they are legal but are
        the canary for a collapsing scale.
        """
        array = np.asarray(values)
        if array.dtype.kind not in "fc":
            return True
        tel = self.telemetry
        tel.count("numerics.checks")
        finite = np.isfinite(array)
        if finite.all():
            if array.dtype.kind == "f" and array.size:
                tiny = np.finfo(array.dtype).tiny
                subnormal = int(np.count_nonzero((np.abs(array) < tiny) & (array != 0)))
                if subnormal:
                    tel.count("numerics.underflow", subnormal)
            return True
        nan_count = int(np.count_nonzero(np.isnan(array)))
        inf_count = int(array.size - np.count_nonzero(finite)) - nan_count
        tel.count("numerics.nonfinite")
        tel.event(
            "numerics.nonfinite",
            stage=stage,
            array=name,
            nan=nan_count,
            inf=inf_count,
            size=int(array.size),
        )
        return False

    def check_residuals(
        self, stage: str, residuals: Sequence[float], tolerance: float = 0.0
    ) -> bool:
        """Detect a non-contracting or blowing-up residual trajectory.

        A healthy damped-Newton trajectory ends below where it started, or
        below the solve's residual ``tolerance`` (a converged warm re-solve
        starts and ends at roundoff), and never jumps by more than
        :data:`RESIDUAL_BLOWUP_FACTOR` in one step.  Violations emit a
        ``numerics.residual_anomaly`` event with the offending step.
        """
        trajectory = [float(r) for r in residuals]
        if len(trajectory) < 2:
            return True
        blowup_step = None
        for index in range(1, len(trajectory)):
            previous, current = trajectory[index - 1], trajectory[index]
            if previous > 0.0 and current > previous * RESIDUAL_BLOWUP_FACTOR:
                blowup_step = index
                break
        stalled = trajectory[-1] >= max(trajectory[0], tolerance) and trajectory[0] > 0.0
        if blowup_step is None and not stalled:
            return True
        self.telemetry.count("numerics.residual_anomalies")
        self.telemetry.event(
            "numerics.residual_anomaly",
            stage=stage,
            kind="blowup" if blowup_step is not None else "stall",
            step=blowup_step,
            first=trajectory[0],
            last=trajectory[-1],
            steps=len(trajectory),
        )
        return False

    def check_iterations(self, stage: str, iterations: int, limit: int) -> bool:
        """Flag a solve that consumed most of its iteration budget."""
        if limit <= 0 or iterations < ITERATION_PRESSURE_FRACTION * limit:
            return True
        self.telemetry.count("numerics.iteration_pressure")
        self.telemetry.event(
            "numerics.iteration_pressure",
            stage=stage,
            iterations=int(iterations),
            limit=int(limit),
        )
        return False

    def gauge_condition(self, stage: str, values: Any) -> Optional[float]:
        """Cheap conditioning proxy: max/min magnitude of the given entries.

        Applied to a Jacobian's nonzero data this is the spread of stamp
        magnitudes — not a true condition number, but it moves with one and
        costs one pass.  Recorded as the ``numerics.condition_proxy.<stage>``
        gauge.
        """
        array = np.abs(np.asarray(values, dtype=np.float64)).ravel()
        array = array[array > 0.0]
        if not array.size:
            return None
        proxy = float(array.max() / array.min())
        self.telemetry.gauge(f"numerics.condition_proxy.{stage}", proxy)
        return proxy

