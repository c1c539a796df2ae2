"""Outside-in per-layer tracer for the benchmark's traced runs.

The tracer never edits the program: it replaces the public callables of each
layer (class methods and module-level bindings) with timing wrappers from
the benchmark's own files.  Every wrapper pushes a frame on one stack, so a
layer's *self time* is its wall time minus the wall time of the wrapped
calls nested inside it, and the self times of all layers plus the
unattributed remainder add up to the traced wall time exactly.

A call is counted once per entry into its layer: a wrapped call nested in a
call of the same layer (``conductance`` evaluating ``current``) adds its
self time but not another call.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

SPARSE_LU = "circuit.solver.sparse_lu"
DENSE_LU = "circuit.solver.dense_lu"


class LayerStat:
    """Accumulated calls, self time and work counts of one layer."""

    __slots__ = ("calls", "self_ns", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.counts: Dict[str, float] = defaultdict(float)


class _TracedFactor:
    """A sparse LU factor whose triangular solves are traced as sparse LU."""

    def __init__(self, factor: Any, solve: Callable) -> None:
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name: str) -> Any:
        return getattr(self._factor, name)


class Tracer:
    """Stack-based self-time accounting over wrapped layer entry points.

    Wrappers run the original callable untouched while :attr:`active` is
    False, so the linear-algebra entry points can be patched before
    ``import repro`` binds them and stay inert through the untraced phase.
    """

    def __init__(self) -> None:
        self.active = False
        self.stats: Dict[str, LayerStat] = defaultdict(LayerStat)
        self._stack: List[list] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_return: Optional[Callable[[LayerStat, Any, tuple], None]] = None,
    ) -> Callable:
        """``fn`` with its calls and self time accounted to ``layer``."""
        stat = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [layer, 0]  # [layer, wall time of wrapped children]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.self_ns += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if parent is None or parent[0] != layer:
                    stat.calls += 1
            if on_return is not None:
                on_return(stat, result, args)
            return result

        return traced

    def patch(self, owner: Any, name: str, layer: str, on_return=None) -> None:
        """Replace ``owner.name`` (a class method or a module binding)."""
        setattr(owner, name, self.wrap(layer, getattr(owner, name), on_return))

    def patch_linear_algebra(self) -> None:
        """Wrap the sparse and dense LU entry points.

        Must run before ``import repro``: ``circuit.solver`` binds
        ``spsolve`` by name at import time.  A factor returned by ``splu``
        or ``factorized`` has its solves traced too, so factor reuse moves
        time between calls of one layer instead of out of it.
        """
        import numpy.linalg
        import scipy.sparse.linalg as sparse_linalg

        self.patch(sparse_linalg, "spsolve", SPARSE_LU)
        for name in ("splu", "factorized"):
            setattr(sparse_linalg, name, self._factor_wrapper(getattr(sparse_linalg, name)))
        self.patch(numpy.linalg, "solve", DENSE_LU)

    def _factor_wrapper(self, factor_fn: Callable) -> Callable:
        traced_factor = self.wrap(SPARSE_LU, factor_fn)

        @functools.wraps(factor_fn)
        def factor(*args, **kwargs):
            result = traced_factor(*args, **kwargs)
            if not self.active:
                return result
            if callable(result):  # factorized() returns the solve function
                return self.wrap(SPARSE_LU, result)
            return _TracedFactor(result, self.wrap(SPARSE_LU, result.solve))

        return factor

    def self_s(self, layer: str) -> float:
        return self.stats[layer].self_ns / 1e9 if layer in self.stats else 0.0

    def calls(self, layer: str) -> int:
        return self.stats[layer].calls if layer in self.stats else 0

    def count(self, layer: str, name: str) -> float:
        return self.stats[layer].counts.get(name, 0.0) if layer in self.stats else 0.0

    def total_self_s(self) -> float:
        return sum(stat.self_ns for stat in self.stats.values()) / 1e9


# ----------------------------------------------------------------------
# the layer table: which callables belong to which layer
# ----------------------------------------------------------------------


def _count_lanes(stat: LayerStat, result: Any, args: tuple) -> None:
    stat.counts["lanes"] += args[0].n


def _count_arrays(stat: LayerStat, result: Any, args: tuple) -> None:
    stat.counts["arrays"] += getattr(result, "n_arrays", 0)


def _count_points(stat: LayerStat, result: Any, args: tuple) -> None:
    stat.counts["points"] += len(result.records)
    stat.counts["cache_hits"] += result.cached_count


def _count_bytes(stat: LayerStat, result: Any, args: tuple) -> None:
    stat.counts["bytes_written"] += os.path.getsize(result)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's public callables (``repro`` must be importable).

    Functions imported by name are patched where the caller bound them:
    ``montecarlo.engine`` imports ``pulses_to_switch_batch`` and
    ``solve_operating_point_batch``, and both ``attack.neurohammer`` and
    ``montecarlo.engine`` import the scalar ``solve_operating_point``.
    The traced run cross-checks the call counts against the program's own
    telemetry counters, which catches a binding this table misses.
    """
    from repro.attack import neurohammer
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import CampaignRunner
    from repro.circuit.crossbar import CrossbarArray
    from repro.circuit.crosstalk_hub import CrosstalkHub
    from repro.circuit.solver import CrossbarSolver
    from repro.montecarlo import engine
    from repro.montecarlo.sampling import PopulationSampler
    from repro.montecarlo.vectorized import JartArrayModel
    from repro.store.lease import LeaseManager

    tracer.patch(CrossbarSolver, "solve", "circuit.solver")
    tracer.patch(CrossbarArray, "thermal_snapshot", "circuit.crossbar")
    tracer.patch(CrossbarArray, "__init__", "circuit.build")
    for name in ("additional_temperatures", "additional_temperature_for"):
        tracer.patch(CrosstalkHub, name, "circuit.crosstalk_hub")
    for name in ("current", "conductance", "state_derivative"):
        tracer.patch(JartArrayModel, name, "devices.kernel")
    tracer.patch(neurohammer, "solve_operating_point", "devices.scalar_op")
    tracer.patch(engine, "solve_operating_point", "devices.scalar_op")
    tracer.patch(engine, "pulses_to_switch_batch", "montecarlo.kinetics", _count_lanes)
    tracer.patch(engine, "solve_operating_point_batch", "montecarlo.aggressor_op")
    for name in ("sample", "sample_cells"):
        tracer.patch(PopulationSampler, name, "montecarlo.sampling")
    tracer.patch(engine.MonteCarloEngine, "nominal_conditions", "montecarlo.nominal")
    for name in ("run", "run_batch"):
        tracer.patch(engine.MonteCarloEngine, name, "montecarlo.engine", _count_arrays)
    tracer.patch(neurohammer.NeuroHammer, "run", "attack.neurohammer")
    tracer.patch(CampaignRunner, "run", "campaign.runner", _count_points)
    tracer.patch(ResultCache, "get", "store.get")
    tracer.patch(ResultCache, "put", "store.put", _count_bytes)
    for name in ("acquire", "steal", "release", "release_all", "refresh_due"):
        tracer.patch(LeaseManager, name, "store.lease")
