"""Flip-probability and bit-error-rate maps over 2-D parameter planes.

A map evaluates one Monte-Carlo population per grid point of a 2-D plane
(e.g. pulse length × ambient temperature) and reports the flip probability —
the raw bit-error rate of the disturbance attack — at every point.  The grid
is expressed as a ``kind="montecarlo"`` :class:`~repro.campaign.spec.CampaignSpec`
and executed through the campaign runner, so maps inherit the worker pool,
the content-addressed result cache and the
:class:`~repro.experiments.base.ExperimentResult` export path for free.

Every grid point reuses the same population seed (common random numbers), so
the map surface varies only with the swept parameters, not with sampling
noise between points.

Two evaluation strategies are available.  :func:`flip_probability_map` spends
a fixed ``n_samples`` on every point.  :func:`refine_flip_probability_map`
instead allocates a global sample budget adaptively: every point gets one
seed batch, then further batches go to the points whose confidence interval
is still wider than the target — prioritising those whose interval straddles
a decision threshold (the flip boundary), which is where the map's
information actually lives.  Deep inside the P≈0 / P≈1 plateaus a single
batch already pins the interval, so the refined map reaches the same target
CI half-width with a fraction of the fixed-n circuit solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..config import AttackConfig, JsonConfig, SimulationConfig
from ..errors import MonteCarloError
from ..obs import get_telemetry
from ..utils.tables import matrix_heatmap
from .adaptive import AdaptiveConfig
from .estimators import StreamingMeanEstimator, fixed_sample_size
from .engine import MonteCarloConfig, MonteCarloEngine


@dataclass
class MapAxis(JsonConfig):
    """One axis of a 2-D map: a swept dotted path plus its grid values."""

    path: str
    values: List[float]
    #: Display label; defaults to the path leaf.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.values:
            raise MonteCarloError(f"map axis {self.path!r} needs at least one value")
        self.values = [float(value) for value in self.values]
        if self.label is None:
            self.label = self.path.rsplit(".", 1)[-1]


@dataclass
class FlipProbabilityMap:
    """The evaluated map: per-point probabilities plus the result table."""

    x_axis: MapAxis
    y_axis: MapAxis
    #: Flip probability, shape (len(x_axis.values), len(y_axis.values)).
    probabilities: np.ndarray
    #: Geometric-mean pulses to flip per point (NaN where nothing flipped).
    geomean_pulses: np.ndarray
    #: The flat per-point table (one row per grid point).
    result: Any  # ExperimentResult
    n_samples: int = 0

    def bit_error_rate(self) -> float:
        """Mean flip probability over the whole plane."""
        return float(self.probabilities.mean())

    def to_heatmap(self, precision: int = 3) -> str:
        """ASCII heatmap of the flip probabilities (x rows, y columns)."""
        header = (
            f"flip probability; rows: {self.x_axis.label} "
            f"({self.x_axis.values[0]:g}..{self.x_axis.values[-1]:g}), "
            f"columns: {self.y_axis.label} "
            f"({self.y_axis.values[0]:g}..{self.y_axis.values[-1]:g})"
        )
        return header + "\n" + matrix_heatmap(self.probabilities, precision=precision)


def montecarlo_map_spec(
    x_axis: MapAxis,
    y_axis: MapAxis,
    name: str = "mc-map",
    simulation: Optional[Dict[str, Any]] = None,
    attack: Optional[Dict[str, Any]] = None,
    montecarlo: Optional[Dict[str, Any]] = None,
):
    """The map as a declarative ``kind="montecarlo"`` campaign spec."""
    from ..campaign.spec import CampaignSpec

    if x_axis.path == y_axis.path:
        raise MonteCarloError("map axes must sweep two different paths")
    return CampaignSpec(
        name=name,
        experiment="montecarlo",
        kind="montecarlo",
        mode="grid",
        simulation=dict(simulation or {}),
        attack=dict(attack or {}),
        montecarlo=dict(montecarlo or {}),
        axes=[
            {"path": x_axis.path, "values": list(x_axis.values)},
            {"path": y_axis.path, "values": list(y_axis.values)},
        ],
    )


def flip_probability_map(
    x_axis: MapAxis,
    y_axis: MapAxis,
    simulation: Optional[Dict[str, Any]] = None,
    attack: Optional[Dict[str, Any]] = None,
    montecarlo: Optional[Dict[str, Any]] = None,
    name: str = "mc-map",
    workers: int = 0,
    cache=None,
) -> FlipProbabilityMap:
    """Evaluate a flip-probability map over the given 2-D parameter plane.

    ``workers``/``cache`` are forwarded to the campaign runner, so large maps
    fan out over processes and re-runs are incremental.
    """
    from ..campaign.aggregate import to_experiment_result
    from ..campaign.runner import CampaignRunner

    x_axis = x_axis if isinstance(x_axis, MapAxis) else MapAxis.from_dict(x_axis)
    y_axis = y_axis if isinstance(y_axis, MapAxis) else MapAxis.from_dict(y_axis)
    spec = montecarlo_map_spec(
        x_axis, y_axis, name=name, simulation=simulation, attack=attack, montecarlo=montecarlo
    )
    report = CampaignRunner(spec, cache=cache, workers=workers).run()
    tel = get_telemetry()
    if tel.enabled:
        tel.count("map.points", len(x_axis.values) * len(y_axis.values))
    result = to_experiment_result(
        spec,
        report,
        description=(
            f"Flip-probability map over {x_axis.label} x {y_axis.label} "
            f"({len(x_axis.values)}x{len(y_axis.values)} points)"
        ),
    )

    shape = (len(x_axis.values), len(y_axis.values))
    probabilities = np.zeros(shape)
    geomean = np.full(shape, np.nan)
    # Grid mode materialises the first axis slowest, so point index maps to
    # (x, y) in row-major order.
    for record in report.ok_records:
        row, column = divmod(record.index, shape[1])
        probabilities[row, column] = record.result["flip_probability"]
        if record.result.get("geomean_pulses_to_flip") is not None:
            geomean[row, column] = record.result["geomean_pulses_to_flip"]
    n_samples = MonteCarloConfig.from_dict(dict(montecarlo or {})).n_samples
    return FlipProbabilityMap(
        x_axis=x_axis,
        y_axis=y_axis,
        probabilities=probabilities,
        geomean_pulses=geomean,
        result=result,
        n_samples=n_samples,
    )


# ----------------------------------------------------------------------
# CI-driven refinement
# ----------------------------------------------------------------------


@dataclass
class AdaptiveFlipProbabilityMap(FlipProbabilityMap):
    """A refined map: per-point estimates plus the allocation diagnostics."""

    #: Samples actually drawn per point.
    samples_used: np.ndarray = None
    #: Final CI half-width per point.
    half_widths: np.ndarray = None
    ci_low: np.ndarray = None
    ci_high: np.ndarray = None
    #: True where the interval met the target half-width.
    converged: np.ndarray = None
    #: True where the final interval still straddles the decision threshold.
    straddling: np.ndarray = None
    target_half_width: float = 0.02
    threshold: float = 0.5
    confidence: float = 0.95
    #: Global sample budget the refinement ran under (0 = unbounded).
    budget: int = 0
    #: Total samples drawn over the whole plane.
    total_samples: int = 0
    #: Samples a fixed-n map needs for the same worst-case target
    #: (``fixed_sample_size(target) * points``) — the comparator the
    #: adaptive benchmarks report against.
    fixed_n_equivalent: int = 0

    @property
    def solve_ratio(self) -> float:
        """Fixed-n solves per adaptive solve at the same target (> 1 = win)."""
        return self.fixed_n_equivalent / self.total_samples if self.total_samples else 0.0

    def bit_error_rate(self) -> float:
        """Mean flip probability over the *sampled* points.

        Points the budget never reached are NaN and excluded; NaN is returned
        only when no point was sampled at all.
        """
        return float(np.nanmean(self.probabilities)) if np.isfinite(self.probabilities).any() else float("nan")

    def allocation_heatmap(self) -> str:
        """ASCII heatmap of the samples spent per map point."""
        header = (
            f"samples per point (total {self.total_samples}, "
            f"fixed-n equivalent {self.fixed_n_equivalent}, "
            f"{self.solve_ratio:.1f}x fewer solves)"
        )
        return header + "\n" + matrix_heatmap(self.samples_used.astype(float), precision=0)


@dataclass
class _PointState:
    """Refinement bookkeeping of one map point."""

    index: int
    engine: MonteCarloEngine
    sampler: Any  # AdaptiveSampler
    log_pulses: StreamingMeanEstimator = field(default_factory=StreamingMeanEstimator)
    flip_count: int = 0

    def interval(self):
        if not self.sampler.n_drawn:
            return 0.0, 1.0
        return self.sampler.estimator.interval()

    def half_width(self) -> float:
        if not self.sampler.n_drawn:
            return float("inf")
        return float(self.sampler.estimator.half_width())

    def straddles(self, threshold: float) -> bool:
        low, high = self.interval()
        return low < threshold < high

    def estimate(self) -> float:
        """NaN until the point receives its first batch: an unsampled point
        must never masquerade as a measured P = 0 plateau."""
        if not self.sampler.n_drawn:
            return float("nan")
        return float(self.sampler.estimator.estimate)


def refine_flip_probability_map(
    x_axis: MapAxis,
    y_axis: MapAxis,
    simulation: Optional[Dict[str, Any]] = None,
    attack: Optional[Dict[str, Any]] = None,
    montecarlo: Optional[Dict[str, Any]] = None,
    name: str = "mc-map",
    target_half_width: float = 0.02,
    budget: int = 0,
    threshold: float = 0.5,
    batch_size: int = 64,
    point_n_max: int = 16384,
    confidence: float = 0.95,
    method: str = "wilson",
) -> AdaptiveFlipProbabilityMap:
    """Evaluate a flip-probability map under a CI-driven sample allocation.

    Every grid point starts with one batch; afterwards each round allocates
    one more batch to every point whose interval is still wider than
    ``target_half_width``, ordered so that points whose interval straddles
    ``threshold`` (the undecided flip boundary) come first.  The loop stops
    when every point converged, hit ``point_n_max``, or the global ``budget``
    (total samples across the plane; 0 = unbounded) ran out.

    Reproducibility: points share the population seed and batch ``i`` of any
    point draws through spawn key ``("batch", i)``, so the refined map is a
    pure function of the spec — the allocation order never changes the draws.
    Each batch folds into its point's estimator through
    :meth:`~repro.montecarlo.engine.MonteCarloResult.estimator_batch`, as in
    the engine's own adaptive runs, so samples the engine excludes never
    count and full-array points keep their per-array clusters.
    """
    from ..experiments.base import ExperimentResult
    from .adaptive import AdaptiveSampler

    x_axis = x_axis if isinstance(x_axis, MapAxis) else MapAxis.from_dict(x_axis)
    y_axis = y_axis if isinstance(y_axis, MapAxis) else MapAxis.from_dict(y_axis)
    if not 0.0 < threshold < 1.0:
        raise MonteCarloError("refinement threshold must be in (0, 1)")
    if budget < 0:
        raise MonteCarloError("budget must be non-negative (0 = unbounded)")
    spec = montecarlo_map_spec(
        x_axis, y_axis, name=name, simulation=simulation, attack=attack, montecarlo=montecarlo
    )
    points = spec.materialise()
    adaptive = AdaptiveConfig(
        batch_size=batch_size,
        n_max=point_n_max,
        target_half_width=target_half_width,
        confidence=confidence,
        method=method,
    )

    states: List[_PointState] = []
    for point in points:
        config = MonteCarloConfig.from_dict(point.job["montecarlo"])
        config.adaptive = None  # the refiner owns the stopping decisions
        engine = MonteCarloEngine(
            config,
            simulation=SimulationConfig.from_dict(point.job["simulation"]),
            attack=AttackConfig.from_dict(point.job["attack"]),
        )
        state = _PointState(index=point.index, engine=engine, sampler=None)

        def evaluate(batch_index: int, n: int, state: "_PointState" = state):
            result = state.engine.run_batch(n, batch_index)
            pulses = result.pulses_to_flip()
            if pulses.size:
                state.log_pulses.update(np.log(pulses))
                state.flip_count += int(pulses.size)
            return result.estimator_batch()

        state.sampler = AdaptiveSampler(
            adaptive, evaluate, estimator=engine.adaptive_estimator(adaptive)
        )
        states.append(state)

    total = 0
    exhausted_budget = False
    tel = get_telemetry()
    with tel.span("mc.map.refine", points=len(states)):
        while not exhausted_budget:
            pending = [
                state
                for state in states
                if not state.sampler.satisfied and not state.sampler.exhausted
            ]
            if not pending:
                break
            if tel.enabled:
                tel.count("map.refine.rounds")
            # The flip boundary first: undecided (straddling) points carry the
            # map's information; plateaus only polish an already-decided answer.
            pending.sort(
                key=lambda state: (
                    not state.straddles(threshold),
                    -state.half_width(),
                    state.index,
                )
            )
            for state in pending:
                next_n = min(adaptive.batch_size, adaptive.n_max - state.sampler.n_drawn)
                if budget and total + next_n > budget:
                    # The budget is a hard ceiling: never start a batch that
                    # would cross it.
                    exhausted_budget = True
                    break
                record = state.sampler.step()
                total += record.n_drawn
    if tel.enabled:
        tel.count("map.refine.samples", total)

    shape = (len(x_axis.values), len(y_axis.values))
    # NaN marks points the budget never reached (no batch drawn).
    probabilities = np.full(shape, np.nan)
    geomean = np.full(shape, np.nan)
    samples_used = np.zeros(shape, dtype=np.int64)
    half_widths = np.full(shape, np.inf)
    ci_low = np.zeros(shape)
    ci_high = np.ones(shape)
    converged = np.zeros(shape, dtype=bool)
    straddling = np.zeros(shape, dtype=bool)

    result = ExperimentResult(
        name=name,
        description=(
            f"CI-refined flip-probability map over {x_axis.label} x {y_axis.label} "
            f"({shape[0]}x{shape[1]} points, target half-width {target_half_width:g})"
        ),
        columns=[
            x_axis.label,
            y_axis.label,
            "flip_probability",
            "ci_low",
            "ci_high",
            "half_width",
            "n_samples",
            "converged",
            "straddling",
        ],
    )
    for state in states:
        row, column = divmod(state.index, shape[1])
        low, high = state.interval()
        probabilities[row, column] = state.estimate()
        samples_used[row, column] = state.sampler.n_drawn
        half_widths[row, column] = state.half_width()
        ci_low[row, column] = low
        ci_high[row, column] = high
        converged[row, column] = state.sampler.satisfied
        straddling[row, column] = state.straddles(threshold)
        if state.flip_count:
            geomean[row, column] = float(np.exp(state.log_pulses.mean))
        result.add_row(
            **{
                x_axis.label: x_axis.values[row],
                y_axis.label: y_axis.values[column],
                "flip_probability": probabilities[row, column],
                "ci_low": low,
                "ci_high": high,
                "half_width": half_widths[row, column],
                "n_samples": int(samples_used[row, column]),
                "converged": bool(converged[row, column]),
                "straddling": bool(straddling[row, column]),
            }
        )

    fixed_equivalent = fixed_sample_size(target_half_width, confidence) * len(states)
    result.metadata.update(
        {
            "target_half_width": target_half_width,
            "threshold": threshold,
            "confidence": confidence,
            "budget": budget,
            "total_samples": int(total),
            "fixed_n_equivalent": int(fixed_equivalent),
            "points_converged": int(converged.sum()),
            "points_straddling": int(straddling.sum()),
            "points_unsampled": int((samples_used == 0).sum()),
        }
    )
    return AdaptiveFlipProbabilityMap(
        x_axis=x_axis,
        y_axis=y_axis,
        probabilities=probabilities,
        geomean_pulses=geomean,
        result=result,
        n_samples=0,
        samples_used=samples_used,
        half_widths=half_widths,
        ci_low=ci_low,
        ci_high=ci_high,
        converged=converged,
        straddling=straddling,
        target_half_width=target_half_width,
        threshold=threshold,
        confidence=confidence,
        budget=budget,
        total_samples=int(total),
        fixed_n_equivalent=int(fixed_equivalent),
    )
