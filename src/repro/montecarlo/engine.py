"""The Monte-Carlo population engine.

:class:`MonteCarloEngine` answers the statistical question behind the paper's
single-trajectory figures: across device-to-device and cycle-to-cycle
variation, *what fraction* of victim cells flips under a given pulse budget,
and how are the pulses-to-flip distributed?

The engine anchors every population to the circuit-level physics: the victim
bias and the aggressor→victim thermal coupling are extracted once from the
nominal crossbar solve (the same nodal + crosstalk-hub path the
:class:`~repro.attack.neurohammer.NeuroHammer` engine uses), then the sampled
population is propagated through the vectorized device model —

1. each sampled cell's aggressor operating point is re-solved (hotter or
   cooler aggressors deliver more or less crosstalk),
2. the victim crosstalk is scaled through the nominal coupling ratio,
3. the batched switching-kinetics integrator counts pulses to flip.

A scalar reference path (``vectorized=False``) runs the identical physics one
cell at a time through :mod:`repro.devices`; it backs the agreement tests and
the throughput benchmark.  The anchored vectorized, scalar and full-array
evaluations differ only in their physics calls: they read one derivation of
the attack environment and one draw-validity rule, write one set of lane
arrays and fold into the estimators through one
:meth:`MonteCarloResult.estimator_batch`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..attack.neurohammer import NeuroHammer
from ..attack.patterns import AttackPattern
from ..circuit.crossbar import CrossbarArray
from ..config import AttackConfig, JsonConfig, SimulationConfig
from ..devices.base import VOLTAGE_LIMIT_V
from ..devices.jart_vcm import JartVcmModel
from ..devices.kinetics import PulseCountResult, pulses_to_switch
from ..devices.thermal import solve_operating_point
from ..errors import ConvergenceError, DeviceModelError, MonteCarloError
from ..circuit.drivers import write_bias
from ..obs import build_manifest, get_telemetry, spawn_digest
from ..utils.logging import get_logger
from .adaptive import AdaptiveConfig, AdaptiveOutcome, AdaptiveSampler
from .estimators import (
    ClusteredBinomialEstimator,
    EstimatorState,
    ImportanceEstimator,
    StreamingBinomialEstimator,
)
from .sampling import (
    ATTACK_PATHS,
    OPERATING_PATHS,
    ArrayPopulationDraw,
    ImportanceSettings,
    ParameterDistribution,
    PopulationDraw,
    PopulationSampler,
)
from .vectorized import (
    BatchPulseCountResult,
    SampledArrayJartModel,
    VectorizedJartVcm,
    pulses_to_switch_batch,
    solve_operating_point_batch,
)


#: Evaluation modes of :class:`MonteCarloEngine`.
MONTECARLO_MODES = ("anchored", "full_array")

logger = get_logger("montecarlo.engine")


def _concat_draws(draws: List[Optional[Any]]):
    """Concatenate per-batch population draws along the sample axis."""
    draws = [draw for draw in draws if draw is not None]
    if not draws:
        return None
    if len(draws) == 1:
        return draws[0]
    first = draws[0]
    values = {
        path: np.concatenate([draw.values[path] for draw in draws], axis=0)
        for path in first.values
    }
    if isinstance(first, ArrayPopulationDraw):
        return ArrayPopulationDraw(
            n_arrays=sum(draw.n_arrays for draw in draws),
            cells=first.cells,
            seed=first.seed,
            values=values,
        )
    log_weights = None
    if first.log_weights is not None:
        log_weights = np.concatenate([draw.log_weights for draw in draws])
    return PopulationDraw(
        n_samples=sum(draw.n_samples for draw in draws),
        seed=first.seed,
        values=values,
        log_weights=log_weights,
    )

#: Victim selections of the full-array mode.
VICTIM_MODES = ("half_selected", "all")

#: Stacked victim lanes at which a full-array batch integrates the arrays
#: solved so far.  The kinetics solves each victim at every quadrature node
#: in one fixed-point call and peaks at about 5.3 KB per victim lane, so a
#: stack this size peaks near 33 MB; a batch with more lanes makes several
#: kinetics calls.
FULL_ARRAY_LANE_BUDGET = 6_144


@dataclass
class MonteCarloConfig(JsonConfig):
    """Configuration of a Monte-Carlo population run."""

    #: Number of sampled victim cells (``anchored``) or sampled whole arrays
    #: (``full_array``).
    n_samples: int = 256
    #: Root seed of the population (see :mod:`repro.utils.rng`).
    seed: int = 0
    #: Sampled parameter distributions.
    distributions: List[ParameterDistribution] = field(default_factory=list)
    #: Initial normalised state of every victim.
    x_start: float = 0.0
    #: ``"anchored"`` — every sample is one victim cell anchored to the
    #: nominal circuit solve; ``"full_array"`` — every sample is a whole
    #: crossbar with per-cell device draws whose nodal operating point is
    #: re-solved, with multiple victims evaluated per array.
    mode: str = "anchored"
    #: Victims evaluated per sampled array (``full_array`` only):
    #: ``"half_selected"`` — cells sharing a word/bit line with an aggressor,
    #: ``"all"`` — every non-aggressor cell.
    victim_mode: str = "half_selected"
    #: Sequential stopping rule; when set, ``n_samples`` is ignored and the
    #: run draws batches until the flip-probability CI meets the target (see
    #: :class:`~repro.montecarlo.adaptive.AdaptiveConfig`).
    adaptive: Optional[AdaptiveConfig] = None
    #: Importance-sampling tilt towards the flip boundary (anchored mode
    #: only); estimates are reweighted by self-normalized likelihood ratios.
    importance: Optional[ImportanceSettings] = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise MonteCarloError("n_samples must be at least 1")
        if not 0.0 <= self.x_start <= 1.0:
            raise MonteCarloError("x_start must lie in [0, 1]")
        if self.mode not in MONTECARLO_MODES:
            raise MonteCarloError(
                f"unknown Monte-Carlo mode {self.mode!r}; expected one of {MONTECARLO_MODES}"
            )
        if self.victim_mode not in VICTIM_MODES:
            raise MonteCarloError(
                f"unknown victim mode {self.victim_mode!r}; expected one of {VICTIM_MODES}"
            )
        self.distributions = [
            dist if isinstance(dist, ParameterDistribution) else ParameterDistribution.from_dict(dist)
            for dist in self.distributions
        ]
        if isinstance(self.adaptive, dict):
            self.adaptive = AdaptiveConfig.from_dict(self.adaptive)
        if isinstance(self.importance, dict):
            self.importance = ImportanceSettings.from_dict(self.importance)
        if self.importance is not None and self.mode == "full_array":
            raise MonteCarloError(
                "importance sampling tilts per-victim populations; it is only "
                "defined for mode='anchored'"
            )


@dataclass
class NominalConditions:
    """Circuit-level anchor of a population: the nominal operating point."""

    pattern_name: str
    #: Voltage across the victim during the hammer phase [V].
    victim_voltage_v: float
    #: Crosstalk temperature the victim receives at the nominal point [K].
    crosstalk_temperature_k: float
    #: Cell voltage of the hottest aggressor [V].
    aggressor_voltage_v: float
    #: Self-heating rise of that aggressor above ambient [K].
    aggressor_rise_k: float
    #: Victim crosstalk per kelvin of aggressor self-heating rise.
    coupling_ratio: float
    ambient_temperature_k: float
    amplitude_v: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "pattern_name": self.pattern_name,
            "victim_voltage_v": self.victim_voltage_v,
            "crosstalk_temperature_k": self.crosstalk_temperature_k,
            "aggressor_voltage_v": self.aggressor_voltage_v,
            "aggressor_rise_k": self.aggressor_rise_k,
            "coupling_ratio": self.coupling_ratio,
            "ambient_temperature_k": self.ambient_temperature_k,
            "amplitude_v": self.amplitude_v,
        }


@dataclass
class MonteCarloResult:
    """Per-cell outcomes and summary statistics of one population run."""

    n_samples: int
    seed: int
    engine: str  # "vectorized" | "scalar"
    conditions: NominalConditions
    flipped: np.ndarray
    pulses: np.ndarray
    stress_time_s: np.ndarray
    wall_clock_s: np.ndarray
    final_x: np.ndarray
    victim_temperature_k: np.ndarray
    #: False in excluded lanes (see :meth:`MonteCarloEngine.run`).
    valid: np.ndarray
    duration_s: float = 0.0
    #: Likelihood-ratio weights of an importance-sampled population (None
    #: for plain draws); flip probability is then the self-normalized
    #: reweighted estimate.
    weights: Optional[np.ndarray] = None
    #: The sampled parameter draw behind this population (kept for npz
    #: export and offline analysis).
    draw: Optional[Any] = None
    #: Trace of the sequential run when adaptive stopping was active.
    adaptive: Optional[AdaptiveOutcome] = None
    #: Interval settings used by :meth:`estimator` (overridden by the
    #: adaptive config when one drove the run).
    ci_confidence: float = 0.95
    ci_method: str = "wilson"

    # ------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        return int(self.valid.sum())

    @property
    def flipped_count(self) -> int:
        return int((self.flipped & self.valid).sum())

    @property
    def flip_probability(self) -> float:
        """Flip probability over the valid cells.

        Plain populations report the raw flipped fraction; importance-sampled
        populations report the self-normalized likelihood-ratio estimate
        (the raw fraction would estimate the *proposal* flip rate, not the
        nominal one).
        """
        if self.weights is not None:
            total = float(self.weights[self.valid].sum())
            if total <= 0.0:
                return 0.0
            return float(self.weights[self.flipped & self.valid].sum() / total)
        valid = self.valid_count
        return self.flipped_count / valid if valid else 0.0

    def estimator_batch(self, event: Optional[np.ndarray] = None) -> Tuple[Any, Optional[np.ndarray]]:
        """The population as one estimator batch, ``(outcomes, weights)``.

        ``event`` is a boolean lane array (default: the flip flag); excluded
        lanes never count.  The pair is what an
        :class:`~repro.montecarlo.adaptive.AdaptiveSampler` evaluation returns
        and what :meth:`event_estimator` folds: the valid lanes' outcomes
        plus their likelihood-ratio weights (``None`` for plain draws).
        """
        event = self.flipped if event is None else np.asarray(event, dtype=bool)
        weights = self.weights[self.valid] if self.weights is not None else None
        return event[self.valid], weights

    def _empty_estimator(self):
        if self.weights is not None:
            return ImportanceEstimator(confidence=self.ci_confidence)
        return StreamingBinomialEstimator(confidence=self.ci_confidence, method=self.ci_method)

    def event_estimator(self, event: Optional[np.ndarray] = None):
        """Fold an arbitrary per-lane event into the matching estimator.

        This is the one place that knows whether the population is
        importance-weighted or clustered, so every consumer that scores a
        derived event (flip within a pulse budget, refresh survival, ...)
        gets the correct estimate and interval for free.
        """
        outcomes, weights = self.estimator_batch(event)
        estimator = self._empty_estimator()
        if weights is None:
            estimator.update(outcomes)
        else:
            estimator.update(outcomes, weights)
        return estimator

    def estimator(self):
        """The population folded into the matching streaming estimator."""
        return self.event_estimator()

    def interval(self) -> tuple:
        """Confidence interval on the flip probability."""
        return self.estimator().interval()

    @property
    def effective_sample_size(self) -> float:
        """Kish ESS under importance sampling; the valid count otherwise."""
        return float(self.estimator().effective_sample_size)

    def pulses_to_flip(self) -> np.ndarray:
        """Pulse counts of the cells that actually flipped."""
        return self.pulses[self.flipped & self.valid]

    def quantiles(self, fractions=(0.1, 0.5, 0.9)) -> Dict[str, Optional[float]]:
        """Pulses-to-flip quantiles over the flipped sub-population."""
        flipped = self.pulses_to_flip()
        if flipped.size == 0:
            return {f"p{int(fraction * 100)}": None for fraction in fractions}
        return {
            f"p{int(fraction * 100)}": float(np.quantile(flipped, fraction))
            for fraction in fractions
        }

    def summary(self) -> Dict[str, Any]:
        """The headline statistics of the population."""
        flipped = self.pulses_to_flip()
        valid = self.valid
        summary: Dict[str, Any] = {
            "engine": self.engine,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "valid": self.valid_count,
            "failed": self.n_samples - self.valid_count,
            "flipped": self.flipped_count,
            "flip_probability": self.flip_probability,
            "min_pulses_to_flip": int(flipped.min()) if flipped.size else None,
            "max_pulses_to_flip": int(flipped.max()) if flipped.size else None,
            "geomean_pulses_to_flip": (
                float(np.exp(np.mean(np.log(flipped)))) if flipped.size else None
            ),
            "mean_victim_temperature_k": (
                float(self.victim_temperature_k[valid].mean()) if valid.any() else None
            ),
            "duration_s": self.duration_s,
        }
        summary.update(self.quantiles())
        state = EstimatorState.capture(self.estimator())
        summary["ci_low"] = state.ci_low
        summary["ci_high"] = state.ci_high
        summary["ci_half_width"] = state.half_width
        summary["ci_method"] = state.method
        if self.weights is not None:
            summary["effective_sample_size"] = state.effective_sample_size
        if self.adaptive is not None:
            summary["adaptive"] = self.adaptive.to_dict()
        return summary

    def to_experiment_result(self, max_rows: Optional[int] = 64):
        """Per-cell table (first ``max_rows`` cells) with the summary attached."""
        from ..experiments.base import ExperimentResult

        result = ExperimentResult(
            name="montecarlo",
            description=(
                f"Monte-Carlo population of {self.n_samples} victim cells "
                f"({self.engine} engine, seed {self.seed})"
            ),
            columns=["cell", "flipped", "pulses", "final_x", "victim_temperature_k", "valid"],
            metadata={
                "summary": self.summary(),
                "conditions": self.conditions.to_dict(),
                "manifest": build_manifest(
                    seed=self.seed, extra={"kind": "montecarlo", "engine": self.engine}
                ),
            },
        )
        count = self.n_samples if max_rows is None else min(self.n_samples, max_rows)
        for index in range(count):
            result.add_row(
                cell=index,
                flipped=bool(self.flipped[index]),
                pulses=int(self.pulses[index]),
                final_x=float(self.final_x[index]),
                victim_temperature_k=float(self.victim_temperature_k[index]),
                valid=bool(self.valid[index]),
            )
        return result


@dataclass
class FullArrayMonteCarloResult(MonteCarloResult):
    """Outcomes of a full-array population.

    Lanes are ``(array, victim)`` pairs in array-major order: lane
    ``k * victims_per_array + j`` is victim ``victims[j]`` of sampled array
    ``k``.  All the per-lane statistics of :class:`MonteCarloResult` apply;
    the additional fields slice them per array.
    """

    n_arrays: int = 0
    #: Victim cells evaluated in every sampled array (row-major order).
    victims: List[tuple] = field(default_factory=list)
    #: False where a sampled array's nodal solve failed entirely.
    array_valid: np.ndarray = None
    #: Per-array draws of the attack environment (ambient, amplitude, ...)
    #: when the population samples it; ``None`` otherwise.
    environment_draw: Optional[PopulationDraw] = None

    def estimator_batch(self, event: Optional[np.ndarray] = None) -> Tuple[Any, None]:
        """Per-array ``(event count, valid lanes)`` pairs, and no weights.

        The victim lanes of one sampled array share its per-cell draws,
        environment draw and nodal solve, so each array is one cluster of
        correlated lanes: the point estimate is the pooled lane fraction, but
        the interval comes from the between-array spread — treating the lanes
        as iid trials (the anchored-mode estimator) would overstate the
        precision by up to a factor of ``sqrt(victims_per_array)``.  An
        excluded array is an empty cluster, which the estimator drops.
        """
        event = self.flipped if event is None else np.asarray(event, dtype=bool)
        hits = (event & self.valid).reshape(self.n_arrays, -1)
        valid = self.valid.reshape(self.n_arrays, -1)
        return (hits.sum(axis=1).astype(np.float64), valid.sum(axis=1).astype(np.float64)), None

    def _empty_estimator(self):
        return ClusteredBinomialEstimator(confidence=self.ci_confidence)

    @property
    def victims_per_array(self) -> int:
        return len(self.victims)

    @property
    def array_flips(self) -> np.ndarray:
        """Per-array count of flipped victims, shape (n_arrays,)."""
        return (self.flipped & self.valid).reshape(self.n_arrays, -1).sum(axis=1)

    @property
    def array_flip_probability(self) -> float:
        """Fraction of valid sampled arrays with at least one flipped victim."""
        valid = int(self.array_valid.sum())
        if not valid:
            return 0.0
        return float((self.array_flips[self.array_valid] > 0).sum() / valid)

    def victim_lane(self, victim) -> int:
        """Lane offset of one victim cell within each array's block."""
        return self.victims.index(tuple(victim))

    def summary(self) -> Dict[str, Any]:
        summary = super().summary()
        summary.update(
            {
                "mode": "full_array",
                "n_arrays": self.n_arrays,
                "victims_per_array": self.victims_per_array,
                "valid_arrays": int(self.array_valid.sum()),
                "array_flip_probability": self.array_flip_probability,
            }
        )
        return summary


#: The per-lane outcome arrays of a :class:`MonteCarloResult`.
_LANE_FIELDS = (
    "flipped", "pulses", "stress_time_s", "wall_clock_s", "final_x", "victim_temperature_k", "valid"
)


class _Environment(NamedTuple):
    """Per-sample attack environment: the drawn value of each ``attack.*``
    path, or its nominal where the population does not sample it."""

    ambient_k: np.ndarray
    amplitude_v: np.ndarray
    pulse_length_s: np.ndarray
    duty_cycle: np.ndarray
    threshold: np.ndarray

    def usable(self, *cell_voltages_v: np.ndarray) -> np.ndarray:
        """Per sample, whether the draw passes the validity rule stated at
        :meth:`MonteCarloEngine.run`; ``cell_voltages_v`` are held to
        :data:`~repro.devices.base.VOLTAGE_LIMIT_V` with the drive amplitude."""
        usable = (self.ambient_k > 0.0) & (self.pulse_length_s > 0.0)
        usable &= (self.duty_cycle > 0.0) & (self.duty_cycle <= 1.0)
        usable &= (self.threshold >= 0.0) & (self.threshold <= 1.0)
        for voltage in (self.amplitude_v, *cell_voltages_v):
            usable &= np.abs(voltage) <= VOLTAGE_LIMIT_V
        return usable


class _AnchoredLanes(NamedTuple):
    """The inputs of every anchored lane, as both anchored evaluations read them."""

    #: Every lane's sampled device.
    devices: VectorizedJartVcm
    env: _Environment
    aggressor_voltage_v: np.ndarray
    victim_voltage_v: np.ndarray
    #: Drawn victim crosstalk [K], or ``None``: scale the aggressor's rise.
    crosstalk_k: Optional[np.ndarray]
    usable: np.ndarray


class _LaneOutcomes:
    """The lane arrays of one population, every lane excluded until scattered.

    An excluded lane reports no flip, the full pulse budget, zero stress and
    wall-clock time, its start state and its sample's ambient temperature.
    """

    def __init__(self, engine: "MonteCarloEngine", ambient_k: np.ndarray):
        n = ambient_k.size
        placeholders = (
            np.zeros(n, dtype=bool),
            np.full(n, engine.attack.max_pulses, dtype=np.int64),
            np.zeros(n),
            np.zeros(n),
            np.full(n, engine.montecarlo.x_start),
            np.array(ambient_k, dtype=np.float64),
            np.zeros(n, dtype=bool),
        )
        self.arrays = dict(zip(_LANE_FIELDS, placeholders))

    def scatter(self, lanes: np.ndarray, outcome: BatchPulseCountResult, converged=True) -> None:
        """Write lane ``k`` of one kinetics outcome into ``lanes[k]``, except
        where ``outcome.converged & converged`` is False (left excluded)."""
        keep = outcome.converged & converged
        lanes = lanes[keep]
        values = (
            outcome.flipped,
            outcome.pulses,
            outcome.stress_time_s,
            outcome.wall_clock_s,
            outcome.final_x,
            outcome.final_temperature_k,
            keep,
        )
        for name, value in zip(_LANE_FIELDS, values):
            self.arrays[name][lanes] = value[keep]


class MonteCarloEngine:
    """Evaluates flip statistics over sampled victim-cell populations."""

    def __init__(
        self,
        montecarlo: Optional[MonteCarloConfig] = None,
        simulation: Optional[SimulationConfig] = None,
        attack: Optional[AttackConfig] = None,
        pattern: Optional[AttackPattern] = None,
    ):
        self.montecarlo = montecarlo if montecarlo is not None else MonteCarloConfig()
        self.simulation = simulation if simulation is not None else SimulationConfig()
        self.attack = attack if attack is not None else AttackConfig()
        self._pattern = pattern
        self._conditions: Optional[NominalConditions] = None
        self.sampler = PopulationSampler(self.montecarlo.distributions, seed=self.montecarlo.seed)

    # ------------------------------------------------------------------
    # nominal circuit anchor
    # ------------------------------------------------------------------

    def _single_phase_pattern(self, hammer: NeuroHammer) -> AttackPattern:
        """Resolve and validate the attack pattern both modes evaluate."""
        pattern = self._pattern if self._pattern is not None else hammer._pattern_from_config(self.attack)
        pattern.validate(hammer.crossbar.geometry)
        if len(pattern.phases) != 1:
            raise MonteCarloError(
                f"pattern {pattern.name!r} hammers in {len(pattern.phases)} interleaved phases; "
                "the Monte-Carlo engine models single-phase (simultaneous) patterns"
            )
        return pattern

    def nominal_conditions(self) -> NominalConditions:
        """Solve (once) the nominal crossbar operating point of the attack."""
        if self._conditions is not None:
            return self._conditions
        with get_telemetry().span("mc.nominal_conditions"):
            return self._solve_nominal_conditions()

    def _solve_nominal_conditions(self) -> NominalConditions:
        crossbar = CrossbarArray(
            geometry=self.simulation.geometry,
            wires=self.simulation.wires,
            ambient_temperature_k=self.attack.ambient_temperature_k,
        )
        hammer = NeuroHammer(crossbar)
        pattern = self._single_phase_pattern(hammer)
        hammer.prepare(pattern)
        point = hammer.phase_operating_point(
            pattern, pattern.phases[0], self.attack.pulse.amplitude_v, self.attack.bias_scheme
        )
        # The max-current aggressor's cell voltage anchors the vectorized
        # aggressor re-solve; its nominal self-heating rise calibrates the
        # effective coupling ratio (crosstalk per kelvin of aggressor rise).
        aggressor_voltage = point.aggressor_voltage_v
        nominal_aggressor = solve_operating_point(
            crossbar.model,
            aggressor_voltage,
            1.0,
            ambient_temperature_k=self.attack.ambient_temperature_k,
        )
        rise = nominal_aggressor.filament_temperature_k - self.attack.ambient_temperature_k
        coupling_ratio = point.victim_crosstalk_k / rise if rise > 0 else 0.0
        self._conditions = NominalConditions(
            pattern_name=pattern.name,
            victim_voltage_v=point.victim_voltage_v,
            crosstalk_temperature_k=point.victim_crosstalk_k,
            aggressor_voltage_v=aggressor_voltage,
            aggressor_rise_k=rise,
            coupling_ratio=coupling_ratio,
            ambient_temperature_k=self.attack.ambient_temperature_k,
            amplitude_v=self.attack.pulse.amplitude_v,
        )
        return self._conditions

    def set_nominal_conditions(self, conditions: NominalConditions) -> None:
        """Pin the circuit anchor explicitly instead of solving for it.

        What-if studies (e.g. a thermal guard throttling the sustained
        crosstalk) evaluate the same population under modified operating
        conditions; this is the supported way to install them — build a
        modified copy with :func:`dataclasses.replace` and set it before
        :meth:`run`.
        """
        self._conditions = conditions

    # ------------------------------------------------------------------
    # population evaluation
    # ------------------------------------------------------------------

    def _nominals(self, conditions: NominalConditions) -> Dict[str, float]:
        """Nominal value per sampleable path (consumed by relative draws).

        Derived from the sampler's own path registry, so a path added to
        :mod:`repro.montecarlo.sampling` automatically gains its nominal here
        (the attribute chain mirrors the dotted path; ``operating.*`` leaves
        are attributes of :class:`NominalConditions`).
        """
        nominals = self._device_nominals()
        roots = {"attack": self.attack, "operating": conditions}
        for path in ATTACK_PATHS + OPERATING_PATHS:
            root, rest = path.split(".", 1)
            value = roots[root]
            for part in rest.split("."):
                value = getattr(value, part)
            nominals[path] = float(value)
        return nominals

    def _device_base(self):
        """The nominal device parameter set of the population."""
        return JartVcmModel().parameters

    def _device_nominals(self) -> Dict[str, float]:
        """``{device.<field>: nominal}`` for every sampleable device path."""
        device = self._device_base()
        return {
            f"device.{f.name}": float(getattr(device, f.name)) for f in fields(type(device))
        }

    def sample(self, n_samples: Optional[int] = None, spawn=()) -> PopulationDraw:
        """Draw the (seeded) anchored population this engine will evaluate.

        ``spawn`` inserts extra spawn-key elements into the draw streams; the
        adaptive loop keys its batches as ``("batch", index)`` so batch draws
        are reproducible independent of the stopping decisions.  When the
        engine carries importance settings, the draw comes from the tilted
        proposals and carries per-sample log likelihood ratios.
        """
        for dist in self.sampler.distributions:
            if dist.within_die > 0.0:
                raise MonteCarloError(
                    f"distribution {dist.path!r} requests within-die correlation "
                    f"(within_die={dist.within_die}), which anchored per-victim draws cannot "
                    "honour — evaluate it through mode='full_array'"
                )
        n = n_samples if n_samples is not None else self.montecarlo.n_samples
        conditions = self.nominal_conditions()
        return self.sampler.sample(
            n, self._nominals(conditions), spawn=spawn, importance=self.montecarlo.importance
        )

    def _ci_settings(self) -> tuple:
        """(confidence, method) the result's interval reporting should use."""
        if self.montecarlo.adaptive is not None:
            return self.montecarlo.adaptive.confidence, self.montecarlo.adaptive.method
        return 0.95, "wilson"

    def run(self, n_samples: Optional[int] = None, vectorized: bool = True) -> MonteCarloResult:
        """Evaluate the population and return per-cell outcomes plus stats.

        A sample whose draw fails the validity rule (ambient and pulse length
        positive, duty cycle in (0, 1], flip threshold in [0, 1], drive and
        cell voltages within ±10 V) or whose physics does not converge is
        excluded: it is never counted, as a flip or as a safe victim.

        With ``mode="full_array"`` each sample is a whole sampled crossbar
        (``n_samples`` arrays) whose nodal operating point is re-solved; the
        returned :class:`FullArrayMonteCarloResult` carries one lane per
        ``(array, victim)`` pair.  With an ``adaptive`` stopping rule
        configured, ``n_samples`` is ignored and samples are drawn in batches
        until the flip-probability interval meets the target (see
        :class:`~repro.montecarlo.adaptive.AdaptiveConfig`).
        """
        start = time.perf_counter()
        tel = get_telemetry()
        with tel.span("mc.run", mode=self.montecarlo.mode):
            conditions = self.nominal_conditions()
            if self.montecarlo.adaptive is not None:
                result = self._run_adaptive(conditions, vectorized)
            else:
                n = n_samples if n_samples is not None else self.montecarlo.n_samples
                result = self._run_fixed(n, conditions, vectorized)
        result.duration_s = time.perf_counter() - start
        if tel.enabled:
            tel.count("mc.runs")
            if result.weights is not None:
                tel.gauge("mc.effective_sample_size", result.effective_sample_size)
        logger.debug(
            "mc run finished: mode=%s n=%d flipped=%d duration=%.3fs",
            self.montecarlo.mode,
            result.n_samples,
            result.flipped_count,
            result.duration_s,
        )
        return result

    def run_batch(self, n: int, batch_index: int, vectorized: bool = True) -> MonteCarloResult:
        """Evaluate one seeded batch of ``n`` samples.

        Batch ``i`` always draws the same population for a given seed,
        independent of any other batches evaluated — this is the unit of work
        behind adaptive stopping and CI-driven map refinement.
        """
        start = time.perf_counter()
        conditions = self.nominal_conditions()
        result = self._run_fixed(n, conditions, vectorized, spawn=("batch", batch_index))
        result.duration_s = time.perf_counter() - start
        return result

    def manifest(self, telemetry_snapshot: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Reproducibility manifest of this engine's configuration."""
        extra: Dict[str, Any] = {
            "kind": "montecarlo",
            "mode": self.montecarlo.mode,
            "adaptive": self.montecarlo.adaptive is not None,
            "importance": self.montecarlo.importance is not None,
        }
        if self.montecarlo.adaptive is None:
            extra["n_samples"] = self.montecarlo.n_samples
        return build_manifest(
            seed=self.montecarlo.seed,
            backends={"mode": self.montecarlo.mode},
            telemetry_snapshot=telemetry_snapshot,
            extra=extra,
        )

    def _run_fixed(
        self, n: int, conditions: NominalConditions, vectorized: bool, spawn=()
    ) -> MonteCarloResult:
        """One fixed-size evaluation through the configured mode."""
        tel = get_telemetry()
        if tel.enabled:
            tel.count("mc.batches")
            tel.count("mc.samples", n)
        if self.montecarlo.mode == "full_array":
            if not vectorized:
                raise MonteCarloError(
                    "full_array mode runs through the batched solver kernel only; "
                    "it has no scalar reference path"
                )
            result = self._run_full_array(n, conditions, spawn=spawn)
        else:
            draw = self.sample(n, spawn=spawn)
            if vectorized:
                result = self._run_vectorized(draw, conditions)
            else:
                result = self._run_scalar(draw, conditions)
        if tel.enabled:
            self._observe_batch(tel, result, spawn)
        return result

    def _observe_batch(self, tel: Any, result: MonteCarloResult, spawn: Sequence) -> None:
        """Audit/watchdog hook at one batch boundary (fixed runs included)."""
        tel.numerics.check_array("mc.batch", "final_x", result.final_x)
        tel.numerics.check_array("mc.batch", "victim_temperature_k", result.victim_temperature_k)
        audit = tel.audit
        if audit is not None:
            # Keyed by the batch's RNG spawn path, so the record's identity
            # is execution-invariant (batch i is batch i whatever drew it).
            audit.record(
                "mc.batch_result",
                key=spawn_digest(self.montecarlo.seed, "montecarlo", *spawn),
                arrays={
                    "flipped": result.flipped,
                    "pulses": result.pulses,
                    "valid": result.valid,
                    "final_x": result.final_x,
                    "stress_time_s": result.stress_time_s,
                },
                meta={
                    "n_samples": int(result.n_samples),
                    "engine": result.engine,
                    "spawn": [str(s) for s in spawn],
                    "flipped_count": int(result.flipped_count),
                },
            )

    # -- adaptive (sequential) path ----------------------------------------

    def adaptive_estimator(self, config: AdaptiveConfig):
        """The empty estimator that batches of this engine fold into under
        ``config``: importance-weighted, cluster-robust (full-array mode, one
        cluster per sampled array) or plain binomial."""
        if self.montecarlo.mode == "full_array":
            return ClusteredBinomialEstimator(confidence=config.confidence)
        return config.make_estimator(weighted=self.montecarlo.importance is not None)

    def _run_adaptive(self, conditions: NominalConditions, vectorized: bool) -> MonteCarloResult:
        """Draw batches until the flip-probability CI meets the target.

        Both modes target the per-lane flip probability.  Each batch folds
        through :meth:`MonteCarloResult.estimator_batch` into
        :meth:`adaptive_estimator`, so full-array runs honour the
        within-array correlation instead of stopping early on
        pseudo-independent lanes.
        """
        config = self.montecarlo.adaptive
        batch_results: List[MonteCarloResult] = []

        def evaluate(index: int, n: int):
            result = self._run_fixed(n, conditions, vectorized, spawn=("batch", index))
            batch_results.append(result)
            return result.estimator_batch()

        outcome = AdaptiveSampler(config, evaluate, estimator=self.adaptive_estimator(config)).run()
        result = self._concat_results(batch_results)
        result.adaptive = outcome
        return result

    def _concat_results(self, results: List[MonteCarloResult]) -> MonteCarloResult:
        """Merge per-batch results into one population result (lane order =
        batch order, matching the estimator's stream order)."""
        first = results[0]
        if len(results) == 1:
            return first

        def cat(name):
            return np.concatenate([getattr(r, name) for r in results])

        common = dict(
            n_samples=sum(r.n_samples for r in results),
            seed=first.seed,
            engine=first.engine,
            conditions=first.conditions,
            weights=cat("weights") if first.weights is not None else None,
            draw=_concat_draws([r.draw for r in results]),
            ci_confidence=first.ci_confidence,
            ci_method=first.ci_method,
            **{name: cat(name) for name in _LANE_FIELDS},
        )
        if isinstance(first, FullArrayMonteCarloResult):
            return FullArrayMonteCarloResult(
                **common,
                n_arrays=sum(r.n_arrays for r in results),
                victims=first.victims,
                array_valid=cat("array_valid"),
                environment_draw=_concat_draws([r.environment_draw for r in results]),
            )
        return MonteCarloResult(**common)

    def _result(
        self, cls, engine: str, conditions: NominalConditions, outcomes: _LaneOutcomes, **extra
    ) -> MonteCarloResult:
        """A fresh population result over the lane arrays of ``outcomes``."""
        confidence, method = self._ci_settings()
        return cls(
            n_samples=outcomes.arrays["valid"].size,
            seed=self.montecarlo.seed,
            engine=engine,
            conditions=conditions,
            ci_confidence=confidence,
            ci_method=method,
            **outcomes.arrays,
            **extra,
        )

    # -- attack environment and anchored lane inputs -------------------------

    def _environment(self, draw: Optional[PopulationDraw], n: int) -> _Environment:
        """The attack environment of ``n`` samples drawn as ``draw``."""
        pulse = self.attack.pulse

        def get(path: str, nominal: float) -> np.ndarray:
            return draw.get(path, nominal) if draw is not None else np.full(n, float(nominal))

        return _Environment(
            ambient_k=get("attack.ambient_temperature_k", self.attack.ambient_temperature_k),
            amplitude_v=get("attack.pulse.amplitude_v", pulse.amplitude_v),
            pulse_length_s=get("attack.pulse.length_s", pulse.length_s),
            duty_cycle=get("attack.pulse.duty_cycle", pulse.duty_cycle),
            threshold=get("attack.flip_threshold", self.attack.flip_threshold),
        )

    def _anchored_lanes(self, draw: PopulationDraw, conditions: NominalConditions) -> _AnchoredLanes:
        """Every anchored lane's inputs: the sampled devices, the drawn
        environment, the nominal aggressor and victim voltages scaled by the
        drawn amplitude (unless ``operating.*`` draws replace them) and the
        lanes the validity rule keeps."""
        device_overrides = {
            path.split(".", 1)[1]: values
            for path, values in draw.values.items()
            if path.startswith("device.")
        }
        env = self._environment(draw, draw.n_samples)
        scale = env.amplitude_v / conditions.amplitude_v
        aggressor_voltage = conditions.aggressor_voltage_v * scale
        victim_voltage = draw.values.get(
            "operating.victim_voltage_v", conditions.victim_voltage_v * scale
        )
        return _AnchoredLanes(
            devices=VectorizedJartVcm(
                draw.n_samples, base=self._device_base(), overrides=device_overrides
            ),
            env=env,
            aggressor_voltage_v=aggressor_voltage,
            victim_voltage_v=victim_voltage,
            crosstalk_k=draw.values.get("operating.crosstalk_temperature_k"),
            usable=env.usable(aggressor_voltage, victim_voltage),
        )

    # -- vectorized path ---------------------------------------------------

    def _run_vectorized(self, draw: PopulationDraw, conditions: NominalConditions) -> MonteCarloResult:
        inputs = self._anchored_lanes(draw, conditions)
        env = inputs.env
        outcomes = _LaneOutcomes(self, env.ambient_k)
        lanes = np.flatnonzero(inputs.usable)
        if lanes.size:
            sub = inputs.devices.take(lanes)
            ambient = env.ambient_k[lanes]
            # Aggressor→victim coupling, re-solved per sampled cell: a sampled
            # device that runs hotter under the aggressor bias delivers
            # proportionally more crosstalk to its victim.
            aggressor = solve_operating_point_batch(
                sub,
                inputs.aggressor_voltage_v[lanes],
                np.ones(lanes.size),
                ambient_temperature_k=ambient,
                raise_on_failure=False,
            )
            if inputs.crosstalk_k is not None:
                crosstalk = inputs.crosstalk_k[lanes]
            else:
                crosstalk = conditions.coupling_ratio * (aggressor.filament_temperature_k - ambient)
            outcome = pulses_to_switch_batch(
                sub,
                inputs.victim_voltage_v[lanes],
                env.pulse_length_s[lanes],
                np.full(lanes.size, self.montecarlo.x_start),
                env.threshold[lanes],
                duty_cycle=env.duty_cycle[lanes],
                ambient_temperature_k=ambient,
                crosstalk_temperature_k=crosstalk,
                max_pulses=self.attack.max_pulses,
                raise_on_failure=False,
            )
            outcomes.scatter(lanes, outcome, aggressor.converged)
        return self._result(
            MonteCarloResult, "vectorized", conditions, outcomes, weights=draw.weights(), draw=draw
        )

    # -- full-array path ---------------------------------------------------

    def _victim_cells(self, pattern: AttackPattern) -> List[tuple]:
        """Victim cells evaluated per sampled array, in row-major lane order.

        The cells on the aggressors' rows and columns (every cell in
        ``"all"`` mode), minus the aggressors, plus the pattern's victim.
        """
        geometry = self.simulation.geometry
        agg_rows, agg_cols = np.array(pattern.aggressors).T
        mask = np.full((geometry.rows, geometry.columns), self.montecarlo.victim_mode == "all")
        mask[agg_rows, :] = True
        mask[:, agg_cols] = True
        mask[agg_rows, agg_cols] = False
        mask[tuple(pattern.victim)] = True
        rows, cols = np.nonzero(mask)
        return list(zip(rows.tolist(), cols.tolist()))

    def _run_full_array(
        self, n_arrays: int, conditions: NominalConditions, spawn=()
    ) -> FullArrayMonteCarloResult:
        """Re-solve the nodal operating point per sampled array.

        Every sampled array gets per-cell device draws (optionally correlated
        within the die) and its own electro-thermal crossbar solve through
        the batched solver kernel.  The crossbar, netlist and held chain-band
        factor are built once and reused across arrays (the sampled
        parameters are swapped into the solver's batched model in place).
        The victims of all solved arrays are then integrated in one
        vectorized kinetics call, or in several when they stack beyond
        :data:`FULL_ARRAY_LANE_BUDGET` lanes.

        ``attack.*`` distributions are honoured with one draw per sampled
        array (the attack environment — ambient temperature, pulse amplitude,
        length, duty cycle, flip threshold — varies between arrays, not
        between the cells of one array); ``operating.*`` paths remain
        anchored-mode-only because full-array mode derives the operating
        point from each array's own nodal solve.
        """
        cell_paths: List[str] = []
        env_paths: List[str] = []
        for dist in self.sampler.distributions:
            if dist.path.startswith("device."):
                cell_paths.append(dist.path)
            elif dist.path.startswith("attack."):
                if dist.within_die > 0.0:
                    raise MonteCarloError(
                        f"distribution {dist.path!r}: the attack environment is drawn once "
                        "per sampled array; within_die correlation is not applicable"
                    )
                env_paths.append(dist.path)
            else:
                raise MonteCarloError(
                    f"full_array mode derives the operating point from each array's own "
                    f"nodal solve; distribution {dist.path!r} can only be perturbed "
                    "directly through the anchored mode"
                )

        geometry = self.simulation.geometry
        rows, columns = geometry.rows, geometry.columns
        cells = rows * columns
        base = self._device_base()
        nominals = self._nominals(conditions)
        draw = self.sampler.sample_cells(n_arrays, cells, nominals, spawn=spawn, paths=cell_paths)
        env_draw = (
            self.sampler.sample(
                n_arrays, nominals, spawn=(*spawn, "full-array-env"), paths=env_paths
            )
            if env_paths
            else None
        )

        model = SampledArrayJartModel(
            VectorizedJartVcm(cells, base=base, overrides=draw.array_overrides(0)),
            (rows, columns),
        )
        crossbar = CrossbarArray(
            geometry=geometry,
            model=model,
            wires=self.simulation.wires,
            ambient_temperature_k=self.attack.ambient_temperature_k,
        )
        pattern = self._single_phase_pattern(NeuroHammer(crossbar))
        victims = self._victim_cells(pattern)
        n_victims = len(victims)
        victim_rows = np.array([cell[0] for cell in victims])
        victim_cols = np.array([cell[1] for cell in victims])
        lanes = victim_rows * columns + victim_cols
        aggressor_cells = pattern.phases[0].aggressors
        nominal_bias = write_bias(
            geometry,
            aggressor_cells,
            self.attack.pulse.amplitude_v,
            scheme=self.attack.bias_scheme,
        )

        env = self._environment(env_draw, n_arrays)
        usable = env.usable()
        outcomes = _LaneOutcomes(self, np.repeat(env.ambient_k, n_victims))
        array_valid = usable.copy()

        def per_lane(values: np.ndarray, arrays: List[int]) -> np.ndarray:
            """One value per victim lane of ``arrays``, array-major."""
            return np.repeat(values[arrays], n_victims)

        tel = get_telemetry()
        hb = tel.heartbeat
        # Solved arrays whose victims await the next kinetics call, as
        # (index, victim voltages, victim crosstalk temperatures).
        stack: List[tuple] = []

        def integrate_stack() -> None:
            arrays = [index for index, _, _ in stack]
            n = len(arrays) * n_victims
            # Each lane's device is built from its cell's draw: the parameters
            # the array's population kernel holds there.
            kernel = VectorizedJartVcm(
                n, base=base, overrides=draw.array_overrides(np.ix_(arrays, lanes))
            )
            outcome = pulses_to_switch_batch(
                kernel,
                np.concatenate([voltage for _, voltage, _ in stack]),
                per_lane(env.pulse_length_s, arrays),
                np.full(n, self.montecarlo.x_start),
                per_lane(env.threshold, arrays),
                duty_cycle=per_lane(env.duty_cycle, arrays),
                ambient_temperature_k=per_lane(env.ambient_k, arrays),
                crosstalk_temperature_k=np.concatenate([crosstalk for _, _, crosstalk in stack]),
                max_pulses=self.attack.max_pulses,
                raise_on_failure=False,
            )
            stack.clear()
            outcomes.scatter(
                (np.array(arrays)[:, None] * n_victims + np.arange(n_victims)).ravel(), outcome
            )
            if hb is not None:
                hb.update(samples=(arrays[-1] + 1) * n_victims)

        with tel.span("mc.full_array.arrays", n_arrays=n_arrays):
            for index in range(n_arrays):
                if hb is not None:
                    # Array boundary: each iteration is one whole-array
                    # re-solve, the natural progress unit of this mode.
                    hb.update(arrays_done=index)
                if not usable[index]:
                    continue
                if index:  # array 0's population is already bound from construction
                    model.set_population(
                        VectorizedJartVcm(cells, base=base, overrides=draw.array_overrides(index))
                    )
                # This array's attack environment (one draw per sampled array).
                ambient = float(env.ambient_k[index])
                crossbar.ambient_temperature_k = ambient
                crossbar.hub.ambient_temperature_k = ambient
                crossbar.initialise_states(default_x=0.0)
                for aggressor in pattern.aggressors:
                    crossbar.set_state(aggressor, 1.0)
                amplitude = float(env.amplitude_v[index])
                bias = nominal_bias if amplitude == self.attack.pulse.amplitude_v else write_bias(
                    geometry, aggressor_cells, amplitude, scheme=self.attack.bias_scheme
                )
                try:
                    snapshot = crossbar.thermal_snapshot(bias)
                except (ConvergenceError, DeviceModelError):
                    # A pathological sampled array must not abort the population.
                    array_valid[index] = False
                    continue
                stack.append((
                    index,
                    snapshot.operating_point.device_voltages_v[victim_rows, victim_cols],
                    snapshot.crosstalk_temperatures_k[victim_rows, victim_cols],
                ))
                if len(stack) * n_victims >= FULL_ARRAY_LANE_BUDGET:
                    integrate_stack()
            if stack:
                integrate_stack()

        if tel.enabled:
            tel.count("mc.arrays", n_arrays)
            tel.count("mc.invalid_arrays", n_arrays - int(array_valid.sum()))
        if hb is not None:
            hb.update(arrays_done=n_arrays, samples=n_arrays * n_victims)

        return self._result(
            FullArrayMonteCarloResult,
            "full_array",
            conditions,
            outcomes,
            draw=draw,
            n_arrays=n_arrays,
            victims=victims,
            array_valid=array_valid,
            environment_draw=env_draw,
        )

    # -- scalar reference path --------------------------------------------

    def _run_scalar(self, draw: PopulationDraw, conditions: NominalConditions) -> MonteCarloResult:
        """The identical physics, one cell at a time through repro.devices.

        This is the pre-vectorization baseline: it exists to validate the
        batched path element-for-element and to quantify the speedup.  It
        reads the same lane inputs and validity rule as the batched path.
        """
        inputs = self._anchored_lanes(draw, conditions)
        env = inputs.env
        solved: Dict[int, PulseCountResult] = {}
        for index in np.flatnonzero(inputs.usable).tolist():
            model = JartVcmModel(inputs.devices.scalar_parameters(index))
            ambient = float(env.ambient_k[index])
            try:
                aggressor = solve_operating_point(
                    model,
                    float(inputs.aggressor_voltage_v[index]),
                    1.0,
                    ambient_temperature_k=ambient,
                )
                if inputs.crosstalk_k is not None:
                    crosstalk = float(inputs.crosstalk_k[index])
                else:
                    rise = aggressor.filament_temperature_k - ambient
                    crosstalk = conditions.coupling_ratio * rise
                outcome = pulses_to_switch(
                    model,
                    float(inputs.victim_voltage_v[index]),
                    float(env.pulse_length_s[index]),
                    self.montecarlo.x_start,
                    float(env.threshold[index]),
                    duty_cycle=float(env.duty_cycle[index]),
                    ambient_temperature_k=ambient,
                    crosstalk_temperature_k=crosstalk,
                    max_pulses=self.attack.max_pulses,
                )
            except (ConvergenceError, DeviceModelError):
                # Thermal runaway: the cell is excluded, never the population.
                continue
            solved[index] = outcome

        outcomes = _LaneOutcomes(self, env.ambient_k)
        stacked = {
            f.name: np.array([getattr(outcome, f.name) for outcome in solved.values()])
            for f in fields(PulseCountResult)
        }
        outcomes.scatter(
            np.array(list(solved), dtype=np.intp),
            BatchPulseCountResult(**stacked, converged=np.ones(len(solved), dtype=bool)),
        )
        return self._result(
            MonteCarloResult, "scalar", conditions, outcomes, weights=draw.weights(), draw=draw
        )
