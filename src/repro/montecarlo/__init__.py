"""Monte-Carlo variability engine: vectorized cell populations and yield maps.

The paper's figures follow one nominal device; this subsystem asks the
statistical question that decides real-world severity — across
device-to-device and cycle-to-cycle variation, what fraction of victim cells
flips under a given pulse budget?

* :mod:`~repro.montecarlo.sampling` — seeded parameter distributions over
  dotted config paths (``device.activation_energy_ev``,
  ``attack.pulse.length_s``, ...), with importance-sampling tilts,
* :mod:`~repro.montecarlo.vectorized` — NumPy-batched counterparts of the
  scalar device model, electro-thermal solve and switching kinetics,
* :mod:`~repro.montecarlo.estimators` — streaming Wilson/Jeffreys binomial
  estimators, mean estimators and the self-normalized importance estimator,
* :mod:`~repro.montecarlo.adaptive` — sequential (CI-driven) stopping rules,
* :mod:`~repro.montecarlo.engine` — :class:`MonteCarloEngine`, evaluating
  whole sampled populations at once (with a scalar reference path),
* :mod:`~repro.montecarlo.maps` — flip-probability / bit-error-rate maps over
  2-D parameter planes: fixed-n through the campaign runner, or CI-driven
  refinement that spends a global budget along the flip boundary.

Typical use::

    from repro.montecarlo import MonteCarloConfig, MonteCarloEngine

    config = MonteCarloConfig(
        seed=7,
        distributions=[
            {"path": "device.activation_energy_ev", "kind": "normal",
             "mean": 1.0, "sigma": 0.02, "relative": True},
            {"path": "device.series_resistance_ohm", "kind": "normal",
             "mean": 1.0, "sigma": 0.05, "relative": True},
        ],
        adaptive={"target_half_width": 0.02, "batch_size": 128},
    )
    result = MonteCarloEngine(config).run()
    print(result.flip_probability, result.interval(), result.summary())
"""

from .adaptive import AdaptiveConfig, AdaptiveOutcome, AdaptiveSampler
from .engine import (
    FullArrayMonteCarloResult,
    MonteCarloConfig,
    MonteCarloEngine,
    MonteCarloResult,
    NominalConditions,
)
from .estimators import (
    ClusteredBinomialEstimator,
    EstimatorState,
    ImportanceEstimator,
    StreamingBinomialEstimator,
    StreamingMeanEstimator,
    fixed_sample_size,
    jeffreys_interval,
    wilson_interval,
)
from .maps import (
    AdaptiveFlipProbabilityMap,
    FlipProbabilityMap,
    MapAxis,
    flip_probability_map,
    refine_flip_probability_map,
)
from .sampling import (
    ArrayPopulationDraw,
    ImportanceSettings,
    ParameterDistribution,
    PopulationDraw,
    PopulationSampler,
)
from .vectorized import (
    JartArrayModel,
    BatchOperatingPoint,
    BatchPulseCountResult,
    SampledArrayJartModel,
    VectorizedJartVcm,
    pulses_to_switch_batch,
    solve_operating_point_batch,
)

__all__ = [
    "JartArrayModel",
    "SampledArrayJartModel",
    "FullArrayMonteCarloResult",
    "ArrayPopulationDraw",
    "MonteCarloConfig",
    "MonteCarloEngine",
    "MonteCarloResult",
    "NominalConditions",
    "ParameterDistribution",
    "ImportanceSettings",
    "PopulationDraw",
    "PopulationSampler",
    "VectorizedJartVcm",
    "BatchOperatingPoint",
    "BatchPulseCountResult",
    "solve_operating_point_batch",
    "pulses_to_switch_batch",
    "AdaptiveConfig",
    "AdaptiveOutcome",
    "AdaptiveSampler",
    "ClusteredBinomialEstimator",
    "EstimatorState",
    "ImportanceEstimator",
    "StreamingBinomialEstimator",
    "StreamingMeanEstimator",
    "fixed_sample_size",
    "wilson_interval",
    "jeffreys_interval",
    "MapAxis",
    "FlipProbabilityMap",
    "AdaptiveFlipProbabilityMap",
    "flip_probability_map",
    "refine_flip_probability_map",
]
