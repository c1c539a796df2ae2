"""NeuroHammer reproduction: inducing bit-flips in memristive crossbar memories.

A full Python reproduction of F. Staudigl et al., "NeuroHammer: Inducing
Bit-Flips in Memristive Crossbar Memories" (DATE 2022): the JART-style VCM
device compact model, the electro-thermal crossbar simulation and alpha-value
extraction, the circuit-level crossbar framework with its crosstalk hub and
memory controller, the NeuroHammer attack engine, the Sec. VI attack
scenarios on a ReRAM main-memory substrate, countermeasures, and an
experiment/benchmark harness regenerating every figure of the paper.

Typical entry points::

    from repro import hammer_once
    result = hammer_once(pulse_length_s=50e-9)
    print(result.pulses, result.flipped)

    from repro.experiments import run_fig3a
    print(run_fig3a().to_table())

Large parameter studies go through the campaign engine, which fans a
declarative sweep out over a worker pool and caches every point on disk so
re-runs and interrupted campaigns are incremental::

    from repro import CampaignRunner, CampaignSpec, ResultCache
    spec = CampaignSpec(
        name="pulse-study",
        axes=[{"path": "attack.pulse.length_s",
               "values": [10e-9, 50e-9, 100e-9]}],
    )
    report = CampaignRunner(spec, cache=ResultCache(".repro-cache"), workers=4).run()
    print(report.summary())

The same engine backs the command line: ``python -m repro run-fig 3a`` and
``python -m repro campaign run spec.json --workers 4``.

Statistical (device-to-device / cycle-to-cycle) questions go through the
Monte-Carlo variability engine, which evaluates whole sampled cell
populations through a NumPy-vectorized device model::

    from repro import MonteCarloConfig, MonteCarloEngine
    config = MonteCarloConfig(
        n_samples=2000,
        distributions=[{"path": "device.activation_energy_ev",
                        "kind": "normal", "mean": 1.0, "sigma": 0.02,
                        "relative": True}],
    )
    result = MonteCarloEngine(config).run()
    print(result.flip_probability)

On the command line: ``python -m repro mc run spec.json`` and
``python -m repro mc map spec.json --workers 4``.

Every layer is instrumented with opt-in, dependency-free telemetry
(:mod:`repro.obs`): counters, gauges, log-binned histograms and nested spans
that cost one attribute check when disabled::

    from repro import Telemetry, telemetry_capture
    with telemetry_capture(Telemetry()) as tel:
        MonteCarloEngine(config).run()
    print(tel.snapshot()["counters"]["solver.iterations"])

On the command line: ``python -m repro profile mc run spec.json``.
"""

from .attack import AttackResult, NeuroHammer, WorstCaseCornerScenario, YieldScenario, hammer_once
from .campaign import CampaignReport, CampaignRunner, CampaignSpec, ResultCache, SweepAxis
from .circuit import CrossbarArray, MemoryController
from .config import (
    AttackConfig,
    CrossbarGeometry,
    PulseConfig,
    SimulationConfig,
    ThermalSolverConfig,
    WireParameters,
)
from .devices import DeviceState, JartVcmModel, JartVcmParameters
from .errors import (
    CampaignError,
    CampaignInterrupted,
    FaultInjectionError,
    MonteCarloError,
    ReproError,
    StoreError,
    StoreUnavailableError,
)
from .faults import FaultPlan, RetryPolicy, graceful_shutdown, is_retryable, register_retryable
from .montecarlo import (
    AdaptiveConfig,
    AdaptiveSampler,
    FullArrayMonteCarloResult,
    ImportanceSettings,
    MonteCarloConfig,
    MonteCarloEngine,
    MonteCarloResult,
    ParameterDistribution,
    StreamingBinomialEstimator,
    flip_probability_map,
    refine_flip_probability_map,
)
from .obs import (
    AuditTrail,
    NumericsWatchdog,
    Telemetry,
    build_manifest,
    enable_telemetry,
    disable_telemetry,
    get_telemetry,
    telemetry_capture,
)
from .store import LeaseManager, ResultStore, migrate_legacy_cache
from .thermal import (
    AnalyticCouplingModel,
    HeatSolver,
    build_voxel_model,
    extract_alpha_values,
    make_crosstalk_operator,
)

__version__ = "1.18.0"

__all__ = [
    "__version__",
    "hammer_once",
    "NeuroHammer",
    "AttackResult",
    "CrossbarArray",
    "MemoryController",
    "CrossbarGeometry",
    "WireParameters",
    "ThermalSolverConfig",
    "PulseConfig",
    "AttackConfig",
    "SimulationConfig",
    "JartVcmModel",
    "JartVcmParameters",
    "DeviceState",
    "AnalyticCouplingModel",
    "HeatSolver",
    "build_voxel_model",
    "extract_alpha_values",
    "ReproError",
    "CampaignError",
    "CampaignInterrupted",
    "FaultInjectionError",
    "MonteCarloError",
    "StoreError",
    "StoreUnavailableError",
    "FaultPlan",
    "RetryPolicy",
    "graceful_shutdown",
    "is_retryable",
    "register_retryable",
    "CampaignSpec",
    "SweepAxis",
    "CampaignRunner",
    "CampaignReport",
    "ResultCache",
    "ResultStore",
    "LeaseManager",
    "migrate_legacy_cache",
    "MonteCarloConfig",
    "MonteCarloEngine",
    "MonteCarloResult",
    "FullArrayMonteCarloResult",
    "ParameterDistribution",
    "ImportanceSettings",
    "AdaptiveConfig",
    "AdaptiveSampler",
    "StreamingBinomialEstimator",
    "flip_probability_map",
    "refine_flip_probability_map",
    "make_crosstalk_operator",
    "YieldScenario",
    "WorstCaseCornerScenario",
    "Telemetry",
    "get_telemetry",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_capture",
    "build_manifest",
    "AuditTrail",
    "NumericsWatchdog",
]
