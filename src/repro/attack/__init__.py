"""The NeuroHammer attack: patterns, campaign engines, analysis and scenarios."""

from .analysis import (
    PhaseNarrative,
    minimum_alpha_to_flip,
    narrate_attack,
    switching_rate,
    thermal_acceleration_factor,
)
from .neurohammer import AttackResult, NeuroHammer, PhaseOperatingPoint, hammer_once
from .patterns import (
    AttackPattern,
    HammerPhase,
    double_sided_column,
    double_sided_row,
    quad_surround,
    row_sweep,
    single_aggressor,
    standard_patterns,
)
from .reliability import WorstCaseCornerScenario, YieldScenario
from .rowhammer import (
    AttackComparison,
    DramCellParameters,
    RowHammerModel,
    RowHammerResult,
    compare_attacks,
)
from .scenarios import (
    DenialOfServiceScenario,
    PrivilegeEscalationScenario,
    ScenarioResult,
    ScenarioStep,
)

__all__ = [
    "NeuroHammer",
    "AttackResult",
    "PhaseOperatingPoint",
    "hammer_once",
    "AttackPattern",
    "HammerPhase",
    "single_aggressor",
    "double_sided_row",
    "double_sided_column",
    "quad_surround",
    "row_sweep",
    "standard_patterns",
    "PhaseNarrative",
    "narrate_attack",
    "switching_rate",
    "thermal_acceleration_factor",
    "minimum_alpha_to_flip",
    "RowHammerModel",
    "RowHammerResult",
    "DramCellParameters",
    "AttackComparison",
    "compare_attacks",
    "PrivilegeEscalationScenario",
    "DenialOfServiceScenario",
    "ScenarioResult",
    "ScenarioStep",
    "YieldScenario",
    "WorstCaseCornerScenario",
]
