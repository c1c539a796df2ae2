"""Circuit-level crossbar framework (the paper's Virtuoso replacement).

The package models the three blocks of the paper's Fig. 2c: the memristive
crossbar (netlist + nonlinear nodal solver + array object), the memory
controller (init/stimuli handling, read and write-verify operations, pulse
generation) and the crosstalk hub (Eq. 5 temperature aggregation), plus a
transient engine that ties them together in the time domain.
"""

from .controller import MemoryController, ReadResult, StimulusOperation, WriteResult
from .crossbar import CrossbarArray, ThermalSnapshot
from .crosstalk_hub import CrosstalkHub
from .drivers import (
    FULL_SELECTED,
    HALF_SELECTED,
    UNSELECTED,
    BiasPattern,
    classify_cells,
    half_select_voltage,
    half_selected_cells,
    idle_bias,
    read_bias,
    write_bias,
)
from .netlist import GROUND_NODE, CrossbarNetlist, build_crossbar_netlist
from .pulses import (
    PulseTrain,
    RectangularPulse,
    StimulusSchedule,
    StimulusSegment,
    hammer_schedule,
)
from .readout import (
    ReadMargin,
    SneakPathReport,
    read_margin,
    sensed_column_current,
    sneak_path_report,
)
from .reference import ReferenceCrossbarSolver, ReferenceTransientSimulator
from .solver import CrossbarSolver, NodeVoltageMap, OperatingPoint
from .transient import BitFlipEvent, TransientResult, TransientSimulator, TransientTrace

__all__ = [
    "MemoryController",
    "ReadResult",
    "WriteResult",
    "StimulusOperation",
    "CrossbarArray",
    "ThermalSnapshot",
    "CrosstalkHub",
    "BiasPattern",
    "write_bias",
    "read_bias",
    "idle_bias",
    "classify_cells",
    "half_selected_cells",
    "half_select_voltage",
    "FULL_SELECTED",
    "HALF_SELECTED",
    "UNSELECTED",
    "CrossbarNetlist",
    "GROUND_NODE",
    "build_crossbar_netlist",
    "RectangularPulse",
    "PulseTrain",
    "StimulusSchedule",
    "StimulusSegment",
    "hammer_schedule",
    "ReadMargin",
    "SneakPathReport",
    "read_margin",
    "sensed_column_current",
    "sneak_path_report",
    "CrossbarSolver",
    "NodeVoltageMap",
    "OperatingPoint",
    "ReferenceCrossbarSolver",
    "ReferenceTransientSimulator",
    "TransientSimulator",
    "TransientResult",
    "TransientTrace",
    "BitFlipEvent",
]
