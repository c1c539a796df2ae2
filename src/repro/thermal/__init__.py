"""Thermal substrate: crossbar electro-thermal simulation and crosstalk coefficients.

This package replaces the paper's COMSOL Multiphysics step.  It voxelises the
crossbar stack, solves the static heat-transfer and current-continuity
equations, extracts the thermal-crosstalk coefficients (alpha values,
Eq. 3/4) and packages them into coupling models consumed by the circuit-level
crosstalk hub (Eq. 5).
"""

from .alpha import AlphaExtractionResult, LinearFit, alpha_dictionary, extract_alpha_values
from .coupling import (
    AlphaMatrix,
    AnalyticCouplingModel,
    AnalyticCouplingParameters,
    CouplingModel,
    ExtractedCouplingModel,
    UniformCouplingModel,
    coupling_from_extraction,
)
from .fdm import HeatSolver, PotentialSolution, TemperatureField
from .geometry import (
    REGION_BOTTOM_ELECTRODE,
    REGION_FILAMENT,
    REGION_INSULATOR,
    REGION_NAMES,
    REGION_OXIDE,
    REGION_SUBSTRATE,
    REGION_TOP_ELECTRODE,
    CrossbarVoxelModel,
    GridAxis,
    build_voxel_model,
)
from .materials import (
    DEFAULT_STACK,
    HAFNIUM_OXIDE,
    PLATINUM,
    SILICON,
    SILICON_DIOXIDE,
    TITANIUM,
    TITANIUM_OXIDE,
    Material,
    MaterialStack,
    filament_material,
)
from .network import ThermalNetworkParameters, ThermalResistanceNetwork

__all__ = [
    "AlphaExtractionResult",
    "LinearFit",
    "alpha_dictionary",
    "extract_alpha_values",
    "AlphaMatrix",
    "AnalyticCouplingModel",
    "AnalyticCouplingParameters",
    "CouplingModel",
    "ExtractedCouplingModel",
    "UniformCouplingModel",
    "coupling_from_extraction",
    "HeatSolver",
    "PotentialSolution",
    "TemperatureField",
    "CrossbarVoxelModel",
    "GridAxis",
    "build_voxel_model",
    "REGION_SUBSTRATE",
    "REGION_INSULATOR",
    "REGION_BOTTOM_ELECTRODE",
    "REGION_OXIDE",
    "REGION_FILAMENT",
    "REGION_TOP_ELECTRODE",
    "REGION_NAMES",
    "Material",
    "MaterialStack",
    "MaterialStack",
    "DEFAULT_STACK",
    "filament_material",
    "SILICON",
    "SILICON_DIOXIDE",
    "HAFNIUM_OXIDE",
    "TITANIUM",
    "TITANIUM_OXIDE",
    "PLATINUM",
    "ThermalNetworkParameters",
    "ThermalResistanceNetwork",
]
