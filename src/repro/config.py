"""Configuration dataclasses shared across the simulation stack.

The paper's framework is parameterised through "configuration files and the
standard GUI of the Cadence Virtuoso tool" (Sec. IV-B).  This module provides
the equivalent: plain dataclasses with validation plus JSON round-tripping, so
experiments are reproducible from a single serialisable description.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Type, TypeVar, Union

from .constants import DEFAULT_AMBIENT_TEMPERATURE_K, DEFAULT_SET_VOLTAGE_V
from .errors import ConfigurationError, GeometryError

T = TypeVar("T", bound="JsonConfig")


@dataclass
class JsonConfig:
    """Base class providing dict/JSON round-trip for configuration objects."""

    def to_dict(self) -> Dict[str, Any]:
        """Return the configuration as a plain dictionary."""
        return asdict(self)

    def to_json(self, path: Optional[Union[str, Path]] = None, indent: int = 2) -> str:
        """Serialise to JSON.  If ``path`` is given the JSON is also written there."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
        """Build a configuration from a dictionary, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"{cls.__name__}: unknown configuration keys {sorted(unknown)}"
            )
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls: Type[T], source: Union[str, Path]) -> T:
        """Build a configuration from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (isinstance(source, str) and source.strip().endswith(".json")):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = str(source)
        return cls.from_dict(json.loads(text))


@dataclass
class CrossbarGeometry(JsonConfig):
    """Physical geometry of a passive memristive crossbar.

    The defaults reproduce the paper's setup: a 5x5 crossbar with 50 nm
    electrode spacing and the filament dimensions given in Fig. 2b
    (diameter 30 nm, height 5 nm).
    """

    rows: int = 5
    columns: int = 5
    #: Width of a word/bit line electrode [m].
    electrode_width_m: float = 50e-9
    #: Gap between the electrodes of two adjacent cells [m] (the paper's
    #: "electrode spacing", swept from 10 nm to 90 nm in Fig. 3b).
    electrode_spacing_m: float = 50e-9
    #: Electrode metal thickness [m].
    electrode_thickness_m: float = 20e-9
    #: Thickness of the switching oxide layer between the electrodes [m].
    oxide_thickness_m: float = 5e-9
    #: Thickness of the SiO2 layer between crossbar and substrate [m].
    insulator_thickness_m: float = 100e-9
    #: Thickness of the silicon substrate slab included in the thermal model [m].
    substrate_thickness_m: float = 200e-9
    #: Conductive filament radius [m] (Fig. 2b: diameter 30 nm).
    filament_radius_m: float = 15e-9
    #: Conductive filament height [m] (Fig. 2b: 5 nm).
    filament_height_m: float = 5e-9

    def __post_init__(self) -> None:
        if self.rows < 1 or self.columns < 1:
            raise GeometryError("crossbar must have at least one row and one column")
        positive_fields = (
            "electrode_width_m",
            "electrode_spacing_m",
            "electrode_thickness_m",
            "oxide_thickness_m",
            "insulator_thickness_m",
            "substrate_thickness_m",
            "filament_radius_m",
            "filament_height_m",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0.0:
                raise GeometryError(f"{name} must be positive, got {getattr(self, name)!r}")
        if 2.0 * self.filament_radius_m > self.electrode_width_m:
            raise GeometryError("filament diameter cannot exceed the electrode width")

    @property
    def pitch_m(self) -> float:
        """Centre-to-centre distance between adjacent cells [m]."""
        return self.electrode_width_m + self.electrode_spacing_m

    @property
    def cell_count(self) -> int:
        """Total number of crosspoint devices."""
        return self.rows * self.columns

    def cell_centre(self, row: int, column: int) -> Tuple[float, float]:
        """Return the in-plane (x, y) coordinate of a cell centre [m]."""
        self.validate_cell(row, column)
        x = (column + 0.5) * self.pitch_m
        y = (row + 0.5) * self.pitch_m
        return x, y

    def cell_distance(self, a: Tuple[int, int], b: Tuple[int, int]) -> float:
        """Euclidean centre-to-centre distance between two cells [m]."""
        xa, ya = self.cell_centre(*a)
        xb, yb = self.cell_centre(*b)
        return float(((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5)

    def validate_cell(self, row: int, column: int) -> None:
        """Raise :class:`GeometryError` if (row, column) is outside the array."""
        if not (0 <= row < self.rows and 0 <= column < self.columns):
            raise GeometryError(
                f"cell ({row}, {column}) outside {self.rows}x{self.columns} crossbar"
            )

    def iter_cells(self) -> Iterable[Tuple[int, int]]:
        """Iterate over all (row, column) coordinates in row-major order."""
        for row in range(self.rows):
            for column in range(self.columns):
                yield row, column

    def centre_cell(self) -> Tuple[int, int]:
        """The middle cell of the array — the paper's default aggressor."""
        return self.rows // 2, self.columns // 2


@dataclass
class WireParameters(JsonConfig):
    """Electrical parameters of the word/bit line interconnect."""

    #: Resistance of one wire segment between adjacent crosspoints [Ohm].
    segment_resistance_ohm: float = 2.5
    #: Output resistance of a line driver [Ohm].
    driver_resistance_ohm: float = 50.0

    def __post_init__(self) -> None:
        if self.segment_resistance_ohm < 0.0:
            raise ConfigurationError("segment_resistance_ohm must be non-negative")
        if self.driver_resistance_ohm < 0.0:
            raise ConfigurationError("driver_resistance_ohm must be non-negative")


@dataclass
class ThermalSolverConfig(JsonConfig):
    """Grid resolution of the finite-volume voxel model (:mod:`repro.thermal`)."""

    #: In-plane grid resolution [m].
    lateral_resolution_m: float = 20e-9
    #: Vertical grid resolution [m].
    vertical_resolution_m: float = 20e-9

    def __post_init__(self) -> None:
        if self.lateral_resolution_m <= 0 or self.vertical_resolution_m <= 0:
            raise ConfigurationError("thermal grid resolutions must be positive")


@dataclass
class PulseConfig(JsonConfig):
    """A rectangular write pulse as defined in Sec. III of the paper."""

    amplitude_v: float = DEFAULT_SET_VOLTAGE_V
    length_s: float = 50e-9
    #: Fraction of the period during which the pulse is active.
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.length_s <= 0:
            raise ConfigurationError("pulse length must be positive")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty cycle must be in (0, 1]")

    @property
    def period_s(self) -> float:
        """Full pulse period including the inactive part [s]."""
        return self.length_s / self.duty_cycle

    @property
    def idle_s(self) -> float:
        """Inactive time per period [s]."""
        return self.period_s - self.length_s


#: Names accepted by :attr:`AttackConfig.pattern` (the standard pattern set
#: of :mod:`repro.attack.patterns`).
STANDARD_PATTERN_NAMES = ("single", "double_row", "double_column", "quad", "row_sweep")


@dataclass
class AttackConfig(JsonConfig):
    """Configuration of a NeuroHammer attack campaign."""

    #: Aggressor cells as (row, column) pairs; hammered with the full pulse.
    aggressors: List[Tuple[int, int]] = field(default_factory=lambda: [(2, 2)])
    #: Optional explicit victim cell; by default every half-selected cell is a
    #: potential victim and the first one to flip ends the campaign.
    victim: Optional[Tuple[int, int]] = None
    #: Optional named standard pattern ("single", "double_row", "double_column",
    #: "quad", "row_sweep").  When set, the pattern's aggressor/victim/phase
    #: layout is derived from the crossbar geometry (around ``victim`` if
    #: given) and the ``aggressors`` field is ignored.
    pattern: Optional[str] = None
    pulse: PulseConfig = field(default_factory=PulseConfig)
    #: Write scheme used to bias the array ("v_half" or "v_third").
    bias_scheme: str = "v_half"
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K
    #: Upper bound on hammer pulses before the campaign is declared failed.
    max_pulses: int = 10_000_000
    #: Normalised state threshold above which a victim counts as flipped
    #: (0 = pristine HRS, 1 = full LRS).
    flip_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not self.aggressors:
            raise ConfigurationError("attack needs at least one aggressor cell")
        self.aggressors = [tuple(cell) for cell in self.aggressors]  # type: ignore[assignment]
        if self.victim is not None:
            self.victim = tuple(self.victim)  # type: ignore[assignment]
            if self.pattern is None and self.victim in self.aggressors:
                raise ConfigurationError("victim cell cannot also be an aggressor")
        if isinstance(self.pulse, dict):
            self.pulse = PulseConfig.from_dict(self.pulse)
        if self.pattern is not None and self.pattern not in STANDARD_PATTERN_NAMES:
            raise ConfigurationError(
                f"unknown attack pattern {self.pattern!r}; expected one of {STANDARD_PATTERN_NAMES}"
            )
        if self.bias_scheme not in ("v_half", "v_third"):
            raise ConfigurationError(f"unknown bias scheme {self.bias_scheme!r}")
        if self.ambient_temperature_k <= 0:
            raise ConfigurationError("ambient temperature must be positive")
        if self.max_pulses < 1:
            raise ConfigurationError("max_pulses must be at least 1")
        if not 0.0 < self.flip_threshold < 1.0:
            raise ConfigurationError("flip_threshold must be in (0, 1)")


@dataclass
class SimulationConfig(JsonConfig):
    """The crossbar a campaign job simulates: its geometry and its wires.

    The crosstalk comes from the analytic Eq. 5 coupling of the geometry, so
    no finite-volume setting belongs here; :class:`ThermalSolverConfig` is
    passed to :func:`~repro.thermal.geometry.build_voxel_model` directly.
    """

    geometry: CrossbarGeometry = field(default_factory=CrossbarGeometry)
    wires: WireParameters = field(default_factory=WireParameters)

    def __post_init__(self) -> None:
        if isinstance(self.geometry, dict):
            self.geometry = CrossbarGeometry.from_dict(self.geometry)
        if isinstance(self.wires, dict):
            self.wires = WireParameters.from_dict(self.wires)
