"""Attack patterns: which cells are hammered and which cell is the victim.

Fig. 3(e-h) of the paper sketches different attack patterns (the preprint
text references them in the caption of Fig. 3d).  This module defines the
canonical patterns used by the reproduction:

* ``single``       — one aggressor next to the victim on the same word line
                     (the pattern used for Fig. 3a-c),
* ``double_row``   — two aggressors flanking the victim on its word line
                     (the ReRAM analogue of double-sided RowHammer),
* ``double_column``— two aggressors flanking the victim on its bit line,
* ``quad``         — four aggressors surrounding the victim (both lines),
* ``row_sweep``    — every other cell of the victim's word line hammered.

A pattern also records how its aggressors can be driven: aggressors that
share only a row *or* only a column can be pulsed simultaneously without
fully selecting unintended cells; mixed patterns must be hammered in an
interleaved (time-multiplexed) fashion, grouped into phases that are
individually safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import CrossbarGeometry
from ..errors import AttackError

Cell = Tuple[int, int]


@dataclass
class HammerPhase:
    """A group of aggressors that are pulsed simultaneously."""

    aggressors: Tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.aggressors:
            raise AttackError("a hammer phase needs at least one aggressor")
        self.aggressors = tuple(tuple(cell) for cell in self.aggressors)


@dataclass
class AttackPattern:
    """A named aggressor/victim layout."""

    name: str
    victim: Cell
    aggressors: Tuple[Cell, ...]
    #: Phases in which the aggressors are hammered; by default each phase is
    #: the largest simultaneous-safe grouping.
    phases: Tuple[HammerPhase, ...] = field(default=())

    def __post_init__(self) -> None:
        self.victim = tuple(self.victim)
        self.aggressors = tuple(tuple(cell) for cell in self.aggressors)
        if not self.aggressors:
            raise AttackError(f"pattern {self.name!r} has no aggressors")
        if self.victim in self.aggressors:
            raise AttackError(f"pattern {self.name!r}: victim cannot be an aggressor")
        if not self.phases:
            self.phases = tuple(HammerPhase((cell,)) for cell in self.aggressors)
        phase_cells = [cell for phase in self.phases for cell in phase.aggressors]
        if sorted(phase_cells) != sorted(self.aggressors):
            raise AttackError(f"pattern {self.name!r}: phases do not cover the aggressors exactly once")

    @property
    def aggressor_count(self) -> int:
        """Number of distinct aggressor cells."""
        return len(self.aggressors)

    @property
    def phase_count(self) -> int:
        """Number of hammer phases per round."""
        return len(self.phases)

    def validate(self, geometry: CrossbarGeometry) -> None:
        """Check the pattern fits the geometry and never full-selects the victim.

        A phase fully selects exactly its selected rows x selected columns,
        so both checks run on that product, not on every cell.
        """
        geometry.validate_cell(*self.victim)
        for cell in self.aggressors:
            geometry.validate_cell(*cell)
        for phase in self.phases:
            rows = sorted({int(cell[0]) for cell in phase.aggressors})
            columns = sorted({int(cell[1]) for cell in phase.aggressors})
            if self.victim[0] in rows and self.victim[1] in columns:
                raise AttackError(
                    f"pattern {self.name!r}: phase {phase.aggressors} fully selects the victim; "
                    "this would be a write, not a disturbance attack"
                )
            unintended = [
                (row, column)
                for row in rows
                for column in columns
                if (row, column) not in phase.aggressors
            ]
            if unintended:
                raise AttackError(
                    f"pattern {self.name!r}: phase {phase.aggressors} fully selects unintended cells "
                    f"{unintended}; split the phase"
                )

    def shares_line_with_victim(self, aggressor: Cell) -> bool:
        """True if the aggressor shares a word or bit line with the victim."""
        return aggressor[0] == self.victim[0] or aggressor[1] == self.victim[1]


def single_aggressor(geometry: CrossbarGeometry, victim: Optional[Cell] = None) -> AttackPattern:
    """One aggressor adjacent to the victim on the same word line.

    This is the paper's default experiment: the aggressor is the centre cell
    and the victim is its nearest neighbour on the same row.
    """
    if victim is None:
        centre = geometry.centre_cell()
        victim = (centre[0], centre[1] + 1) if centre[1] + 1 < geometry.columns else (centre[0], centre[1] - 1)
    victim = tuple(victim)
    geometry.validate_cell(*victim)
    candidates = [(victim[0], victim[1] - 1), (victim[0], victim[1] + 1)]
    aggressor = next(
        (cell for cell in candidates if 0 <= cell[1] < geometry.columns), None
    )
    if aggressor is None:
        raise AttackError("victim has no same-row neighbour for a single-aggressor pattern")
    return AttackPattern(name="single", victim=victim, aggressors=(aggressor,))


def double_sided_row(geometry: CrossbarGeometry, victim: Optional[Cell] = None) -> AttackPattern:
    """Two aggressors flanking the victim on its word line."""
    if victim is None:
        victim = geometry.centre_cell()
    victim = tuple(victim)
    geometry.validate_cell(*victim)
    left = (victim[0], victim[1] - 1)
    right = (victim[0], victim[1] + 1)
    aggressors = [cell for cell in (left, right) if 0 <= cell[1] < geometry.columns]
    if len(aggressors) < 2:
        raise AttackError("victim must have neighbours on both sides of its row")
    return AttackPattern(
        name="double_row",
        victim=victim,
        aggressors=tuple(aggressors),
        phases=(HammerPhase(tuple(aggressors)),),
    )


def double_sided_column(geometry: CrossbarGeometry, victim: Optional[Cell] = None) -> AttackPattern:
    """Two aggressors flanking the victim on its bit line."""
    if victim is None:
        victim = geometry.centre_cell()
    victim = tuple(victim)
    geometry.validate_cell(*victim)
    above = (victim[0] - 1, victim[1])
    below = (victim[0] + 1, victim[1])
    aggressors = [cell for cell in (above, below) if 0 <= cell[0] < geometry.rows]
    if len(aggressors) < 2:
        raise AttackError("victim must have neighbours on both sides of its column")
    return AttackPattern(
        name="double_column",
        victim=victim,
        aggressors=tuple(aggressors),
        phases=(HammerPhase(tuple(aggressors)),),
    )


def quad_surround(geometry: CrossbarGeometry, victim: Optional[Cell] = None) -> AttackPattern:
    """Four aggressors surrounding the victim (both neighbours on both lines).

    The row pair and the column pair are hammered in alternating phases
    because pulsing all four at once would fully select the victim.
    """
    if victim is None:
        victim = geometry.centre_cell()
    victim = tuple(victim)
    geometry.validate_cell(*victim)
    row_pair = [
        cell
        for cell in ((victim[0], victim[1] - 1), (victim[0], victim[1] + 1))
        if 0 <= cell[1] < geometry.columns
    ]
    column_pair = [
        cell
        for cell in ((victim[0] - 1, victim[1]), (victim[0] + 1, victim[1]))
        if 0 <= cell[0] < geometry.rows
    ]
    if len(row_pair) < 2 or len(column_pair) < 2:
        raise AttackError("quad pattern needs a victim with all four neighbours present")
    return AttackPattern(
        name="quad",
        victim=victim,
        aggressors=tuple(row_pair + column_pair),
        phases=(HammerPhase(tuple(row_pair)), HammerPhase(tuple(column_pair))),
    )


def row_sweep(geometry: CrossbarGeometry, victim: Optional[Cell] = None) -> AttackPattern:
    """Hammer every other cell of the victim's word line simultaneously."""
    if victim is None:
        victim = geometry.centre_cell()
    victim = tuple(victim)
    geometry.validate_cell(*victim)
    aggressors = tuple(
        (victim[0], column) for column in range(geometry.columns) if column != victim[1]
    )
    if not aggressors:
        raise AttackError("row sweep needs at least one other cell on the victim's row")
    return AttackPattern(
        name="row_sweep",
        victim=victim,
        aggressors=aggressors,
        phases=(HammerPhase(aggressors),),
    )


def standard_patterns(geometry: CrossbarGeometry, victim: Optional[Cell] = None) -> Dict[str, AttackPattern]:
    """The pattern set evaluated by the Fig. 3d style experiment."""
    patterns = {}
    for factory in (single_aggressor, double_sided_row, double_sided_column, quad_surround, row_sweep):
        try:
            pattern = factory(geometry, victim)
        except AttackError:
            continue
        pattern.validate(geometry)
        patterns[pattern.name] = pattern
    if not patterns:
        raise AttackError("no standard pattern fits this geometry")
    return patterns
