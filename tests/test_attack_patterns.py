"""Tests for the attack pattern definitions."""

from __future__ import annotations

import pytest

from repro.attack import (
    AttackPattern,
    HammerPhase,
    double_sided_column,
    double_sided_row,
    quad_surround,
    row_sweep,
    single_aggressor,
    standard_patterns,
)
from repro.circuit.drivers import FULL_SELECTED, UNSELECTED, classify_cells
from repro.config import CrossbarGeometry, SimulationConfig
from repro.errors import AttackError
from repro.montecarlo import MonteCarloConfig, MonteCarloEngine


class TestPatternFactories:
    def test_single_aggressor_defaults_to_centre(self, paper_geometry):
        pattern = single_aggressor(paper_geometry)
        assert pattern.aggressors == ((2, 2),)
        assert pattern.victim == (2, 3)
        assert pattern.shares_line_with_victim(pattern.aggressors[0])

    def test_double_sided_row_flanks_victim(self, paper_geometry):
        pattern = double_sided_row(paper_geometry)
        assert set(pattern.aggressors) == {(2, 1), (2, 3)}
        assert pattern.victim == (2, 2)
        assert pattern.phase_count == 1

    def test_double_sided_column_flanks_victim(self, paper_geometry):
        pattern = double_sided_column(paper_geometry)
        assert set(pattern.aggressors) == {(1, 2), (3, 2)}
        assert pattern.phase_count == 1

    def test_quad_uses_two_phases(self, paper_geometry):
        pattern = quad_surround(paper_geometry)
        assert pattern.aggressor_count == 4
        assert pattern.phase_count == 2
        for phase in pattern.phases:
            rows = {cell[0] for cell in phase.aggressors}
            columns = {cell[1] for cell in phase.aggressors}
            assert len(rows) == 1 or len(columns) == 1

    def test_row_sweep_covers_whole_row(self, paper_geometry):
        pattern = row_sweep(paper_geometry)
        assert pattern.aggressor_count == paper_geometry.columns - 1
        assert all(cell[0] == pattern.victim[0] for cell in pattern.aggressors)

    def test_standard_patterns_cover_expected_set(self, paper_geometry):
        patterns = standard_patterns(paper_geometry)
        assert set(patterns) == {"single", "double_row", "double_column", "quad", "row_sweep"}

    def test_edge_victim_reduces_pattern_set(self):
        geometry = CrossbarGeometry(rows=3, columns=3)
        patterns = standard_patterns(geometry, victim=(0, 0))
        assert "quad" not in patterns
        assert "single" in patterns

    def test_corner_victim_double_sided_rejected(self, paper_geometry):
        with pytest.raises(AttackError):
            double_sided_row(paper_geometry, victim=(0, 0))


class TestPatternValidation:
    def test_victim_cannot_be_aggressor(self):
        with pytest.raises(AttackError):
            AttackPattern(name="bad", victim=(1, 1), aggressors=((1, 1),))

    def test_phases_must_cover_aggressors(self):
        with pytest.raises(AttackError):
            AttackPattern(
                name="bad",
                victim=(0, 0),
                aggressors=((0, 1), (1, 0)),
                phases=(HammerPhase(((0, 1),)),),
            )

    def test_default_phases_are_one_per_aggressor(self):
        pattern = AttackPattern(name="p", victim=(0, 0), aggressors=((0, 1), (1, 0)))
        assert pattern.phase_count == 2

    def test_validate_rejects_pattern_that_full_selects_victim(self, paper_geometry):
        pattern = AttackPattern(
            name="bad",
            victim=(2, 2),
            aggressors=((2, 1), (1, 2)),
            phases=(HammerPhase(((2, 1), (1, 2))),),
        )
        with pytest.raises(AttackError):
            pattern.validate(paper_geometry)

    def test_validate_rejects_unintended_full_selects(self, paper_geometry):
        pattern = AttackPattern(
            name="bad",
            victim=(0, 4),
            aggressors=((1, 1), (2, 2)),
            phases=(HammerPhase(((1, 1), (2, 2))),),
        )
        with pytest.raises(AttackError):
            pattern.validate(paper_geometry)

    def test_validate_rejects_out_of_range_cells(self, small_geometry):
        from repro.errors import GeometryError

        pattern = AttackPattern(name="p", victim=(0, 0), aggressors=((0, 4),))
        with pytest.raises(GeometryError):
            pattern.validate(small_geometry)

    def test_empty_phase_rejected(self):
        with pytest.raises(AttackError):
            HammerPhase(())


def classified_validation_error(pattern: AttackPattern, geometry: CrossbarGeometry):
    """The cell-by-cell answer: classify every cell for each phase."""
    for phase in pattern.phases:
        classification = classify_cells(geometry, phase.aggressors)
        if classification[pattern.victim] == FULL_SELECTED:
            return (
                f"pattern {pattern.name!r}: phase {phase.aggressors} fully selects the victim; "
                "this would be a write, not a disturbance attack"
            )
        unintended = [
            cell
            for cell, kind in classification.items()
            if kind == FULL_SELECTED and cell not in phase.aggressors
        ]
        if unintended:
            return (
                f"pattern {pattern.name!r}: phase {phase.aggressors} fully selects unintended cells "
                f"{unintended}; split the phase"
            )
    return None


def classified_victims(pattern: AttackPattern, geometry: CrossbarGeometry, mode: str):
    """Row-major victim lanes from the cell-by-cell classification."""
    classification = classify_cells(geometry, pattern.aggressors)
    return [
        cell
        for cell, kind in classification.items()
        if cell == pattern.victim
        or (cell not in pattern.aggressors and (mode == "all" or kind != UNSELECTED))
    ]


def standard_layouts(geometry: CrossbarGeometry):
    """Every standard pattern around every victim, as hammered and with all
    its aggressors pulsed in one phase (quad then full-selects its victim)."""
    factories = (single_aggressor, double_sided_row, double_sided_column, quad_surround, row_sweep)
    for victim in geometry.iter_cells():
        for factory in factories:
            try:
                pattern = factory(geometry, victim)
            except AttackError:
                continue
            yield pattern
            yield AttackPattern(
                name=f"{pattern.name}_one_phase",
                victim=pattern.victim,
                aggressors=pattern.aggressors,
                phases=(HammerPhase(pattern.aggressors),),
            )


def validation_error(pattern: AttackPattern, geometry: CrossbarGeometry):
    try:
        pattern.validate(geometry)
    except AttackError as exc:
        return str(exc)
    return None


class TestSelectionProductMatchesClassification:
    """Validation and the full-array victim lanes read the selected rows x
    columns product; both must give the cell-by-cell classification's answer."""

    GEOMETRIES = [(3, 3), (5, 5), (8, 5)]

    @pytest.mark.parametrize("rows,columns", GEOMETRIES)
    def test_validate_matches_classification(self, rows, columns):
        geometry = CrossbarGeometry(rows=rows, columns=columns)
        rejected = 0
        for pattern in standard_layouts(geometry):
            expected = classified_validation_error(pattern, geometry)
            assert validation_error(pattern, geometry) == expected, pattern
            rejected += expected is not None
        assert rejected > 0

    def test_invalid_multi_row_phase_lists_unintended_cells_row_major(self, paper_geometry):
        pattern = AttackPattern(
            name="bad",
            victim=(0, 4),
            aggressors=((3, 1), (1, 3), (1, 0)),
            phases=(HammerPhase(((3, 1), (1, 3), (1, 0))),),
        )
        expected = classified_validation_error(pattern, paper_geometry)
        assert "[(1, 1), (3, 0), (3, 3)]" in expected
        assert validation_error(pattern, paper_geometry) == expected

    @pytest.mark.parametrize("mode", ["half_selected", "all"])
    @pytest.mark.parametrize("rows,columns", GEOMETRIES)
    def test_full_array_victims_match_classification(self, rows, columns, mode):
        geometry = CrossbarGeometry(rows=rows, columns=columns)
        engine = MonteCarloEngine(
            MonteCarloConfig(mode="full_array", victim_mode=mode),
            simulation=SimulationConfig(geometry={"rows": rows, "columns": columns}),
        )
        for pattern in standard_layouts(geometry):
            victims = engine._victim_cells(pattern)
            assert victims == classified_victims(pattern, geometry, mode), pattern
            assert all(type(index) is int for cell in victims for index in cell)
