"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import CrossbarArray, ReferenceCrossbarSolver, write_bias
from repro.config import CrossbarGeometry
from repro.devices import DeviceState, JartVcmModel, LinearIonDriftModel
from repro.memory import AddressMapping, HammingSecDed
from repro.thermal import AnalyticCouplingModel
from repro.utils import ascii_table, format_value, to_csv

MODEL = JartVcmModel()
DRIFT = LinearIonDriftModel()
GEOMETRY = CrossbarGeometry()
COUPLING = AnalyticCouplingModel(GEOMETRY)

states = st.floats(min_value=0.0, max_value=1.0)
temperatures = st.floats(min_value=250.0, max_value=1000.0)
voltages = st.floats(min_value=-1.5, max_value=1.5)
cells = st.tuples(st.integers(0, GEOMETRY.rows - 1), st.integers(0, GEOMETRY.columns - 1))

common_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDeviceProperties:
    @common_settings
    @given(voltage=voltages, x=states, temperature=temperatures)
    def test_current_sign_follows_voltage(self, voltage, x, temperature):
        current = MODEL.current(voltage, DeviceState(x, temperature))
        if voltage > 0:
            assert current >= 0.0
        elif voltage < 0:
            assert current <= 0.0
        else:
            assert current == 0.0

    @common_settings
    @given(voltage=st.floats(min_value=0.01, max_value=1.5), x=states, temperature=temperatures)
    def test_current_bounded_by_ohmic_limit(self, voltage, x, temperature):
        current = MODEL.current(voltage, DeviceState(x, temperature))
        assert current <= voltage / MODEL.ohmic_resistance(x) + 1e-15

    @common_settings
    @given(voltage=st.floats(min_value=0.05, max_value=1.5), x=states, temperature=temperatures)
    def test_state_derivative_direction(self, voltage, x, temperature):
        state = DeviceState(x, temperature)
        set_rate = MODEL.state_derivative(voltage, state)
        reset_rate = MODEL.state_derivative(-voltage, state)
        assert set_rate >= 0.0
        assert reset_rate <= 0.0

    @common_settings
    @given(
        voltage=st.floats(min_value=0.1, max_value=1.0),
        x=st.floats(min_value=0.0, max_value=0.9),
        cold=st.floats(min_value=280.0, max_value=500.0),
        delta=st.floats(min_value=10.0, max_value=300.0),
    )
    def test_set_rate_monotone_in_temperature(self, voltage, x, cold, delta):
        cold_rate = MODEL.state_derivative(voltage, DeviceState(x, cold))
        hot_rate = MODEL.state_derivative(voltage, DeviceState(x, cold + delta))
        assert hot_rate >= cold_rate

    @common_settings
    @given(x=states)
    def test_drift_memristance_within_bounds(self, x):
        resistance = DRIFT.memristance(DeviceState(x))
        assert DRIFT.parameters.r_on_ohm <= resistance <= DRIFT.parameters.r_off_ohm

    @common_settings
    @given(x=st.floats(min_value=-2.0, max_value=3.0))
    def test_clamp_state_idempotent(self, x):
        clamped = MODEL.clamp_state(x)
        assert 0.0 <= clamped <= 1.0
        assert MODEL.clamp_state(clamped) == clamped


class TestSolverDifferential:
    """A fresh array's first solve against the dense reference oracle.

    The sparse solver starts a cold solve with every line at its driver
    voltage, the reference from zeros; both must reach one operating point.
    """

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.integers(min_value=2, max_value=8),
        columns=st.integers(min_value=2, max_value=8),
        scheme=st.sampled_from(["v_half", "v_third"]),
        amplitude=st.floats(min_value=0.5, max_value=1.2),
        ambient=st.floats(min_value=200.0, max_value=400.0),
        data=st.data(),
    )
    def test_cold_operating_point_matches_the_reference(
        self, rows, columns, scheme, amplitude, ambient, data
    ):
        geometry = CrossbarGeometry(rows=rows, columns=columns)
        boundary = [
            cell for cell in geometry.iter_cells()
            if cell[0] in (0, rows - 1) or cell[1] in (0, columns - 1)
        ]
        aggressor = data.draw(st.sampled_from(boundary), label="edge or corner aggressor")
        crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient)
        crossbar.set_state(aggressor, 1.0)
        bias = write_bias(geometry, [aggressor], amplitude, scheme=scheme)
        fast = crossbar.solve_bias(bias)
        reference = ReferenceCrossbarSolver(crossbar.netlist, crossbar.model).solve(
            bias, crossbar.state.as_mapping()
        )
        np.testing.assert_allclose(
            fast.device_voltages_v, reference.device_voltages_v, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            fast.device_currents_a, reference.device_currents_a, rtol=1e-9, atol=1e-15
        )
        nodes = list(reference.node_voltages_v)
        np.testing.assert_allclose(
            [fast.node_voltages_v[name] for name in nodes],
            [reference.node_voltages_v[name] for name in nodes],
            rtol=1e-9,
            atol=1e-12,
        )


    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.integers(min_value=2, max_value=8),
        columns=st.integers(min_value=2, max_value=8),
        scheme=st.sampled_from(["v_half", "v_third"]),
        amplitude=st.floats(min_value=0.5, max_value=1.2),
        rise=st.floats(min_value=20.0, max_value=600.0),
        data=st.data(),
    )
    def test_warm_resolve_at_a_raised_temperature_field_matches_the_reference(
        self, rows, columns, scheme, amplitude, rise, data
    ):
        """The second solve starts from the first one's node voltages, and
        its device kernel calls share one per-solve scratch."""
        geometry = CrossbarGeometry(rows=rows, columns=columns)
        aggressor = data.draw(st.sampled_from(list(geometry.iter_cells())), label="aggressor")
        crossbar = CrossbarArray(geometry=geometry)
        crossbar.set_state(aggressor, 1.0)
        bias = write_bias(geometry, [aggressor], amplitude, scheme=scheme)
        crossbar.solve_bias(bias)
        temperatures = crossbar.state.temperature_k
        temperatures += rise * np.linspace(0.0, 1.0, temperatures.size).reshape(temperatures.shape)
        temperatures[aggressor] += rise
        fast = crossbar.solve_bias(bias)
        reference = ReferenceCrossbarSolver(crossbar.netlist, crossbar.model).solve(
            bias, crossbar.state.as_mapping()
        )
        np.testing.assert_allclose(
            fast.device_voltages_v, reference.device_voltages_v, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            fast.device_currents_a, reference.device_currents_a, rtol=1e-9, atol=1e-15
        )


#: A sampled device and pulse spread for the engine comparison.
ENGINE_SPREAD = [
    {"path": "device.activation_energy_ev", "kind": "normal", "mean": 1.0, "sigma": 0.01,
     "relative": True},
    {"path": "device.series_resistance_ohm", "kind": "normal", "mean": 1.0, "sigma": 0.05,
     "relative": True},
    {"path": "attack.pulse.length_s", "kind": "lognormal", "mean": 50e-9, "sigma": 0.3},
]


class TestEngineDifferential:
    """The vectorized Monte-Carlo engine against its scalar oracle, end to end.

    Both engines draw the same population and take every lane's rates at the
    same quadrature nodes, one through the batched fixed point, the other
    one cell at a time.
    """

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.integers(min_value=3, max_value=7),
        columns=st.integers(min_value=3, max_value=7),
        threshold=st.floats(min_value=0.2, max_value=0.8),
        ambient=st.floats(min_value=250.0, max_value=400.0),
        max_pulses=st.sampled_from([2_000, 200_000, 10_000_000]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_vectorized_engine_matches_the_scalar_engine(
        self, rows, columns, threshold, ambient, max_pulses, seed, data
    ):
        from repro.config import AttackConfig, SimulationConfig
        from repro.montecarlo import MonteCarloConfig, MonteCarloEngine

        row = data.draw(st.sampled_from([0, rows // 2, rows - 1]), label="victim row")
        column = data.draw(st.sampled_from([0, columns // 2, columns - 1]), label="victim column")
        neighbours = [
            (row + dr, column + dc)
            for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0))
            if 0 <= row + dr < rows and 0 <= column + dc < columns
        ]
        aggressor = data.draw(st.sampled_from(neighbours), label="aggressor")
        engine = MonteCarloEngine(
            MonteCarloConfig(n_samples=8, seed=seed, distributions=ENGINE_SPREAD),
            simulation=SimulationConfig.from_dict({"geometry": {"rows": rows, "columns": columns}}),
            attack=AttackConfig(
                aggressors=[aggressor], victim=(row, column), flip_threshold=threshold,
                ambient_temperature_k=ambient, max_pulses=max_pulses,
            ),
        )
        vectorized = engine.run()
        scalar = engine.run(vectorized=False)
        for name in ("valid", "flipped", "pulses"):
            np.testing.assert_array_equal(getattr(vectorized, name), getattr(scalar, name), name)
        valid = scalar.valid
        for name in ("stress_time_s", "wall_clock_s", "final_x", "victim_temperature_k"):
            np.testing.assert_allclose(
                getattr(vectorized, name)[valid], getattr(scalar, name)[valid],
                rtol=1e-9, atol=0.0, err_msg=name,
            )


class TestCouplingProperties:
    @common_settings
    @given(aggressor=cells, victim=cells)
    def test_alpha_in_unit_interval_and_symmetric(self, aggressor, victim):
        alpha = COUPLING.alpha_between(aggressor, victim)
        assert 0.0 <= alpha <= 1.0
        assert alpha == pytest.approx(COUPLING.alpha_between(victim, aggressor))
        if aggressor == victim:
            assert alpha == 1.0

    @common_settings
    @given(aggressor=cells)
    def test_matrix_consistent_with_pairwise(self, aggressor):
        matrix = COUPLING.matrix_for(aggressor)
        for victim in ((0, 0), (2, 3), (4, 4)):
            assert matrix.alpha_of(victim) == pytest.approx(COUPLING.alpha_between(aggressor, victim))


class TestEccProperties:
    CODEC = HammingSecDed(data_bits=32)

    @common_settings
    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, value):
        decoded, result = self.CODEC.decode_int(self.CODEC.encode_int(value))
        assert decoded == value
        assert not result.corrected

    @common_settings
    @given(
        value=st.integers(min_value=0, max_value=2**32 - 1),
        position=st.integers(min_value=0, max_value=32 + 6),
    )
    def test_single_flip_always_corrected(self, value, position):
        codeword = self.CODEC.encode_int(value)
        codeword[position % self.CODEC.codeword_bits] ^= 1
        decoded, result = self.CODEC.decode_int(codeword)
        assert decoded == value
        assert not result.double_error_detected

    @common_settings
    @given(
        value=st.integers(min_value=0, max_value=2**32 - 1),
        positions=st.sets(st.integers(min_value=0, max_value=38), min_size=2, max_size=2),
    )
    def test_double_flip_never_silently_accepted(self, value, positions):
        codeword = self.CODEC.encode_int(value)
        for position in positions:
            codeword[position % self.CODEC.codeword_bits] ^= 1
        decoded, result = self.CODEC.decode_int(codeword)
        assert result.double_error_detected or decoded != value or result.corrected


class TestMappingProperties:
    MAPPING = AddressMapping(rows=32, columns=32, tiles_per_bank=8, banks=2)

    @common_settings
    @given(
        address=st.integers(min_value=0, max_value=32 * 32 // 8 * 8 * 2 - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_mapping_is_bijective(self, address, bit):
        location = self.MAPPING.locate_bit(address, bit)
        assert self.MAPPING.address_of(location) == (address, bit)

    @common_settings
    @given(
        address=st.integers(min_value=0, max_value=32 * 32 // 8 * 8 * 2 - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_adjacency_is_symmetric(self, address, bit):
        location = self.MAPPING.locate_bit(address, bit)
        for neighbour in self.MAPPING.physically_adjacent_bits(location):
            assert location in self.MAPPING.physically_adjacent_bits(neighbour)


class TestGeometryProperties:
    @common_settings
    @given(
        rows=st.integers(min_value=1, max_value=8),
        columns=st.integers(min_value=1, max_value=8),
        spacing_nm=st.floats(min_value=5.0, max_value=200.0),
    )
    def test_pitch_and_distances(self, rows, columns, spacing_nm):
        geometry = CrossbarGeometry(rows=rows, columns=columns, electrode_spacing_m=spacing_nm * 1e-9)
        assert geometry.pitch_m > geometry.electrode_width_m
        assert geometry.cell_count == rows * columns
        first = next(iter(geometry.iter_cells()))
        assert geometry.cell_distance(first, first) == 0.0


class TestReportingProperties:
    @common_settings
    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    min_size=0,
                    max_size=8,
                    alphabet=st.characters(blacklist_categories=("Cs",)),
                ),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_ascii_table_never_crashes_and_has_one_line_per_row(self, rows):
        table = ascii_table(["name", "value"], rows)
        lines = table.splitlines()
        assert len(lines) == len(rows) + 2

    @common_settings
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_format_value_round_trippable(self, value):
        text = format_value(value)
        assert isinstance(text, str) and text
        float(text)  # must parse back as a float

    @common_settings
    @given(cells_text=st.lists(st.text(max_size=12), min_size=1, max_size=5))
    def test_csv_round_trips_through_csv_reader(self, cells_text):
        import csv
        import io

        csv_text = to_csv(["c"] * len(cells_text), [cells_text])
        parsed = list(csv.reader(io.StringIO(csv_text)))
        if cells_text == [""]:
            # A single empty field is indistinguishable from a blank line in
            # CSV; the reader may drop it entirely.
            assert len(parsed) in (1, 2)
        else:
            assert len(parsed) == 2
            assert parsed[1] == [str(cell) for cell in cells_text]
