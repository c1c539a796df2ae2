"""Sparse vectorized nodal solver vs. the legacy dense reference path.

Mirrors the scalar-vs-vectorized harness of ``tests/test_montecarlo.py``:
the array-native :class:`CrossbarSolver` must reproduce the seed
:class:`ReferenceCrossbarSolver` element-for-element — node voltages, device
voltages, device currents and residual behaviour — within 1e-9 relative
tolerance across random geometries, bias patterns and mixed HRS/LRS states,
including successive solves that step against a factor held from earlier
ones.  In practice the two paths track each other to ~1e-13 (dense LU vs.
chord steps on a held chain-band factor); the 1e-9 budget is the acceptance
criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    BiasPattern,
    CrossbarArray,
    CrossbarSolver,
    ReferenceCrossbarSolver,
    build_crossbar_netlist,
    read_bias,
    write_bias,
)
from repro.config import CrossbarGeometry, WireParameters
from repro.devices import (
    DeviceState,
    DeviceStateArrays,
    JartVcmModel,
    LinearIonDriftModel,
    ScalarBatchedModel,
    YakopcicModel,
)
from repro.errors import ConfigurationError, ConvergenceError
from repro.faults import is_retryable
from repro.obs import telemetry_capture

RTOL = 1e-9
#: Absolute floors: node voltages live on ~1 V scales, device currents on
#: ~1e-6..1e-3 A scales; entries near zero are compared against these floors.
ATOL_V = 1e-12
ATOL_A = 1e-15


def random_states(rng: np.random.Generator, geometry: CrossbarGeometry) -> DeviceStateArrays:
    """Mixed HRS/LRS states with randomised temperatures."""
    states = DeviceStateArrays(geometry.rows, geometry.columns)
    states.x[...] = rng.choice([0.0, 1.0, 0.3, 0.8], size=states.shape)
    states.temperature_k[...] = rng.uniform(300.0, 700.0, size=states.shape)
    return states


def random_bias(rng: np.random.Generator, geometry: CrossbarGeometry) -> BiasPattern:
    """Random driven/floating line voltages (floating with 20 % probability)."""

    def line_voltages(count: int):
        voltages = {}
        for i in range(count):
            if rng.uniform() < 0.2:
                voltages[i] = None
            else:
                voltages[i] = float(rng.uniform(-1.2, 1.2))
        return voltages

    return BiasPattern(
        row_voltages_v=line_voltages(geometry.rows),
        column_voltages_v=line_voltages(geometry.columns),
        label="random",
    )


def assert_same_solution(fast, reference):
    """Node voltages, device voltages and device currents agree."""
    np.testing.assert_allclose(
        fast.device_voltages_v, reference.device_voltages_v, rtol=RTOL, atol=ATOL_V
    )
    np.testing.assert_allclose(
        fast.device_currents_a, reference.device_currents_a, rtol=RTOL, atol=ATOL_A
    )
    for name, value in reference.node_voltages_v.items():
        assert fast.node_voltages_v[name] == pytest.approx(value, rel=RTOL, abs=ATOL_V)


def assert_same_operating_point(fast, reference):
    assert_same_solution(fast, reference)
    np.testing.assert_allclose(
        fast.device_powers_w, reference.device_powers_w, rtol=RTOL, atol=ATOL_V * ATOL_A
    )


def counted_solve(solver, bias, states):
    """Solve once; return the operating point and the solve's counters."""
    with telemetry_capture() as tel:
        op = solver.solve(bias, states)
    return op, tel.counters


class TestSparseSolverAgreement:
    def test_property_random_geometries_biases_and_states(self):
        """The headline property: element-for-element agreement on seeded cases."""
        rng = np.random.default_rng(2024)
        model = JartVcmModel()
        for case in range(12):
            rows = int(rng.integers(2, 6))
            columns = int(rng.integers(2, 6))
            geometry = CrossbarGeometry(rows=rows, columns=columns)
            wires = WireParameters(
                segment_resistance_ohm=float(rng.uniform(0.5, 50.0)),
                driver_resistance_ohm=float(rng.uniform(10.0, 500.0)),
            )
            netlist = build_crossbar_netlist(geometry, wires)
            states = random_states(rng, geometry)
            bias = random_bias(rng, geometry)

            fast = CrossbarSolver(netlist, model)
            reference = ReferenceCrossbarSolver(netlist, model)
            fast_op, counters = counted_solve(fast, bias, states)
            ref_op = reference.solve(bias, states)

            assert_same_operating_point(fast_op, ref_op)
            # Chord steps take more, cheaper iterations, but never need more
            # factorizations than full Newton needs iterations.
            assert counters["solver.factorizations"] <= ref_op.iterations, f"case {case}"
            assert fast_op.residual_a < fast.residual_tolerance_a
            assert ref_op.residual_a < reference.residual_tolerance_a

    @pytest.mark.parametrize("model_factory", [JartVcmModel, LinearIonDriftModel, YakopcicModel])
    def test_agreement_across_device_models(self, model_factory):
        rng = np.random.default_rng(7)
        model = model_factory()
        geometry = CrossbarGeometry(rows=4, columns=3)
        netlist = build_crossbar_netlist(geometry)
        states = random_states(rng, geometry)
        if isinstance(model, YakopcicModel):
            # The Yakopcic conduction term vanishes at x = 0 (open circuit);
            # keep every lane at a finite conductance as the model's own
            # hrs_state does.
            states.x[...] = np.maximum(states.x, 0.01)
        bias = write_bias(geometry, [(1, 1)], 1.0)

        fast_op = CrossbarSolver(netlist, model).solve(bias, states)
        ref_op = ReferenceCrossbarSolver(netlist, model).solve(bias, states)
        assert_same_operating_point(fast_op, ref_op)

    def test_chained_solves_on_a_held_factor_agree_with_the_reference(self):
        """One solver, three successive solves, each stepping against the
        factor the earlier ones left: floating lines, then a changed
        driven-line set, then a write bias.  Chord steps contract linearly,
        so this is where a loose stopping rule shows."""
        rng = np.random.default_rng(16)
        model = JartVcmModel()
        geometry = CrossbarGeometry(rows=16, columns=16)
        netlist = build_crossbar_netlist(geometry)
        fast = CrossbarSolver(netlist, model)
        reference = ReferenceCrossbarSolver(netlist, model)

        floating = random_bias(rng, geometry)
        rows = {r: (None if v is None else v * 0.8) for r, v in floating.row_voltages_v.items()}
        rows[0] = 0.3 if rows[0] is None else None
        redriven = BiasPattern(rows, dict(floating.column_voltages_v), label="redriven")
        write = write_bias(geometry, [(7, 9)], 1.05)
        for bias in (floating, redriven, write):
            states = random_states(rng, geometry)
            assert_same_operating_point(
                fast.solve(bias, states), reference.solve(bias, states)
            )

    def test_held_factor_is_reused_until_the_driven_lines_change(self):
        geometry = CrossbarGeometry(rows=16, columns=16)
        netlist = build_crossbar_netlist(geometry)
        solver = CrossbarSolver(netlist, JartVcmModel())
        states = DeviceStateArrays(geometry.rows, geometry.columns)
        states.x[8, 8] = 1.0
        bias = read_bias(geometry, (8, 8))

        _, first = counted_solve(solver, bias, states)
        assert first["solver.factorizations"] >= 1
        _, repeated = counted_solve(solver, bias, states)
        assert repeated["solver.factorizations"] == 0
        assert repeated["solver.triangular_solves"] == repeated["solver.iterations"] >= 1

        rows = dict(bias.row_voltages_v)
        rows[0] = None  # float one more line
        floated = BiasPattern(rows, dict(bias.column_voltages_v), label="floated")
        _, refloated = counted_solve(solver, floated, states)
        assert refloated["solver.factorizations"] == 1

    def test_thermal_snapshot_factors_fewer_times_than_it_solves(self):
        geometry = CrossbarGeometry(rows=16, columns=16)
        crossbar = CrossbarArray(geometry=geometry)
        crossbar.set_state((8, 8), 1.0)
        with telemetry_capture() as tel:
            crossbar.thermal_snapshot(write_bias(geometry, [(8, 8)], 1.05))
        counters = tel.counters
        assert counters["solver.solves"] > 1
        assert 1 <= counters["solver.factorizations"] < counters["solver.solves"]

    @pytest.mark.parametrize("size", [8, 16, 64])
    def test_cold_solve_factors_once(self, size):
        """A fresh solver starts every line at its driver voltage and
        factors once.  The reference starts from zeros; its 64x64 dense
        solve takes ~30 s, so bench_solver_scaling compares that size."""
        geometry = CrossbarGeometry(rows=size, columns=size)
        netlist = build_crossbar_netlist(geometry)
        model = JartVcmModel()
        states = DeviceStateArrays(size, size)
        aggressor = (size // 2, size // 2)
        states.x[aggressor] = 1.0
        bias = write_bias(geometry, [aggressor], 1.05)
        op, counters = counted_solve(CrossbarSolver(netlist, model), bias, states)
        assert counters["solver.factorizations"] == 1
        assert "solver.warm_starts" not in counters
        if size <= 16:
            ref_op = ReferenceCrossbarSolver(netlist, model).solve(bias, states)
            # Powers are not compared: an x = 0 cell near 0 V dissipates
            # ~2e-19 W, and the ~3e-14 V rounding difference between the
            # dense and the sparse LU moves that by ~5e-9 relative, above
            # RTOL over the 1e-27 W floor, whatever the start.
            assert_same_solution(op, ref_op)

    def test_slow_contraction_regime_agrees_with_the_reference(self):
        """Every cell LRS at 400 K on 0.5 Ohm segments: every device couples
        its word line to its bit line at LRS conductance, and the block
        Gauss-Seidel sweeps contract slower the more cells are LRS."""
        geometry = CrossbarGeometry(rows=24, columns=24)
        netlist = build_crossbar_netlist(geometry, WireParameters(segment_resistance_ohm=0.5))
        model = JartVcmModel()
        states = DeviceStateArrays(24, 24, x=1.0, temperature_k=400.0)
        bias = write_bias(geometry, [(12, 12)], 1.05)
        assert_same_operating_point(
            CrossbarSolver(netlist, model).solve(bias, states),
            ReferenceCrossbarSolver(netlist, model).solve(bias, states),
        )

    def test_mostly_floating_lines_sweep_until_the_step_is_accurate(self):
        """With one row and one column driven, the floating lines meet only
        through devices and the block Gauss-Seidel sweeps contract slowly
        (about 0.94 per sweep at 64x64).  Two sweeps per step then make
        every step a poor one and the band is rebuilt at almost every
        iteration; sweeping until the step is accurate keeps the factor."""
        rng = np.random.default_rng(1)
        geometry = CrossbarGeometry(rows=16, columns=16)
        netlist = build_crossbar_netlist(geometry)
        model = JartVcmModel()
        states = DeviceStateArrays(16, 16)
        states.x[...] = rng.choice([0.0, 1.0], size=states.shape)
        bias = BiasPattern(
            {row: (1.05 if row == 8 else None) for row in range(16)},
            {column: (0.0 if column == 8 else None) for column in range(16)},
            label="one line pair driven",
        )
        op, counters = counted_solve(CrossbarSolver(netlist, model), bias, states)
        assert counters["solver.factorizations"] <= 5
        reference = ReferenceCrossbarSolver(netlist, model).solve(bias, states)
        assert_same_operating_point(op, reference)

    def test_iteration_cap_raises_and_the_next_solve_starts_cold(self):
        geometry = CrossbarGeometry(rows=16, columns=16)
        netlist = build_crossbar_netlist(geometry)
        model = JartVcmModel()
        states = DeviceStateArrays(16, 16)
        states.x[8, 8] = 1.0
        bias = write_bias(geometry, [(8, 8)], 1.05)
        solver = CrossbarSolver(netlist, model, max_iterations=2)
        with telemetry_capture() as tel:
            with pytest.raises(ConvergenceError, match="after 2 iterations"):
                solver.solve(bias, states)
        assert tel.counters["solver.failures"] == 1

        solver.max_iterations = 200  # the default
        op, counters = counted_solve(solver, bias, states)
        # The failed iterate is not kept as a warm start.
        assert "solver.warm_starts" not in counters
        # Powers are not compared, as in test_cold_solve_factors_once.
        reference = ReferenceCrossbarSolver(netlist, model).solve(bias, states)
        assert_same_solution(op, reference)

    def test_a_failed_solve_drops_its_held_factor(self, monkeypatch):
        """NaN conductances break the first factor; the solve ends at the first
        non-finite KCL residual, and the next solve factors afresh instead of
        stepping against the broken factor."""
        geometry = CrossbarGeometry(rows=3, columns=3)
        netlist = build_crossbar_netlist(geometry)
        model = JartVcmModel()
        states = DeviceStateArrays(3, 3)
        states.x[1, 1] = 1.0
        bias = write_bias(geometry, [(1, 1)], 1.05)
        solver = CrossbarSolver(netlist, model)
        kernel = model.batched()
        monkeypatch.setattr(
            kernel, "conductance", lambda voltage, *args: np.full(np.shape(voltage), np.nan)
        )
        with telemetry_capture() as tel:
            with pytest.raises(ConvergenceError, match="non-finite KCL residual after 1 "):
                solver.solve(bias, states)
        assert tel.counters["solver.failures"] == 1

        monkeypatch.undo()
        op = solver.solve(bias, states)
        fresh = CrossbarSolver(netlist, model).solve(bias, states)
        np.testing.assert_array_equal(op.device_voltages_v, fresh.device_voltages_v)
        np.testing.assert_array_equal(op.device_currents_a, fresh.device_currents_a)
        assert op.iterations == fresh.iterations

    @pytest.mark.parametrize("amplitude_v", [10.0, -10.0, 9.99999, -9.99999])
    @pytest.mark.parametrize("size", [3, 5])
    def test_drives_at_the_voltage_limit_solve(self, size, amplitude_v):
        """The cold start puts a single aggressor at the full drive, where the
        conductance's finite difference stops its probe at the +-10 V limit."""
        geometry = CrossbarGeometry(rows=size, columns=size)
        netlist = build_crossbar_netlist(geometry)
        model = JartVcmModel()
        states = DeviceStateArrays(size, size)
        aggressor = (size // 2, size // 2)
        states.x[aggressor] = 1.0
        bias = write_bias(geometry, [aggressor], amplitude_v)
        op = CrossbarSolver(netlist, model).solve(bias, states)
        reference = ReferenceCrossbarSolver(netlist, model).solve(bias, states)
        assert_same_operating_point(op, reference)
        assert 9.6 < abs(op.cell_voltage(aggressor)) < 9.8

    def test_an_indefinite_chain_band_raises(self):
        """A -1 S device outweighs the 0.8 S that two default 2.5 Ohm
        segments put on its node's diagonal, so its chain block is
        indefinite: the solve raises a retryable error instead of stepping
        against a broken factor."""

        class NegativeConductanceModel(LinearIonDriftModel):
            def _make_batched(self):  # no native kernel: the loop adapter
                return ScalarBatchedModel(self)

            def conductance(self, voltage_v, state):
                return -1.0

        geometry = CrossbarGeometry(rows=4, columns=4)
        model = NegativeConductanceModel()
        assert isinstance(model.batched(), ScalarBatchedModel)
        solver = CrossbarSolver(build_crossbar_netlist(geometry), model)
        with telemetry_capture() as tel:
            with pytest.raises(ConvergenceError, match="indefinite") as raised:
                solver.solve(write_bias(geometry, [(1, 1)], 1.0), DeviceStateArrays(4, 4))
        assert is_retryable(raised.value)
        assert tel.counters["solver.failures"] == 1
        assert tel.counters["solver.factorizations"] == 0

    def test_state_shape_mismatch_rejected(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        solver = CrossbarSolver(netlist, JartVcmModel())
        wrong = DeviceStateArrays(small_geometry.rows + 1, small_geometry.columns)
        with pytest.raises(ConfigurationError):
            solver.solve(write_bias(small_geometry, [(0, 0)], 0.5), wrong)

    def test_node_voltage_map_behaves_like_the_legacy_dict(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        states = DeviceStateArrays(small_geometry.rows, small_geometry.columns)
        op = CrossbarSolver(netlist, JartVcmModel()).solve(
            write_bias(small_geometry, [(1, 1)], 1.05), states
        )
        assert op.node_voltages_v["gnd"] == 0.0
        assert len(op.node_voltages_v) == netlist.node_count + 1
        assert set(op.node_voltages_v) == set(netlist.nodes) | {"gnd"}
        as_dict = dict(op.node_voltages_v)
        assert as_dict["wl_1_1"] == op.node_voltages_v["wl_1_1"]
        with pytest.raises(KeyError):
            op.node_voltages_v["no_such_node"]

    def test_warm_start_reuses_previous_solution(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        solver = CrossbarSolver(netlist, JartVcmModel())
        states = DeviceStateArrays(small_geometry.rows, small_geometry.columns)
        bias = write_bias(small_geometry, [(1, 1)], 1.05)
        first = solver.solve(bias, states)
        second = solver.solve(bias, states)
        assert second.iterations <= first.iterations
        assert second.cell_voltage((1, 1)) == pytest.approx(first.cell_voltage((1, 1)), abs=1e-6)


class TestBatchedModelKernels:
    """The batched kernels must mirror their scalar models element-for-element."""

    def _grids(self, seed: int):
        rng = np.random.default_rng(seed)
        voltage = rng.uniform(-1.5, 1.5, 64)
        voltage[:4] = [0.0, 1e-6, -1e-6, 1.2]
        x = rng.uniform(0.0, 1.0, 64)
        x[:4] = [0.0, 1.0, 0.5, 0.01]
        temperature = rng.uniform(250.0, 900.0, 64)
        return voltage, x, temperature

    @pytest.mark.parametrize(
        "model_factory", [JartVcmModel, LinearIonDriftModel, YakopcicModel]
    )
    def test_batched_matches_scalar(self, model_factory):
        model = model_factory()
        batched = model.batched()
        voltage, x, temperature = self._grids(11)
        for name in ("current", "conductance", "state_derivative"):
            batch_values = getattr(batched, name)(voltage, x, temperature)
            scalar_values = np.array(
                [
                    getattr(model, name)(float(v), DeviceState(float(xi), float(ti)))
                    for v, xi, ti in zip(voltage, x, temperature)
                ]
            )
            np.testing.assert_allclose(
                batch_values, scalar_values, rtol=RTOL, atol=1e-30, err_msg=name
            )

    def test_batched_kernels_are_cached(self):
        model = JartVcmModel()
        assert model.batched() is model.batched()

    def test_scalar_fallback_adapter_matches_native_kernel(self):
        model = JartVcmModel()
        fallback = ScalarBatchedModel(model)
        native = model.batched()
        voltage, x, temperature = self._grids(23)
        np.testing.assert_allclose(
            fallback.current(voltage, x, temperature),
            native.current(voltage, x, temperature),
            rtol=RTOL,
            atol=1e-30,
        )

    def test_custom_scalar_models_fall_back_to_the_loop_adapter(self):
        class ToyModel(LinearIonDriftModel):
            def _make_batched(self):  # pretend there is no native kernel
                return super(LinearIonDriftModel, self)._make_batched()

        model = ToyModel()
        assert isinstance(model.batched(), ScalarBatchedModel)
        netlist = build_crossbar_netlist(CrossbarGeometry(rows=2, columns=2))
        states = DeviceStateArrays(2, 2)
        op = CrossbarSolver(netlist, model).solve(
            write_bias(CrossbarGeometry(rows=2, columns=2), [(0, 0)], 1.0), states
        )
        ref = ReferenceCrossbarSolver(netlist, LinearIonDriftModel()).solve(
            write_bias(CrossbarGeometry(rows=2, columns=2), [(0, 0)], 1.0), states
        )
        assert_same_operating_point(op, ref)
