"""Monte-Carlo subsystem: sampling, vectorized physics, engine, maps, campaign.

The heart of this suite is the scalar/vectorized agreement property: every
batched function must reproduce the scalar reference element-for-element
within 1e-9 relative tolerance on seeded populations (the acceptance
criterion of the subsystem).  In practice the two paths track each other to
float64 rounding noise (~1e-15) because the batched code mirrors the scalar
control flow per lane.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attack import WorstCaseCornerScenario, YieldScenario
from repro.campaign import CampaignRunner, CampaignSpec
from repro.devices import (
    JartVcmModel,
    JartVcmParameters,
    pulses_to_switch,
    solve_operating_point,
)
from repro.devices.base import DeviceState
from repro.errors import CampaignError, ConvergenceError, DeviceModelError, MonteCarloError
from repro.montecarlo import (
    MapAxis,
    MonteCarloConfig,
    MonteCarloEngine,
    ParameterDistribution,
    PopulationSampler,
    VectorizedJartVcm,
    flip_probability_map,
    pulses_to_switch_batch,
    solve_operating_point_batch,
)
from repro.devices.base import SolveScratch
from repro.devices.kinetics import QUADRATURE_NODES
from repro.montecarlo.vectorized import JartArrayModel, PreparedBias, interface_root
from repro.obs import telemetry_capture
from repro.utils.rng import child_rng, child_seed

RTOL = 1e-9

#: Relative process variation of the validation populations (a few percent,
#: the realistic device-to-device scale).
VARIED_DEVICE_FIELDS = (
    "activation_energy_ev",
    "series_resistance_ohm",
    "set_rate_prefactor_per_s",
    "rth_eff_k_per_w",
    "barrier_height_ev",
)


def sampled_model(seed: int, n: int) -> VectorizedJartVcm:
    """A seeded population with a few percent variation on key parameters."""
    rng = np.random.default_rng(seed)
    from repro.devices import JartVcmParameters

    base = JartVcmParameters()
    overrides = {
        name: getattr(base, name) * rng.normal(1.0, 0.02, n) for name in VARIED_DEVICE_FIELDS
    }
    return VectorizedJartVcm(n, overrides=overrides)


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-30)


class TestRngHelpers:
    def test_child_rng_is_reproducible_and_stream_independent(self):
        assert child_rng(7, "a").uniform() == child_rng(7, "a").uniform()
        assert child_rng(7, "a").uniform() != child_rng(7, "b").uniform()
        assert child_rng(7, "a").uniform() != child_rng(8, "a").uniform()

    def test_child_seed_is_stable_integer(self):
        seed = child_seed(3, "campaign", "random-sweep")
        assert seed == child_seed(3, "campaign", "random-sweep")
        assert 0 <= seed < 2**63
        assert seed != child_seed(3, "campaign", "other")

    def test_string_keys_hash_stably_not_by_builtin_hash(self):
        # Same numbers across processes => cannot rely on salted hash().
        assert child_seed(0, "montecarlo") == child_seed(0, "montecarlo")

    def test_rejects_bool_and_negative_keys(self):
        with pytest.raises(TypeError):
            child_rng(0, True)
        with pytest.raises(ValueError):
            child_rng(0, -1)


class TestSampling:
    def test_unknown_path_rejected(self):
        with pytest.raises(MonteCarloError, match="not a sampleable"):
            ParameterDistribution(path="device.not_a_field", kind="uniform", low=0, high=1)
        with pytest.raises(MonteCarloError, match="rooted"):
            ParameterDistribution(path="nonsense", kind="uniform", low=0, high=1)

    def test_parameter_validation(self):
        with pytest.raises(MonteCarloError):
            ParameterDistribution(path="attack.pulse.length_s", kind="normal", mean=1.0)
        with pytest.raises(MonteCarloError):
            ParameterDistribution(path="attack.pulse.length_s", kind="uniform", low=2.0, high=1.0)
        with pytest.raises(MonteCarloError):
            ParameterDistribution(path="attack.pulse.length_s", kind="gaussian", mean=1, sigma=1)
        with pytest.raises(MonteCarloError, match="lognormal needs a positive mean"):
            ParameterDistribution(path="attack.pulse.length_s", kind="lognormal", mean=-1, sigma=1)

    def test_draws_are_seed_reproducible_and_stream_independent(self):
        dists = [
            ParameterDistribution(path="device.activation_energy_ev", kind="normal", mean=1.2, sigma=0.02),
            ParameterDistribution(path="attack.pulse.length_s", kind="uniform", low=1e-8, high=1e-7),
        ]
        one = PopulationSampler(dists, seed=5).sample(64, {})
        two = PopulationSampler(dists, seed=5).sample(64, {})
        assert np.array_equal(one.values["device.activation_energy_ev"], two.values["device.activation_energy_ev"])
        # Dropping one distribution must not change the other's draws.
        alone = PopulationSampler([dists[0]], seed=5).sample(64, {})
        assert np.array_equal(
            alone.values["device.activation_energy_ev"], one.values["device.activation_energy_ev"]
        )
        other_seed = PopulationSampler(dists, seed=6).sample(64, {})
        assert not np.array_equal(
            other_seed.values["device.activation_energy_ev"], one.values["device.activation_energy_ev"]
        )

    def test_relative_draws_scale_the_nominal(self):
        dist = ParameterDistribution(
            path="device.series_resistance_ohm", kind="normal", mean=1.0, sigma=0.0, relative=True
        )
        draw = PopulationSampler([dist], seed=0).sample(8, {"device.series_resistance_ohm": 650.0})
        assert np.allclose(draw.values["device.series_resistance_ohm"], 650.0)

    def test_relative_draw_without_nominal_rejected(self):
        dist = ParameterDistribution(
            path="device.series_resistance_ohm", kind="normal", mean=1.0, sigma=0.1, relative=True
        )
        with pytest.raises(MonteCarloError, match="relative"):
            PopulationSampler([dist], seed=0).sample(8, {})

    def test_truncation_resamples_within_bounds(self):
        dist = ParameterDistribution(
            path="attack.ambient_temperature_k", kind="normal", mean=300.0, sigma=50.0,
            truncate_low=280.0, truncate_high=320.0,
        )
        values = PopulationSampler([dist], seed=2).sample(512, {}).values["attack.ambient_temperature_k"]
        assert values.min() >= 280.0 and values.max() <= 320.0

    def test_impossible_truncation_raises(self):
        dist = ParameterDistribution(
            path="attack.ambient_temperature_k", kind="normal", mean=300.0, sigma=0.001,
            truncate_low=500.0,
        )
        with pytest.raises(MonteCarloError, match="truncation"):
            PopulationSampler([dist], seed=2).sample(64, {})

    def test_duplicate_paths_rejected(self):
        dist = {"path": "attack.pulse.length_s", "kind": "uniform", "low": 1e-9, "high": 1e-7}
        with pytest.raises(MonteCarloError, match="duplicate"):
            PopulationSampler([dist, dict(dist)], seed=0)


class TestVectorizedModel:
    def test_scalar_parameters_round_trip(self):
        model = sampled_model(seed=1, n=4)
        for lane in range(4):
            params = model.scalar_parameters(lane)
            assert params.activation_energy_ev == model.activation_energy_ev[lane]

    def test_lane_validation_mirrors_scalar(self):
        with pytest.raises(DeviceModelError):
            VectorizedJartVcm(4, overrides={"activation_energy_ev": [1.2, 1.2, -1.0, 1.2]})
        with pytest.raises(DeviceModelError):
            VectorizedJartVcm(4, overrides={"unknown_field": [1.0] * 4})

    def test_current_matches_scalar_model(self):
        model = sampled_model(seed=3, n=32)
        rng = np.random.default_rng(3)
        voltage = rng.uniform(-1.2, 1.2, 32)
        x = rng.uniform(0.0, 1.0, 32)
        temperature = rng.uniform(280.0, 900.0, 32)
        batched = model.current(voltage, x, temperature)
        for lane in range(32):
            scalar = JartVcmModel(model.scalar_parameters(lane))
            from repro.devices import DeviceState

            expected = scalar.current(float(voltage[lane]), DeviceState(float(x[lane]), float(temperature[lane])))
            assert relative_error(batched[lane], expected).max() < RTOL or abs(expected) < 1e-30

    def test_voltage_validity_guard(self):
        model = sampled_model(seed=0, n=2)
        with pytest.raises(DeviceModelError):
            model.current(np.array([0.5, 11.0]), np.zeros(2), np.full(2, 300.0))


def assert_same_lanes(taken: VectorizedJartVcm, direct: VectorizedJartVcm) -> None:
    """Every parameter and lane constant of two kernels is bit-identical."""
    assert taken.n == direct.n
    names = [f.name for f in fields(JartVcmParameters)] + list(VectorizedJartVcm.LANE_CONSTANTS)
    for name in names:
        np.testing.assert_array_equal(getattr(taken, name), getattr(direct, name), err_msg=name)


def taken_directly(model: VectorizedJartVcm, lanes) -> VectorizedJartVcm:
    """A kernel built from scratch with the parameters of the given lanes."""
    overrides = {f.name: getattr(model, f.name)[lanes] for f in fields(JartVcmParameters)}
    return VectorizedJartVcm(len(overrides["series_resistance_ohm"]), overrides=overrides)


def lane_state(obj) -> dict:
    """A copy of everything an object stores, to show that calls store nothing."""
    return {name: np.copy(value) for name, value in vars(obj).items()}


def assert_same_state(after: dict, before: dict) -> None:
    assert after.keys() == before.keys()
    for name, value in before.items():
        np.testing.assert_array_equal(after[name], value, err_msg=name)


class TestPreparedKernel:
    """Lane constants, the prepared-bias Newton and its call-scoped warm start."""

    @pytest.mark.parametrize(
        "lanes",
        [[2, 1, 0], [0, 0, 0], [True, False, True]],
        ids=["permutation", "repeats", "mask"],
    )
    def test_take_returns_the_requested_lanes(self, lanes):
        model = VectorizedJartVcm(
            3,
            overrides={
                "series_resistance_ohm": [600.0, 650.0, 700.0],
                "filament_radius_m": [14e-9, 15e-9, 16e-9],
                "activation_energy_ev": [1.1, 1.2, 1.3],
            },
        )
        taken = model.take(np.asarray(lanes))
        assert taken is not model
        assert_same_lanes(taken, taken_directly(model, np.asarray(lanes)))

    def test_take_of_every_lane_in_order_is_the_identity(self):
        model = sampled_model(seed=2, n=5)
        assert model.take(np.arange(5)) is model
        assert model.take(np.ones(5, dtype=bool)) is model

    def test_lane_constants_after_take_match_a_direct_build(self):
        rng = np.random.default_rng(8)
        n = 16
        base = JartVcmParameters()
        overrides = {
            name: getattr(base, name) * rng.normal(1.0, 0.05, n)
            for name in (
                "filament_radius_m", "disc_length_m", "plug_length_m", "n_plug_per_m3",
                "electron_mobility_m2_per_vs", "series_resistance_ohm", "hop_distance_m",
                "activation_energy_ev", "reset_activation_energy_ev",
            )
        }
        model = VectorizedJartVcm(n, overrides=overrides)
        lanes = rng.permutation(n)[:9]
        assert_same_lanes(model.take(lanes), taken_directly(model, lanes))

    def test_warm_start_below_the_root_converges_to_the_cold_root(self):
        n = 64
        model = sampled_model(seed=6, n=n)
        rng = np.random.default_rng(6)
        prepared = model.prepare(rng.uniform(-1.2, 1.2, n), rng.uniform(0.0, 1.0, n))
        temperature = rng.uniform(250.0, 1000.0, n)
        cold_current, cold_root = prepared.solve(temperature)
        assert (cold_root > 0.0).all()
        for fraction in (0.0, 0.5, 0.9, 0.999):
            current, root = prepared.solve(temperature, start=fraction * cold_root)
            assert relative_error(root, cold_root).max() < 1e-12
            assert relative_error(current, cold_current).max() < 1e-12

    def test_a_lane_root_does_not_depend_on_the_lanes_it_shares_a_call_with(self):
        """Each lane stops its own Newton, so its root is the one it gets alone."""
        n = 64
        model = sampled_model(seed=31, n=n)
        rng = np.random.default_rng(31)
        prepared = model.prepare(rng.uniform(-1.2, 1.2, n), rng.uniform(0.0, 1.0, n))
        temperature = rng.uniform(250.0, 1000.0, n)
        a = prepared.scaled_ohmic * np.exp(-prepared.barrier_k / temperature)
        together, steps = interface_root(a, prepared.scaled_magnitude)
        alone = [interface_root(a[lane:lane + 1], prepared.scaled_magnitude[lane:lane + 1])
                 for lane in range(n)]
        np.testing.assert_array_equal(together, np.concatenate([root for root, _ in alone]))
        # The lanes settle after different step counts; the call runs to the last.
        assert min(count for _, count in alone) < steps == max(count for _, count in alone)

    def test_kinetics_lanes_do_not_depend_on_the_lanes_they_share_a_call_with(self):
        n = 24
        model = sampled_model(seed=13, n=n)
        rng = np.random.default_rng(13)
        voltage = rng.uniform(0.45, 0.6, n)
        crosstalk = rng.uniform(40.0, 90.0, n)

        def kinetics(lanes):
            return pulses_to_switch_batch(
                model.take(lanes), voltage[lanes], 50e-9, 0.0, 0.5,
                crosstalk_temperature_k=crosstalk[lanes], max_pulses=20_000,
            )

        together = kinetics(np.arange(n))
        assert together.flipped.any() and not together.flipped.all()
        halves = [kinetics(np.arange(n)[half::2]) for half in (0, 1)]
        for name in ("flipped", "pulses", "stress_time_s", "final_x", "final_temperature_k"):
            merged = np.empty_like(getattr(together, name))
            merged[0::2], merged[1::2] = getattr(halves[0], name), getattr(halves[1], name)
            np.testing.assert_array_equal(merged, getattr(together, name), err_msg=name)

    def test_results_do_not_depend_on_call_history(self):
        def workload(model):
            op = solve_operating_point_batch(model, 1.05, 1.0, 300.0)
            pulses = pulses_to_switch_batch(
                model, 0.52, 50e-9, 0.0, 0.5, crosstalk_temperature_k=80.0, max_pulses=100_000
            )
            return (
                op.current_a, op.filament_temperature_k, pulses.pulses,
                pulses.stress_time_s, pulses.final_x, pulses.final_temperature_k,
            )

        first = workload(sampled_model(seed=9, n=24))
        model = sampled_model(seed=9, n=24)
        before = lane_state(model)
        solve_operating_point_batch(model, 0.4, 0.3, 350.0, crosstalk_temperature_k=60.0)
        model.current(np.full(24, 0.8), np.full(24, 0.2), np.full(24, 700.0))
        pulses_to_switch_batch(model, 0.6, 20e-9, 0.0, 0.5, max_pulses=1000)
        assert_same_state(lane_state(model), before)
        for fresh, after in zip(first, workload(model)):
            np.testing.assert_array_equal(after, fresh)

    def test_shared_batched_model_does_not_depend_on_call_history(self):
        rng = np.random.default_rng(12)
        shape = (16, 16)
        voltage = rng.uniform(-1.05, 1.05, shape)
        x = rng.uniform(0.0, 1.0, shape)
        temperature = rng.uniform(300.0, 950.0, shape)
        fresh = JartVcmModel().batched().current(voltage, x, temperature)
        shared = JartVcmModel()
        batched = shared.batched()
        before = lane_state(batched.kernel)
        batched.current(voltage * 0.5, 1.0 - x, temperature + 200.0)
        batched.conductance(voltage, x, temperature)
        assert shared.batched() is batched
        assert_same_state(lane_state(batched.kernel), before)
        np.testing.assert_array_equal(batched.current(voltage, x, temperature), fresh)


def interface_sweep():
    """A seeded 2e5-lane sweep over V in [-2.5, 2.5] V, x in [0, 1], T in [250, 1500] K."""
    rng = np.random.default_rng(1)
    n = 200_000
    return rng.uniform(-2.5, 2.5, n), rng.uniform(0.0, 1.0, n), rng.uniform(250.0, 1500.0, n)


class TestInterfaceNewton:
    """The one interface Newton: its stop, its warm start and the nodal scratch."""

    #: Lanes of :func:`interface_sweep` whose Newton steps settle at
    #: 4.02e-16 w and 4.05e-16 w: a stop at 4e-16 w never fired there, and
    #: any call holding such a lane ran to the 80-step cap.
    ROUNDING_FLOOR_LANES = (108078, 176123)

    @staticmethod
    def scaled_bias(state, voltage):
        return np.abs(voltage) / state.interface_voltage_v

    def test_sweep_reaches_no_cap(self):
        voltage, x, temperature = interface_sweep()
        state = VectorizedJartVcm(1).prepare_state(x, temperature)
        _, steps = interface_root(state.a, self.scaled_bias(state, voltage))
        assert steps <= 8

    @pytest.mark.parametrize("lane", ROUNDING_FLOOR_LANES)
    def test_rounding_floor_lanes_stop_and_agree_with_the_scalar_model(self, lane):
        voltage, x, temperature = (values[lane : lane + 1] for values in interface_sweep())
        state = VectorizedJartVcm(1).prepare_state(x, temperature)
        _, steps = interface_root(state.a, self.scaled_bias(state, voltage))
        assert steps <= 8
        current = state.solve(voltage)[0]
        scalar = JartVcmModel().current(
            float(voltage[0]), DeviceState(float(x[0]), float(temperature[0]))
        )
        assert relative_error(current, scalar).max() < 1e-12

    @pytest.mark.parametrize(
        "start",
        [
            lambda root: np.zeros_like(root),
            lambda root: 0.5 * root,
            lambda root: 2.0 * root + 1.0,
            lambda root: root * (1.0 + 1e-12),
        ],
        ids=["zero", "below", "above", "near"],
    )
    def test_warm_start_matches_the_cold_solve(self, start):
        voltage, x, temperature = interface_sweep()
        state = VectorizedJartVcm(1).prepare_state(x, temperature)
        b = self.scaled_bias(state, voltage)
        cold_current, cold_root = state.solve(voltage)
        _, cold_steps = interface_root(state.a, b)
        warm_current, _ = state.solve(voltage, start(cold_root))
        _, warm_steps = interface_root(state.a, b, start(cold_root))
        assert relative_error(warm_current, cold_current).max() < 1e-13
        assert warm_steps <= cold_steps + 1

    @pytest.mark.parametrize("per_cell", [False, True], ids=["nominal", "per-cell"])
    def test_scratch_calls_match_cold_calls(self, per_cell):
        """A solve's successive iterates through one scratch, against cold calls."""
        rng = np.random.default_rng(5)
        shape = (6, 7)
        x = rng.uniform(0.0, 1.0, shape)
        temperature = rng.uniform(300.0, 900.0, shape)
        if per_cell:
            model = JartArrayModel(kernel=sampled_model(seed=5, n=x.size))
        else:
            model = JartVcmModel().batched()
        voltage = rng.uniform(-1.05, 1.05, shape)
        scratch = SolveScratch()
        for scale in (1.0, 1.02, 0.6, 0.6, 1.3):
            iterate = voltage * scale
            current = model.current(iterate, x, temperature, scratch)
            assert current.shape == shape
            assert relative_error(current, model.current(iterate, x, temperature)).max() < 1e-13
            np.testing.assert_allclose(
                model.conductance(iterate, x, temperature, scratch),
                model.conductance(iterate, x, temperature),
                rtol=1e-9,
            )


class TestOperatingPointBatch:
    def test_agrees_with_scalar_within_tolerance(self):
        n = 48
        model = sampled_model(seed=11, n=n)
        rng = np.random.default_rng(11)
        voltage = rng.uniform(0.3, 1.05, n)
        x = rng.uniform(0.0, 1.0, n)
        ambient = rng.uniform(273.0, 373.0, n)
        crosstalk = rng.uniform(0.0, 100.0, n)
        batch = solve_operating_point_batch(model, voltage, x, ambient, crosstalk)
        assert batch.converged.all()
        for lane in range(n):
            scalar = solve_operating_point(
                JartVcmModel(model.scalar_parameters(lane)),
                float(voltage[lane]),
                float(x[lane]),
                float(ambient[lane]),
                float(crosstalk[lane]),
            )
            assert relative_error(batch.filament_temperature_k[lane], scalar.filament_temperature_k).max() < RTOL
            assert relative_error(batch.current_a[lane], scalar.current_a).max() < RTOL
            assert relative_error(batch.power_w[lane], scalar.power_w).max() < RTOL

    def test_self_heating_properties(self):
        model = sampled_model(seed=4, n=8)
        batch = solve_operating_point_batch(model, 1.05, 1.0, 300.0)
        assert (batch.self_heating_k > 100.0).all()
        assert np.allclose(batch.crosstalk_temperature_k, 0.0)

    def test_current_solves_per_lane(self, monkeypatch):
        n = 1024
        lanes = []
        solve = PreparedBias.solve

        def counted(self, temperature_k, start=None):
            lanes.append(temperature_k.size)
            return solve(self, temperature_k, start)

        monkeypatch.setattr(PreparedBias, "solve", counted)
        batch = solve_operating_point_batch(VectorizedJartVcm(n), 1.05, 1.0, 300.0)
        assert batch.converged.all()
        assert sum(lanes) <= 7 * n

    def test_iteration_cap_clears_converged_and_counts(self):
        model = VectorizedJartVcm(2)
        voltage = np.array([0.0, 1.05])
        with telemetry_capture() as tel:
            batch = solve_operating_point_batch(
                model, voltage, 1.0, 300.0, max_iterations=1, raise_on_failure=False
            )
        assert batch.converged.tolist() == [True, False]
        assert tel.counters["thermal.self_heating.unconverged"] == 1
        # The capped lane reports its last solved iterate, T_base, with the
        # current solved there.
        np.testing.assert_array_equal(batch.filament_temperature_k, [300.0, 300.0])
        np.testing.assert_array_equal(
            batch.current_a, model.current(voltage, np.ones(2), np.full(2, 300.0))
        )

    def test_iteration_cap_raises_on_failure(self):
        with pytest.raises(ConvergenceError):
            solve_operating_point_batch(
                VectorizedJartVcm(2), np.array([0.0, 1.05]), 1.0, 300.0,
                max_iterations=1, raise_on_failure=True,
            )


#: A JART parameter set with three fixed points at V = 1.0 V, x = 0.58,
#: T_amb = 404 K: ~421.48 K (stable), ~503.7 K (unstable), ~1442.7 K (stable).
BISTABLE = JartVcmParameters(
    rth_eff_k_per_w=1.11e6,
    series_resistance_ohm=222.0,
    barrier_height_ev=0.475,
    barrier_lowering_ev=0.081,
    interface_voltage_v=0.115,
    filament_radius_m=34e-9,
)


def fixed_point_residual(parameters, voltage, x, ambient, crosstalk):
    """f(T) = T_base + R_th * |V * I(T)| - T on the scalar model's current."""
    model = JartVcmModel(parameters)

    def residual(temperature):
        state = DeviceState(x=x, filament_temperature_k=temperature)
        power = abs(voltage * model.current(voltage, state))
        return ambient + crosstalk + parameters.rth_eff_k_per_w * power - temperature

    return residual


def bisect_root(residual, low, high):
    """The sign change of ``residual`` inside [low, high], to ~1e-10 K."""
    rising = residual(low) < 0.0
    for _ in range(60):
        middle = 0.5 * (low + high)
        if (residual(middle) < 0.0) == rising:
            low = middle
        else:
            high = middle
    return 0.5 * (low + high)


def lowest_fixed_point(parameters, voltage, x, ambient, crosstalk):
    """The lowest root of f, independent of either kernel's iteration.

    f(T_base) >= 0; f is scanned upward in 1 K steps to its first sign
    change, which is then bisected.
    """
    residual = fixed_point_residual(parameters, voltage, x, ambient, crosstalk)
    low = ambient + crosstalk
    while residual(low + 1.0) > 0.0:
        low += 1.0
    return bisect_root(residual, low, low + 1.0)


class TestSelfHeatingAccuracy:
    """Both kernels land on the lowest fixed point within 1e-3 K."""

    CASES = [
        # (parameters, V, x, T_amb, dT_crosstalk)
        (JartVcmParameters(), 1.05, 1.0, 300.0, 0.0),  # Fig. 2a aggressor
        (JartVcmParameters(), 0.525, 0.0, 300.0, 75.0),  # Fig. 3a victim
        (JartVcmParameters(), 0.525, 0.3, 300.0, 75.0),
        (JartVcmParameters(), 0.525, 0.5, 300.0, 75.0),
        (BISTABLE, 1.0, 0.58, 404.0, 0.0),
    ]

    @pytest.mark.parametrize(
        "case", CASES, ids=["fig2a_aggressor", "victim_x0", "victim_x03", "victim_x05", "bistable"]
    )
    def test_both_kernels_match_a_bisected_reference(self, case):
        parameters, voltage, x, ambient, crosstalk = case
        reference = lowest_fixed_point(*case)
        scalar = solve_operating_point(
            JartVcmModel(parameters), voltage, x, ambient, crosstalk_temperature_k=crosstalk
        )
        batch = solve_operating_point_batch(
            VectorizedJartVcm(1, base=parameters), voltage, x, ambient, crosstalk
        )
        assert abs(scalar.filament_temperature_k - reference) < 1e-3
        assert abs(batch.filament_temperature_k[0] - reference) < 1e-3

    def test_fig2a_aggressor_reference(self):
        assert lowest_fixed_point(*self.CASES[0]) == pytest.approx(949.936, abs=1e-3)

    def test_bistable_cell_returns_its_cold_root(self):
        case = self.CASES[-1]
        residual = fixed_point_residual(*case)
        # The fixture really is bistable: two more roots above the cold one.
        unstable = bisect_root(residual, 460.0, 600.0)
        hot = bisect_root(residual, 1000.0, 1500.0)
        assert unstable == pytest.approx(503.7, abs=0.1)
        assert hot == pytest.approx(1442.7, abs=0.1)
        cold = lowest_fixed_point(*case)
        assert cold == pytest.approx(421.48, abs=0.01)
        parameters, voltage, x, ambient, crosstalk = case
        scalar = solve_operating_point(JartVcmModel(parameters), voltage, x, ambient, crosstalk)
        batch = solve_operating_point_batch(
            VectorizedJartVcm(1, base=parameters), voltage, x, ambient, crosstalk
        )
        for temperature in (scalar.filament_temperature_k, batch.filament_temperature_k[0]):
            assert temperature == pytest.approx(cold, abs=1e-3)


class TestKineticsBatch:
    def test_wrong_polarity_never_switches(self):
        model = sampled_model(seed=5, n=4)
        batch = pulses_to_switch_batch(model, -0.5, 50e-9, 0.0, 0.5, max_pulses=1000)
        assert not batch.flipped.any()
        assert (batch.pulses == 1000).all()
        np.testing.assert_allclose(batch.stress_time_s, 1000 * 50e-9, rtol=1e-15)
        assert (batch.final_x == 0.0).all()

    def test_invalid_lane_states_rejected(self):
        model = sampled_model(seed=5, n=2)
        with pytest.raises(DeviceModelError):
            pulses_to_switch_batch(model, 0.5, 50e-9, np.array([0.0, -0.1]), 0.5)
        with pytest.raises(DeviceModelError):
            pulses_to_switch_batch(model, 0.5, 50e-9, 0.0, 1.5)

    def test_one_fixed_point_call_solves_every_lane_at_every_node(self, monkeypatch):
        import repro.montecarlo.vectorized as vectorized

        calls = []
        solve = vectorized.solve_operating_point_batch

        def counted(model, *args, **kwargs):
            calls.append(model.n)
            return solve(model, *args, **kwargs)

        monkeypatch.setattr(vectorized, "solve_operating_point_batch", counted)
        pulses_to_switch_batch(sampled_model(seed=5, n=6), 0.52, 50e-9, 0.0, 0.5,
                               crosstalk_temperature_k=80.0)
        assert calls == [6 * QUADRATURE_NODES]

    def test_pulse_validation(self):
        model = sampled_model(seed=5, n=2)
        with pytest.raises(DeviceModelError):
            pulses_to_switch_batch(model, 0.5, 0.0, 0.0, 0.5)
        with pytest.raises(DeviceModelError):
            pulses_to_switch_batch(model, 0.5, 50e-9, 0.0, 0.5, duty_cycle=1.5)
        with pytest.raises(DeviceModelError):
            pulses_to_switch_batch(model, 0.5, 50e-9, 0.0, 0.5, max_pulses=0)

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        voltage_scale=st.floats(min_value=0.85, max_value=1.15),
        crosstalk=st.floats(min_value=0.0, max_value=110.0),
        pulse_exponent=st.floats(min_value=-8.3, max_value=-7.0),
    )
    def test_property_pulses_agree_with_scalar_reference(
        self, seed, voltage_scale, crosstalk, pulse_exponent
    ):
        """Acceptance property: seeded populations agree within 1e-9 rtol."""
        n = 12
        model = sampled_model(seed=seed, n=n)
        rng = np.random.default_rng(seed)
        voltage = 0.52 * voltage_scale * rng.uniform(0.95, 1.05, n)
        pulse_length = 10.0**pulse_exponent
        batch = pulses_to_switch_batch(
            model, voltage, pulse_length, 0.0, 0.5,
            ambient_temperature_k=300.0, crosstalk_temperature_k=crosstalk,
            max_pulses=100_000,
        )
        for lane in range(n):
            scalar = pulses_to_switch(
                JartVcmModel(model.scalar_parameters(lane)),
                float(voltage[lane]), pulse_length, 0.0, 0.5,
                ambient_temperature_k=300.0, crosstalk_temperature_k=crosstalk,
                max_pulses=100_000,
            )
            assert bool(batch.flipped[lane]) == scalar.flipped
            assert int(batch.pulses[lane]) == scalar.pulses
            assert relative_error(batch.stress_time_s[lane], scalar.stress_time_s).max() < RTOL
            assert relative_error(batch.final_x[lane], scalar.final_x).max() < RTOL
            assert relative_error(batch.final_temperature_k[lane], scalar.final_temperature_k).max() < RTOL


def engine_config(n_samples=32, seed=9, **attack_overrides):
    from repro.config import AttackConfig, SimulationConfig

    montecarlo = MonteCarloConfig(
        n_samples=n_samples,
        seed=seed,
        distributions=[
            {"path": "device.activation_energy_ev", "kind": "normal",
             "mean": 1.0, "sigma": 0.01, "relative": True},
            {"path": "device.series_resistance_ohm", "kind": "normal",
             "mean": 1.0, "sigma": 0.05, "relative": True},
            {"path": "attack.pulse.length_s", "kind": "lognormal", "mean": 50e-9, "sigma": 0.2},
        ],
    )
    simulation = SimulationConfig.from_dict({"geometry": {"rows": 3, "columns": 3}})
    attack = AttackConfig.from_dict(
        {"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 500_000, **attack_overrides}
    )
    return montecarlo, simulation, attack


class TestMonteCarloEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        montecarlo, simulation, attack = engine_config()
        return MonteCarloEngine(montecarlo, simulation=simulation, attack=attack)

    @pytest.fixture(scope="class")
    def vectorized_result(self, engine):
        return engine.run()

    def test_vectorized_and_scalar_paths_agree(self, engine, vectorized_result):
        scalar = engine.run(vectorized=False)
        assert np.array_equal(vectorized_result.flipped, scalar.flipped)
        assert np.array_equal(vectorized_result.pulses, scalar.pulses)
        assert np.array_equal(vectorized_result.valid, scalar.valid)
        assert relative_error(vectorized_result.final_x, scalar.final_x).max() < RTOL
        assert (
            relative_error(
                vectorized_result.victim_temperature_k, scalar.victim_temperature_k
            ).max()
            < RTOL
        )

    def test_same_seed_reproduces_the_population(self, engine, vectorized_result):
        montecarlo, simulation, attack = engine_config()
        again = MonteCarloEngine(montecarlo, simulation=simulation, attack=attack).run()
        assert np.array_equal(again.pulses, vectorized_result.pulses)

    def test_summary_shape(self, vectorized_result):
        summary = vectorized_result.summary()
        assert summary["n_samples"] == 32
        assert 0.0 <= summary["flip_probability"] <= 1.0
        assert summary["valid"] + summary["failed"] == 32
        if summary["flipped"]:
            assert summary["min_pulses_to_flip"] <= summary["p50"] <= summary["max_pulses_to_flip"]

    def test_population_varies_pulse_counts(self, vectorized_result):
        flipped = vectorized_result.pulses_to_flip()
        assert flipped.size > 2
        assert np.unique(flipped).size > 2  # variation actually propagates

    def test_experiment_result_export(self, vectorized_result):
        table = vectorized_result.to_experiment_result(max_rows=8)
        assert len(table.rows) == 8
        assert "summary" in table.metadata and "conditions" in table.metadata

    def test_nominal_conditions_match_circuit_solve(self, engine):
        conditions = engine.nominal_conditions()
        assert 0.0 < conditions.victim_voltage_v < 1.05
        assert conditions.crosstalk_temperature_k > 0.0
        assert 0.0 < conditions.coupling_ratio < 1.0

    def test_pathological_draws_invalidate_lanes_not_the_run(self):
        """A fat-tailed draw outside the model's validity range (e.g. a
        sampled amplitude beyond +-10 V) must flag those lanes invalid
        instead of aborting the whole population — in both engines."""
        from repro.config import AttackConfig, SimulationConfig

        montecarlo = MonteCarloConfig(
            n_samples=16,
            seed=2,
            distributions=[
                {"path": "attack.pulse.amplitude_v", "kind": "normal",
                 "mean": 1.0, "sigma": 8.0, "relative": True},
            ],
        )
        simulation = SimulationConfig.from_dict({"geometry": {"rows": 3, "columns": 3}})
        attack = AttackConfig.from_dict(
            {"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 100_000}
        )
        engine = MonteCarloEngine(montecarlo, simulation=simulation, attack=attack)
        vectorized = engine.run()
        scalar = engine.run(vectorized=False)
        assert not vectorized.valid.all()  # the fat tail must actually hit
        assert np.array_equal(vectorized.valid, scalar.valid)
        assert np.array_equal(vectorized.flipped, scalar.flipped)
        # Invalid lanes are excluded from the statistics, not counted as safe.
        assert vectorized.valid_count == vectorized.summary()["valid"]

    def test_multi_phase_pattern_rejected(self):
        from repro.config import AttackConfig

        montecarlo, simulation, _ = engine_config()
        attack = AttackConfig.from_dict({"pattern": "quad"})
        with pytest.raises(MonteCarloError, match="phases"):
            MonteCarloEngine(montecarlo, attack=attack).nominal_conditions()


class TestMonteCarloCampaign:
    def test_montecarlo_kind_runs_through_the_runner(self, tmp_path):
        spec = CampaignSpec(
            name="mc-sweep",
            kind="montecarlo",
            experiment="montecarlo",
            simulation={"geometry": {"rows": 3, "columns": 3}},
            attack={"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 500_000},
            montecarlo={"n_samples": 8, "seed": 3},
            axes=[{"path": "attack.pulse.length_s", "values": [30e-9, 60e-9]}],
        )
        report = CampaignRunner(spec).run()
        assert all(record.ok for record in report.records)
        assert [r.result["n_samples"] for r in report.records] == [8, 8]
        for record in report.records:
            assert 0.0 <= record.result["flip_probability"] <= 1.0

    def test_montecarlo_section_needs_montecarlo_kind(self):
        with pytest.raises(CampaignError, match="montecarlo"):
            CampaignSpec(name="bad", montecarlo={"n_samples": 8})

    def test_flip_probability_map_grid(self):
        mc_map = flip_probability_map(
            MapAxis(path="attack.pulse.length_s", values=[30e-9, 60e-9]),
            MapAxis(path="attack.ambient_temperature_k", values=[300.0, 340.0]),
            simulation={"geometry": {"rows": 3, "columns": 3}},
            attack={"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 500_000},
            montecarlo={"n_samples": 8, "seed": 3},
        )
        assert mc_map.probabilities.shape == (2, 2)
        assert ((mc_map.probabilities >= 0) & (mc_map.probabilities <= 1)).all()
        assert len(mc_map.result.rows) == 4
        assert "flip probability" in mc_map.to_heatmap()
        # Hotter ambient can only make the attack easier.
        assert (mc_map.probabilities[:, 1] >= mc_map.probabilities[:, 0]).all()

    def test_map_axes_must_differ(self):
        from repro.montecarlo.maps import montecarlo_map_spec

        axis = MapAxis(path="attack.pulse.length_s", values=[30e-9])
        with pytest.raises(MonteCarloError, match="different"):
            montecarlo_map_spec(axis, axis)


class TestReliabilityScenarios:
    def test_yield_scenario_narrates_and_reports_stats(self):
        montecarlo, simulation, attack = engine_config(n_samples=16)
        result = YieldScenario(
            montecarlo, simulation=simulation, attack=attack,
            cells_per_array=64, min_yield=0.5,
        ).run(pulse_budget=1_000_000)
        assert result.name == "yield"
        assert len(result.steps) >= 4
        stats = result.stats
        assert set(stats) >= {"cell_bit_error_rate", "array_yield", "pulse_budget"}
        assert 0.0 <= stats["cell_bit_error_rate"] <= 1.0
        expected = (1.0 - stats["cell_bit_error_rate"]) ** 64
        assert stats["array_yield"] == pytest.approx(expected)
        assert result.success == (stats["array_yield"] >= 0.5)

    def test_tiny_budget_keeps_yield_high(self):
        montecarlo, simulation, attack = engine_config(n_samples=16)
        result = YieldScenario(
            montecarlo, simulation=simulation, attack=attack,
            cells_per_array=64, min_yield=0.99,
        ).run(pulse_budget=1)
        assert result.stats["cells_exposed"] == 0
        assert result.stats["array_yield"] == 1.0
        assert result.success

    def test_worst_case_corner_scenario(self):
        montecarlo, simulation, attack = engine_config(n_samples=16)
        result = WorstCaseCornerScenario(
            montecarlo, simulation=simulation, attack=attack, target_fraction=0.5
        ).run()
        assert result.name == "worst_case_corner"
        assert result.stats["cheapest_pulses"] >= 1
        assert result.stats["pulses_for_target_fraction"] >= result.stats["cheapest_pulses"]

    def test_invalid_arguments_rejected(self):
        from repro.errors import AttackError

        with pytest.raises(AttackError):
            YieldScenario(cells_per_array=0)
        with pytest.raises(AttackError):
            YieldScenario(min_yield=0.0)
        with pytest.raises(AttackError):
            WorstCaseCornerScenario(target_fraction=0.0)
