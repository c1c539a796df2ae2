"""Tests of the full-array Monte-Carlo mode.

Covers the per-cell sampler (within-die correlation), the lane-remapped
batched model plugging sampled arrays into the nodal solver, the
``mode="full_array"`` engine (including the zero-variance agreement with the
anchored mode), and the campaign/CLI surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AttackConfig, PulseConfig, SimulationConfig
from repro.errors import DeviceModelError, MonteCarloError
from repro.montecarlo import (
    FullArrayMonteCarloResult,
    MonteCarloConfig,
    MonteCarloEngine,
    ParameterDistribution,
    PopulationSampler,
    SampledArrayJartModel,
    VectorizedJartVcm,
)
from repro.devices import JartVcmModel


def fast_attack(**overrides) -> AttackConfig:
    return AttackConfig(
        pulse=PulseConfig(amplitude_v=1.05, length_s=50e-9),
        max_pulses=200_000,
        **overrides,
    )


def small_simulation() -> SimulationConfig:
    return SimulationConfig(geometry={"rows": 5, "columns": 5})


class TestPerCellSampling:
    def test_sample_cells_shape_and_reproducibility(self):
        dist = ParameterDistribution(
            path="device.activation_energy_ev", kind="normal", mean=1.0, sigma=0.05, relative=True
        )
        sampler = PopulationSampler([dist], seed=42)
        nominals = {"device.activation_energy_ev": 0.8}
        draw = sampler.sample_cells(6, 25, nominals)
        again = sampler.sample_cells(6, 25, nominals)
        values = draw.values["device.activation_energy_ev"]
        assert values.shape == (6, 25)
        np.testing.assert_array_equal(values, again.values["device.activation_energy_ev"])
        # Independent of the anchored per-victim stream.
        anchored = sampler.sample(6 * 25, nominals).values["device.activation_energy_ev"]
        assert not np.allclose(values.ravel(), anchored)

    def test_within_die_one_shares_the_draw_across_cells(self):
        dist = ParameterDistribution(
            path="device.series_resistance_ohm", kind="normal", mean=650.0, sigma=30.0,
            within_die=1.0,
        )
        draw = PopulationSampler([dist], seed=1).sample_cells(4, 9, {})
        values = draw.values["device.series_resistance_ohm"]
        assert np.allclose(values, values[:, :1])  # constant within each array
        assert len(np.unique(values[:, 0])) == 4  # varies between arrays

    def test_array_overrides_take_any_numpy_index(self):
        dist = ParameterDistribution(
            path="device.series_resistance_ohm", kind="normal", mean=650.0, sigma=30.0
        )
        draw = PopulationSampler([dist], seed=1).sample_cells(3, 4, {})
        values = draw.values["device.series_resistance_ohm"]
        one = draw.array_overrides(1)["series_resistance_ohm"]
        np.testing.assert_array_equal(one, values[1])
        picked = draw.array_overrides(np.ix_([2, 0], [3, 1]))["series_resistance_ohm"]
        np.testing.assert_array_equal(
            picked, [values[2, 3], values[2, 1], values[0, 3], values[0, 1]]
        )

    def test_within_die_zero_draws_independent_cells(self):
        dist = ParameterDistribution(
            path="device.series_resistance_ohm", kind="normal", mean=650.0, sigma=30.0
        )
        values = PopulationSampler([dist], seed=1).sample_cells(2, 16, {}).values[
            "device.series_resistance_ohm"
        ]
        assert len(np.unique(values[0])) == 16

    def test_partial_within_die_correlates_cells_of_one_array(self):
        dist = ParameterDistribution(
            path="device.activation_energy_ev", kind="lognormal", mean=1.0, sigma=0.1,
            within_die=0.9,
        )
        values = PopulationSampler([dist], seed=3).sample_cells(200, 2, {}).values[
            "device.activation_energy_ev"
        ]
        logs = np.log(values)
        correlation = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
        assert correlation > 0.7  # expectation 0.9, loose bound for n=200

    def test_truncation_respected_per_cell(self):
        dist = ParameterDistribution(
            path="device.activation_energy_ev", kind="normal", mean=1.0, sigma=0.2,
            truncate_low=0.9, truncate_high=1.1, within_die=0.5,
        )
        values = PopulationSampler([dist], seed=4).sample_cells(8, 16, {}).values[
            "device.activation_energy_ev"
        ]
        assert float(values.min()) >= 0.9
        assert float(values.max()) <= 1.1

    def test_uniform_with_within_die_rejected(self):
        with pytest.raises(MonteCarloError):
            ParameterDistribution(
                path="device.activation_energy_ev", kind="uniform", low=0.9, high=1.1,
                within_die=0.5,
            )

    def test_within_die_bounds_validated(self):
        with pytest.raises(MonteCarloError):
            ParameterDistribution(
                path="device.activation_energy_ev", kind="normal", mean=1.0, sigma=0.1,
                within_die=1.5,
            )


class TestSampledArrayModel:
    def test_lane_count_must_match_geometry(self):
        kernel = VectorizedJartVcm(9)
        with pytest.raises(DeviceModelError):
            SampledArrayJartModel(kernel, (5, 5))

    def test_batched_lane_remap_matches_per_lane_kernel(self):
        rng = np.random.default_rng(0)
        n = 12
        overrides = {"series_resistance_ohm": rng.uniform(550.0, 750.0, n)}
        kernel = VectorizedJartVcm(n, overrides=overrides)
        model = SampledArrayJartModel(kernel, (3, 4))
        batched = model.batched()
        voltages = rng.uniform(-1.0, 1.0, (3, 4))
        x = rng.uniform(0.0, 1.0, (3, 4))
        t = np.full((3, 4), 300.0)
        out = batched.current(voltages, x, t)
        assert out.shape == (3, 4)
        direct = kernel.current(voltages.ravel(), x.ravel(), t.ravel())
        np.testing.assert_allclose(out.ravel(), direct, rtol=0, atol=0)

    def test_flat_solver_order_equals_row_major_lanes(self):
        kernel = VectorizedJartVcm(6)
        model = SampledArrayJartModel(kernel, (2, 3))
        flat = model.batched().current(np.full(6, 0.5), np.zeros(6), np.full(6, 300.0))
        shaped = model.batched().current(
            np.full((2, 3), 0.5), np.zeros((2, 3)), np.full((2, 3), 300.0)
        )
        np.testing.assert_array_equal(flat, shaped.ravel())

    def test_wrong_input_size_rejected(self):
        model = SampledArrayJartModel(VectorizedJartVcm(6), (2, 3))
        with pytest.raises(DeviceModelError):
            model.batched().current(np.full(5, 0.5), np.zeros(5), np.full(5, 300.0))

    def test_scalar_entry_points_unavailable(self):
        model = SampledArrayJartModel(VectorizedJartVcm(4), (2, 2))
        with pytest.raises(DeviceModelError):
            model.current(0.5, None)
        with pytest.raises(DeviceModelError):
            model.state_derivative(0.5, None)

    def test_set_population_swaps_lanes_in_place(self):
        model = SampledArrayJartModel(VectorizedJartVcm(4), (2, 2))
        batched = model.batched()
        replacement = VectorizedJartVcm(
            4, overrides={"series_resistance_ohm": np.full(4, 900.0)}
        )
        model.set_population(replacement)
        assert batched.kernel is replacement
        with pytest.raises(DeviceModelError):
            model.set_population(VectorizedJartVcm(9))

    def test_thermal_resistance_is_a_per_cell_map(self):
        rth = np.linspace(1e6, 3e6, 4)
        model = SampledArrayJartModel(
            VectorizedJartVcm(4, overrides={"rth_eff_k_per_w": rth}), (2, 2)
        )
        np.testing.assert_allclose(model.thermal_resistance_k_per_w(), rth.reshape(2, 2))


class TestFullArrayEngine:
    def test_zero_variance_limit_agrees_with_anchored_mode(self):
        """Acceptance bar: with no sampled variation, every sampled array's
        pattern victim reproduces the anchored mode exactly."""
        anchored = MonteCarloEngine(
            MonteCarloConfig(n_samples=3, seed=5),
            simulation=small_simulation(),
            attack=fast_attack(),
        ).run()
        full = MonteCarloEngine(
            MonteCarloConfig(n_samples=3, seed=5, mode="full_array"),
            simulation=small_simulation(),
            attack=fast_attack(),
        ).run()
        assert isinstance(full, FullArrayMonteCarloResult)
        assert full.n_arrays == 3
        lane = full.victim_lane((2, 3))
        per_array_pulses = full.pulses.reshape(3, -1)[:, lane]
        per_array_flipped = full.flipped.reshape(3, -1)[:, lane]
        np.testing.assert_array_equal(per_array_pulses, anchored.pulses)
        np.testing.assert_array_equal(per_array_flipped, anchored.flipped)

    def test_sampled_arrays_vary_the_outcomes(self):
        config = MonteCarloConfig(
            n_samples=4,
            seed=7,
            mode="full_array",
            distributions=[
                {"path": "device.activation_energy_ev", "kind": "normal",
                 "mean": 1.0, "sigma": 0.02, "relative": True, "within_die": 0.3},
            ],
        )
        result = MonteCarloEngine(
            config, simulation=small_simulation(), attack=fast_attack()
        ).run()
        lane = result.victim_lane((2, 3))
        victim_pulses = result.pulses.reshape(result.n_arrays, -1)[:, lane]
        assert len(np.unique(victim_pulses)) > 1

    def test_multiple_victims_evaluated_per_array(self):
        result = MonteCarloEngine(
            MonteCarloConfig(n_samples=2, seed=1, mode="full_array"),
            simulation=small_simulation(),
            attack=fast_attack(),
        ).run()
        # v_half single-aggressor at (2,2): victims share row 2 or column 2.
        assert result.victims_per_array == 8
        assert (2, 3) in result.victims
        assert (0, 2) in result.victims
        assert (2, 2) not in result.victims
        summary = result.summary()
        assert summary["mode"] == "full_array"
        assert summary["n_arrays"] == 2
        assert summary["victims_per_array"] == 8
        assert 0.0 <= summary["array_flip_probability"] <= 1.0

    def test_victim_mode_all_covers_every_non_aggressor_cell(self):
        result = MonteCarloEngine(
            MonteCarloConfig(n_samples=1, seed=1, mode="full_array", victim_mode="all"),
            simulation=small_simulation(),
            attack=fast_attack(),
        ).run()
        assert result.victims_per_array == 24

    def test_operating_distributions_rejected_in_full_array_mode(self):
        """operating.* paths stay anchored-only: full-array mode derives the
        operating point from each sampled array's own nodal solve."""
        config = MonteCarloConfig(
            n_samples=2,
            mode="full_array",
            distributions=[
                {"path": "operating.victim_voltage_v", "kind": "normal", "mean": 0.6,
                 "sigma": 0.05},
            ],
        )
        engine = MonteCarloEngine(config, simulation=small_simulation(), attack=fast_attack())
        with pytest.raises(MonteCarloError, match="anchored"):
            engine.run()

    def test_environment_sampled_per_array(self):
        """attack.* distributions draw once per sampled array (PR 4 leftover:
        full_array used to reject them outright)."""
        config = MonteCarloConfig(
            n_samples=4,
            seed=11,
            mode="full_array",
            distributions=[
                {"path": "device.series_resistance_ohm", "kind": "normal",
                 "mean": 1.0, "sigma": 0.03, "relative": True},
                {"path": "attack.ambient_temperature_k", "kind": "normal",
                 "mean": 300.0, "sigma": 15.0},
                {"path": "attack.pulse.amplitude_v", "kind": "normal",
                 "mean": 1.0, "sigma": 0.03, "relative": True},
            ],
        )
        result = MonteCarloEngine(config, simulation=small_simulation(), attack=fast_attack()).run()
        assert isinstance(result, FullArrayMonteCarloResult)
        env = result.environment_draw
        assert env is not None
        ambients = env.values["attack.ambient_temperature_k"]
        assert ambients.shape == (4,)
        assert len(np.unique(ambients)) == 4  # one independent draw per array
        # Each valid array's victim lanes sit at (or above) its own sampled
        # ambient, not the nominal one.
        per_lane = result.victim_temperature_k.reshape(4, -1)
        for index in range(4):
            if result.array_valid[index]:
                assert per_lane[index].min() >= ambients[index] - 1e-9

    def test_zero_sigma_environment_matches_unsampled_run(self):
        """A zero-variance environment distribution must not change results."""
        base = dict(n_samples=3, seed=4, mode="full_array", victim_mode="half_selected")
        plain = MonteCarloEngine(
            MonteCarloConfig(**base), simulation=small_simulation(), attack=fast_attack()
        ).run()
        degenerate = MonteCarloEngine(
            MonteCarloConfig(
                **base,
                distributions=[
                    {"path": "attack.ambient_temperature_k", "kind": "normal",
                     "mean": 300.0, "sigma": 0.0},
                ],
            ),
            simulation=small_simulation(),
            attack=fast_attack(),
        ).run()
        np.testing.assert_array_equal(plain.flipped, degenerate.flipped)
        np.testing.assert_array_equal(plain.pulses, degenerate.pulses)

    def test_environment_within_die_is_rejected(self):
        config = MonteCarloConfig(
            n_samples=2,
            mode="full_array",
            distributions=[
                {"path": "attack.ambient_temperature_k", "kind": "normal",
                 "mean": 300.0, "sigma": 10.0, "within_die": 0.5},
            ],
        )
        engine = MonteCarloEngine(config, simulation=small_simulation(), attack=fast_attack())
        with pytest.raises(MonteCarloError, match="per sampled array"):
            engine.run()

    def test_pathological_environment_draw_excludes_only_that_array(self):
        """An ambient draw at/below 0 K invalidates its array, not the run."""
        config = MonteCarloConfig(
            n_samples=6,
            seed=0,
            mode="full_array",
            distributions=[
                {"path": "attack.ambient_temperature_k", "kind": "normal",
                 "mean": 150.0, "sigma": 200.0},
            ],
        )
        result = MonteCarloEngine(
            config, simulation=small_simulation(), attack=fast_attack()
        ).run()
        draws = result.environment_draw.values["attack.ambient_temperature_k"]
        bad = draws <= 0.0
        assert bad.any()  # the scenario actually exercises the guard
        assert not result.array_valid[bad].any()
        assert result.array_valid[~bad].all()

    def test_within_die_rejected_in_anchored_mode(self):
        """Anchored per-victim draws cannot honour within-die correlation; the
        engine must say so instead of silently dropping it."""
        config = MonteCarloConfig(
            n_samples=4,
            distributions=[
                {"path": "device.activation_energy_ev", "kind": "normal",
                 "mean": 1.0, "sigma": 0.02, "relative": True, "within_die": 0.3},
            ],
        )
        engine = MonteCarloEngine(config, simulation=small_simulation(), attack=fast_attack())
        with pytest.raises(MonteCarloError, match="within-die"):
            engine.run()

    def test_full_array_has_no_scalar_path(self):
        engine = MonteCarloEngine(
            MonteCarloConfig(n_samples=1, mode="full_array"),
            simulation=small_simulation(),
            attack=fast_attack(),
        )
        with pytest.raises(MonteCarloError):
            engine.run(vectorized=False)

    def test_mode_validated(self):
        with pytest.raises(MonteCarloError):
            MonteCarloConfig(mode="per_wafer")
        with pytest.raises(MonteCarloError):
            MonteCarloConfig(victim_mode="some")

    def test_json_round_trip_keeps_mode(self):
        config = MonteCarloConfig(n_samples=2, mode="full_array", victim_mode="all")
        rebuilt = MonteCarloConfig.from_dict(config.to_dict())
        assert rebuilt.mode == "full_array"
        assert rebuilt.victim_mode == "all"


#: The per-cell device spread of the full-array benchmark.
DEVICE_SPREAD = [
    {"path": "device.activation_energy_ev", "kind": "normal", "mean": 1.0, "sigma": 0.02,
     "relative": True, "within_die": 0.3},
    {"path": "device.series_resistance_ohm", "kind": "normal", "mean": 1.0, "sigma": 0.05,
     "relative": True},
]

LANE_FIELDS = ("flipped", "pulses", "stress_time_s", "wall_clock_s", "final_x",
               "victim_temperature_k", "valid")


def spread_engine(seed: int = 3, distributions=()) -> MonteCarloEngine:
    config = MonteCarloConfig(
        n_samples=2, seed=seed, mode="full_array",
        distributions=DEVICE_SPREAD + list(distributions),
    )
    return MonteCarloEngine(config, simulation=small_simulation(), attack=fast_attack())


def assert_same_batch(a: FullArrayMonteCarloResult, b: FullArrayMonteCarloResult) -> None:
    for name in LANE_FIELDS + ("array_valid",):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestStackedKinetics:
    """One kinetics call per full-array batch, split at the lane budget."""

    def test_batch_integrates_its_arrays_in_one_kinetics_call(self, monkeypatch):
        import repro.montecarlo.engine as engine_module

        calls = []
        kinetics = engine_module.pulses_to_switch_batch

        def counted(*args, **kwargs):
            calls.append(args[0].n)
            return kinetics(*args, **kwargs)

        # Each array draws its own ambient, so a lane must get its array's.
        environment = [{"path": "attack.ambient_temperature_k", "kind": "normal",
                        "mean": 300.0, "sigma": 5.0}]
        monkeypatch.setattr(engine_module, "pulses_to_switch_batch", counted)
        stacked = spread_engine(distributions=environment).run_batch(3, 0)
        assert calls == [3 * stacked.victims_per_array]

        calls.clear()
        monkeypatch.setattr(engine_module, "FULL_ARRAY_LANE_BUDGET", stacked.victims_per_array)
        flushed = spread_engine(distributions=environment).run_batch(3, 0)
        assert calls == [stacked.victims_per_array] * 3
        # Every lane stops its own Newton and fixed point, and the quadrature
        # sums run lane-wise: a lane does not depend on its call's other lanes.
        assert_same_batch(stacked, flushed)

    def test_batch_depends_on_seed_and_index_alone(self):
        fresh = spread_engine().run_batch(2, 3)
        engine = spread_engine()
        engine.run_batch(2, 0)
        assert_same_batch(engine.run_batch(2, 3), fresh)

    def test_invalid_array_leaks_no_state_into_the_next_batch(self):
        """Batch 1 of this population draws a negative ambient for its last
        array, so that batch ends without solving it."""
        environment = [{"path": "attack.ambient_temperature_k", "kind": "normal",
                        "mean": 150.0, "sigma": 200.0}]
        engine = spread_engine(seed=0, distributions=environment)
        broken = engine.run_batch(2, 1)
        assert broken.array_valid.tolist() == [True, False]
        after = engine.run_batch(2, 2)
        fresh = spread_engine(seed=0, distributions=environment).run_batch(2, 2)
        assert_same_batch(after, fresh)


class TestFullArrayCampaign:
    def test_full_array_mode_runs_through_the_campaign_runner(self, tmp_path):
        from repro.campaign import CampaignRunner, CampaignSpec, ResultCache

        spec = CampaignSpec(
            name="full-array-mc",
            kind="montecarlo",
            attack={"max_pulses": 200000},
            montecarlo={"n_samples": 2, "seed": 3, "mode": "full_array"},
            axes=[{"path": "attack.pulse.length_s", "values": [2e-8, 5e-8]}],
        )
        report = CampaignRunner(spec, cache=ResultCache(tmp_path / "cache")).run()
        assert report.counts()["ok"] == 2
        for record in report.ok_records:
            assert record.result["mode"] == "full_array"
            assert record.result["n_arrays"] == 2
            assert "array_flip_probability" in record.result

    def test_cli_mc_run_full_array(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            """
            {"name": "fa", "kind": "montecarlo", "mode": "grid",
             "attack": {"max_pulses": 200000},
             "montecarlo": {"n_samples": 2, "seed": 1}}
            """
        )
        code = main(["mc", "run", str(spec_path), "--mode", "full_array", "--rows", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "full_array" in captured.out
