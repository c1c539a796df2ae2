"""The adaptive-sampling statistics subsystem.

Covers the estimator layer (interval numerics, streaming/batching exactness,
nominal coverage on synthetic Bernoulli streams), importance sampling against
an analytic toy model and against plain Monte-Carlo through the engine,
sequential stopping (adaptive runs must be bit-reproducible from the seed),
CI-driven map refinement, and the defense-under-variation harness riding on
adaptive budgets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.config import AttackConfig, SimulationConfig
from repro.defense import evaluate_defenses_under_variation
from repro.errors import MonteCarloError
from repro.experiments.calibration import (
    DISTRIBUTION_PROVENANCE,
    default_variability_distributions,
    distribution_provenance_report,
)
from repro.montecarlo import (
    AdaptiveConfig,
    AdaptiveSampler,
    ImportanceEstimator,
    ImportanceSettings,
    MonteCarloConfig,
    MonteCarloEngine,
    ParameterDistribution,
    StreamingBinomialEstimator,
    StreamingMeanEstimator,
    fixed_sample_size,
    jeffreys_interval,
    refine_flip_probability_map,
    wilson_interval,
)
from repro.montecarlo.maps import MapAxis
from repro.utils.rng import child_rng

SMALL_SIM = {"geometry": {"rows": 3, "columns": 3}}
SMALL_ATTACK = {"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 100_000}

#: Relative cycle-to-cycle + device variation used by the engine-level tests.
VARIED = [
    {"path": "attack.pulse.length_s", "kind": "lognormal", "mean": 1.0, "sigma": 0.3,
     "relative": True},
    {"path": "device.activation_energy_ev", "kind": "normal", "mean": 1.0, "sigma": 0.005,
     "relative": True},
]


def small_engine(montecarlo: MonteCarloConfig, max_pulses: int = 100_000) -> MonteCarloEngine:
    attack = dict(SMALL_ATTACK, max_pulses=max_pulses)
    return MonteCarloEngine(
        montecarlo,
        simulation=SimulationConfig.from_dict(SMALL_SIM),
        attack=AttackConfig.from_dict(attack),
    )


# ----------------------------------------------------------------------
# interval numerics
# ----------------------------------------------------------------------


class TestIntervalNumerics:
    #: The standard-normal quantile Phi^-1(0.975) to double precision.
    Z_975 = 1.959963984540054

    def test_wilson_interval_known_values(self):
        z = self.Z_975
        low, high = wilson_interval(50, 100)
        margin = z / (1.0 + z * z / 100) * math.sqrt(0.25 / 100 + z * z / 40_000)
        assert low == pytest.approx(0.5 - margin, rel=1e-15)
        assert high == pytest.approx(0.5 + margin, rel=1e-15)
        # With no successes the upper Wilson bound is z^2 / (n + z^2).
        assert wilson_interval(0, 20) == (0.0, pytest.approx(z * z / (20 + z * z), rel=1e-15))

    def test_jeffreys_bounds_match_scipy_beta_ppf(self):
        for successes, trials, confidence in [(5, 100, 0.95), (37, 40, 0.95), (1, 3, 0.9)]:
            alpha = 1.0 - confidence
            a, b = successes + 0.5, trials - successes + 0.5
            low, high = jeffreys_interval(successes, trials, confidence)
            assert low == pytest.approx(float(stats.beta.ppf(alpha / 2, a, b)), rel=1e-12)
            assert high == pytest.approx(float(stats.beta.ppf(1 - alpha / 2, a, b)), rel=1e-12)
            assert type(low) is float and type(high) is float

    def test_fixed_sample_size_known_values(self):
        z = self.Z_975
        for target, expected in ((0.05, 381), (0.01, 9600)):
            assert math.ceil(z * z / (4 * target * target) - z * z) == expected
            assert fixed_sample_size(target) == expected

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_interval_functions_reject_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(MonteCarloError):
            wilson_interval(3, 10, confidence)
        with pytest.raises(MonteCarloError):
            jeffreys_interval(3, 10, confidence)
        with pytest.raises(MonteCarloError):
            fixed_sample_size(0.05, confidence)

    def test_wilson_and_jeffreys_stay_inside_unit_interval(self):
        for successes, trials in [(0, 10), (10, 10), (1, 3), (500, 1000)]:
            for low, high in (wilson_interval(successes, trials), jeffreys_interval(successes, trials)):
                assert 0.0 <= low <= high <= 1.0

    def test_jeffreys_boundary_conventions(self):
        low, _ = jeffreys_interval(0, 50)
        _, high = jeffreys_interval(50, 50)
        assert low == 0.0
        assert high == 1.0

    def test_intervals_shrink_with_n(self):
        widths = []
        for trials in (10, 100, 1000, 10000):
            low, high = wilson_interval(trials // 2, trials)
            widths.append(high - low)
        assert widths == sorted(widths, reverse=True)

    def test_fixed_sample_size_inverts_the_worst_case_wilson_width(self):
        for target in (0.05, 0.02, 0.01):
            n = fixed_sample_size(target)
            low, high = wilson_interval(n // 2, n)
            assert (high - low) / 2.0 <= target + 1e-9
            low, high = wilson_interval((n - 10) // 2, n - 10)
            assert (high - low) / 2.0 > target

    @pytest.mark.parametrize("method", ["wilson", "jeffreys"])
    @pytest.mark.parametrize("p_true", [0.05, 0.5])
    def test_nominal_coverage_on_bernoulli_streams(self, method, p_true):
        """95% intervals must cover the true p in ~95% of synthetic streams."""
        rng = child_rng(1234, "coverage-test", method, str(p_true))
        covered = 0
        streams = 300
        for _ in range(streams):
            outcomes = rng.random(200) < p_true
            estimator = StreamingBinomialEstimator(confidence=0.95, method=method)
            estimator.update(outcomes)
            low, high = estimator.interval()
            covered += low <= p_true <= high
        # Wilson/Jeffreys achieve near-nominal coverage; 0.91 leaves room for
        # the binomial noise of 300 streams without ever passing a broken
        # interval (a z-interval at p=0.05/n=200 covers ~0.88).
        assert covered / streams >= 0.91


# ----------------------------------------------------------------------
# streaming estimators
# ----------------------------------------------------------------------


class TestStreamingEstimators:
    def test_batched_updates_match_one_shot(self):
        rng = child_rng(7, "batch-equivalence")
        outcomes = rng.random(1000) < 0.3
        one_shot = StreamingBinomialEstimator()
        one_shot.update(outcomes)
        batched = StreamingBinomialEstimator()
        for chunk in np.array_split(outcomes, 13):
            batched.update(chunk)
        assert batched.trials == one_shot.trials
        assert batched.successes == one_shot.successes
        assert batched.interval() == one_shot.interval()

    def test_mean_estimator_matches_numpy_and_batching(self):
        rng = child_rng(7, "mean-equivalence")
        values = rng.normal(3.0, 2.0, 500)
        estimator = StreamingMeanEstimator()
        for chunk in np.array_split(values, 7):
            estimator.update(chunk)
        assert estimator.mean == pytest.approx(values.mean(), rel=1e-12)
        assert estimator.variance == pytest.approx(values.var(ddof=1), rel=1e-10)
        low, high = estimator.interval()
        assert low < values.mean() < high

    def test_importance_estimator_on_analytic_tail(self):
        """Self-normalized IS must recover P(X > 2.5), X ~ N(0,1), from a
        shifted proposal — the textbook rare-event toy model."""
        p_true = 0.5 * math.erfc(2.5 / math.sqrt(2.0))  # ~6.2e-3
        rng = child_rng(11, "importance-toy")
        draws = rng.normal(2.5, 1.0, 4000)
        log_w = -0.5 * draws**2 + 0.5 * (draws - 2.5) ** 2
        estimator = ImportanceEstimator()
        estimator.update(draws > 2.5, np.exp(log_w))
        low, high = estimator.interval()
        assert low <= p_true <= high
        assert estimator.estimate == pytest.approx(p_true, rel=0.25)
        assert estimator.effective_sample_size < estimator.trials

    def test_importance_estimator_with_unit_weights_matches_plain_fraction(self):
        outcomes = np.array([True, False, True, True, False])
        estimator = ImportanceEstimator()
        estimator.update(outcomes, np.ones(outcomes.size))
        assert estimator.estimate == pytest.approx(0.6)
        assert estimator.effective_sample_size == pytest.approx(5.0)

    def test_clustered_estimator_widens_correlated_intervals(self):
        """Perfectly correlated lanes inside each cluster must yield a wider
        interval than pretending every lane is independent."""
        from repro.montecarlo.estimators import ClusteredBinomialEstimator

        rng = child_rng(5, "cluster-test")
        cluster_hits = rng.random(40) < 0.3  # one Bernoulli draw per cluster
        lanes = np.repeat(cluster_hits[:, None], 16, axis=1)  # 16 identical lanes
        clustered = ClusteredBinomialEstimator()
        clustered.update(lanes)
        iid = StreamingBinomialEstimator()
        iid.update(lanes.ravel())
        assert clustered.estimate == pytest.approx(iid.estimate)
        assert clustered.half_width() > 2.0 * iid.half_width()
        assert clustered.effective_sample_size == 40.0

    def test_clustered_estimator_reduces_to_iid_width_for_independent_lanes(self):
        from repro.montecarlo.estimators import ClusteredBinomialEstimator

        rng = child_rng(6, "cluster-iid")
        lanes = rng.random((300, 8)) < 0.4  # genuinely independent lanes
        clustered = ClusteredBinomialEstimator()
        for chunk in np.array_split(lanes, 5):  # batching must be exact
            clustered.update(chunk)
        iid = StreamingBinomialEstimator()
        iid.update(lanes.ravel())
        assert clustered.half_width() == pytest.approx(iid.half_width(), rel=0.15)

    def test_clustered_estimator_drops_empty_clusters(self):
        from repro.montecarlo.estimators import ClusteredBinomialEstimator

        estimator = ClusteredBinomialEstimator()
        estimator.update_counts(np.array([2.0, 0.0, 1.0]), np.array([4.0, 0.0, 4.0]))
        assert estimator.clusters == 2
        assert estimator.trials == 8
        assert estimator.estimate == pytest.approx(3.0 / 8.0)

    def test_importance_interval_never_collapses_at_the_boundaries(self):
        """Zero observed successes (or failures) must not yield a zero-width
        interval — that would fool the sequential stopping rule into instant
        convergence on a rare event."""
        rng = child_rng(3, "is-boundary")
        weights = rng.uniform(0.1, 2.0, 100)
        none_flipped = ImportanceEstimator()
        none_flipped.update(np.zeros(100, dtype=bool), weights)
        low, high = none_flipped.interval()
        assert low == 0.0
        assert high > 0.0
        assert none_flipped.half_width() > 0.0
        all_flipped = ImportanceEstimator()
        all_flipped.update(np.ones(100, dtype=bool), weights)
        low, high = all_flipped.interval()
        assert low < 1.0
        assert high == 1.0


# ----------------------------------------------------------------------
# adaptive stopping
# ----------------------------------------------------------------------


class TestAdaptiveSampler:
    def evaluate_bernoulli(self, p, seed=0):
        def evaluate(batch_index, n):
            rng = child_rng(seed, "adaptive-test", batch_index)
            return rng.random(n) < p, None

        return evaluate

    def test_stops_early_on_a_plateau(self):
        config = AdaptiveConfig(batch_size=50, n_max=5000, target_half_width=0.05)
        outcome = AdaptiveSampler(config, self.evaluate_bernoulli(0.0)).run()
        assert outcome.converged
        assert outcome.n_drawn < 200  # a batch or three pins p ~ 0 down

    def test_spends_more_at_the_threshold(self):
        config = AdaptiveConfig(batch_size=50, n_max=5000, target_half_width=0.05)
        plateau = AdaptiveSampler(config, self.evaluate_bernoulli(0.0)).run()
        boundary = AdaptiveSampler(config, self.evaluate_bernoulli(0.5)).run()
        assert boundary.converged
        assert boundary.n_drawn > 3 * plateau.n_drawn

    def test_n_max_is_a_hard_ceiling(self):
        config = AdaptiveConfig(batch_size=64, n_max=256, target_half_width=0.001)
        outcome = AdaptiveSampler(config, self.evaluate_bernoulli(0.5)).run()
        assert not outcome.converged
        assert outcome.stop_reason == "n_max"
        assert outcome.n_drawn == 256

    def test_runs_are_bit_reproducible(self):
        config = AdaptiveConfig(batch_size=32, n_max=2048, target_half_width=0.04)
        first = AdaptiveSampler(config, self.evaluate_bernoulli(0.3, seed=5)).run()
        second = AdaptiveSampler(config, self.evaluate_bernoulli(0.3, seed=5)).run()
        assert first.n_drawn == second.n_drawn
        assert first.state.estimate == second.state.estimate
        assert [b.estimate for b in first.batches] == [b.estimate for b in second.batches]

    def test_relative_target(self):
        config = AdaptiveConfig(
            batch_size=100, n_max=20_000, target_half_width=0.1, relative=True
        )
        outcome = AdaptiveSampler(config, self.evaluate_bernoulli(0.5)).run()
        assert outcome.converged
        assert outcome.state.half_width <= 0.1 * outcome.state.estimate

    def test_validation(self):
        with pytest.raises(MonteCarloError):
            AdaptiveConfig(batch_size=0)
        with pytest.raises(MonteCarloError):
            AdaptiveConfig(batch_size=64, n_max=32)
        with pytest.raises(MonteCarloError):
            AdaptiveConfig(target_half_width=0.0)
        with pytest.raises(MonteCarloError):
            AdaptiveConfig(method="wald")


# ----------------------------------------------------------------------
# importance tilts in the sampling layer
# ----------------------------------------------------------------------


class TestImportanceTilts:
    def test_tilted_normal_shifts_mean_in_sigmas(self):
        dist = ParameterDistribution(path="device.activation_energy_ev", kind="normal",
                                     mean=1.2, sigma=0.1)
        proposal = dist.tilted(shift_sigmas=2.0, scale=1.5)
        assert proposal.mean == pytest.approx(1.4)
        assert proposal.sigma == pytest.approx(0.15)

    def test_tilted_lognormal_shifts_in_log_space(self):
        dist = ParameterDistribution(path="attack.pulse.length_s", kind="lognormal",
                                     mean=50e-9, sigma=0.2)
        proposal = dist.tilted(shift_sigmas=1.0)
        assert proposal.mean == pytest.approx(50e-9 * math.exp(0.2))

    def test_uniform_cannot_be_tilted(self):
        dist = ParameterDistribution(path="attack.pulse.duty_cycle", kind="uniform",
                                     low=0.2, high=0.8)
        with pytest.raises(MonteCarloError):
            dist.tilted(shift_sigmas=1.0)

    def test_log_density_ratio_matches_analytic_normal(self):
        dist = ParameterDistribution(path="device.series_resistance_ohm", kind="normal",
                                     mean=650.0, sigma=30.0)
        proposal = dist.tilted(shift_sigmas=1.0)
        values = np.array([600.0, 650.0, 700.0])
        ratio = dist.log_density(values) - proposal.log_density(values)
        expected = (-0.5 * ((values - 650.0) / 30.0) ** 2
                    + 0.5 * ((values - 680.0) / 30.0) ** 2)
        np.testing.assert_allclose(ratio, expected, rtol=1e-12)

    def test_importance_settings_validation(self):
        with pytest.raises(MonteCarloError):
            ImportanceSettings()  # empty tilt is a configuration mistake
        with pytest.raises(MonteCarloError):
            ImportanceSettings(scale={"attack.pulse.length_s": 0.0})
        settings = ImportanceSettings(shift_sigmas={"attack.pulse.length_s": 2.0})
        dist = ParameterDistribution(path="device.activation_energy_ev", kind="normal",
                                     mean=1.0, sigma=0.01, relative=True)
        with pytest.raises(MonteCarloError, match="not among the sampled"):
            settings.validate_against([dist])


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------


class TestEngineAdaptive:
    def adaptive_config(self, **overrides) -> MonteCarloConfig:
        adaptive = dict(batch_size=64, n_max=2048, target_half_width=0.05)
        adaptive.update(overrides)
        return MonteCarloConfig(seed=3, distributions=list(VARIED), adaptive=adaptive)

    def test_adaptive_run_is_bit_reproducible(self):
        first = small_engine(self.adaptive_config()).run()
        second = small_engine(self.adaptive_config()).run()
        assert first.n_samples == second.n_samples
        assert np.array_equal(first.flipped, second.flipped)
        assert np.array_equal(first.pulses, second.pulses)
        assert first.adaptive.state.estimate == second.adaptive.state.estimate

    def test_adaptive_summary_reports_the_trace(self):
        result = small_engine(self.adaptive_config()).run()
        summary = result.summary()
        assert summary["adaptive"]["n_drawn"] == result.n_samples
        assert summary["adaptive"]["stop_reason"] in ("target", "n_max")
        assert summary["ci_low"] <= summary["flip_probability"] <= summary["ci_high"]

    def test_adaptive_stops_fast_on_a_plateau_and_slow_at_the_boundary(self):
        plateau = small_engine(self.adaptive_config(), max_pulses=100_000).run()
        boundary = small_engine(self.adaptive_config(), max_pulses=5000).run()
        assert plateau.adaptive.converged
        assert plateau.n_samples == 64  # p ~ 1: one batch settles it
        assert boundary.n_samples > 3 * plateau.n_samples

    def test_adaptive_matches_batch_stream(self):
        """The concatenated population equals replaying run_batch by hand."""
        engine = small_engine(self.adaptive_config())
        result = engine.run()
        replay = small_engine(self.adaptive_config())
        offset = 0
        for record in result.adaptive.batches:
            batch = replay.run_batch(record.n_drawn, record.index)
            chunk = slice(offset, offset + record.n_drawn)
            assert np.array_equal(result.flipped[chunk], batch.flipped)
            assert np.array_equal(result.pulses[chunk], batch.pulses)
            offset += record.n_drawn
        assert offset == result.n_samples

    def test_run_batch_streams_are_keyed_by_index(self):
        engine = small_engine(MonteCarloConfig(seed=3, distributions=list(VARIED)))
        again = small_engine(MonteCarloConfig(seed=3, distributions=list(VARIED)))
        first = engine.run_batch(32, 0)
        repeat = again.run_batch(32, 0)
        other = engine.run_batch(32, 1)
        assert np.array_equal(first.pulses, repeat.pulses)
        assert not np.array_equal(first.pulses, other.pulses)

    def test_adaptive_full_array_mode(self):
        config = MonteCarloConfig(
            seed=2,
            mode="full_array",
            distributions=[
                {"path": "device.series_resistance_ohm", "kind": "normal",
                 "mean": 1.0, "sigma": 0.05, "relative": True},
            ],
            adaptive={"batch_size": 2, "n_max": 6, "target_half_width": 0.4},
        )
        result = small_engine(config).run()
        assert result.adaptive is not None
        assert result.n_arrays == result.adaptive.n_drawn
        assert result.array_valid.shape == (result.n_arrays,)
        assert result.n_samples == result.n_arrays * result.victims_per_array
        # The estimand is the lane-level flip probability, but the interval
        # is cluster-robust: lanes of one array share its draws and solve,
        # so the independent observations are the arrays.
        assert result.adaptive.state.method == "cluster"
        assert result.adaptive.state.estimate == pytest.approx(result.flip_probability)
        assert result.adaptive.state.effective_sample_size == float(result.array_valid.sum())
        # summary()'s interval comes from the same cluster-robust estimator.
        summary = result.summary()
        assert summary["ci_method"] == "cluster"
        assert summary["ci_low"] == pytest.approx(result.adaptive.state.ci_low)

    def test_scalar_and_vectorized_adaptive_agree(self):
        config = self.adaptive_config(n_max=128)
        vectorized = small_engine(config, max_pulses=5000).run()
        scalar = small_engine(config, max_pulses=5000).run(vectorized=False)
        assert vectorized.n_samples == scalar.n_samples
        assert np.array_equal(vectorized.flipped, scalar.flipped)
        assert np.array_equal(vectorized.pulses, scalar.pulses)


class TestEngineImportance:
    def test_importance_estimate_agrees_with_plain_mc_within_ci(self):
        """IS on a rare-ish event must agree with a longer plain run."""
        plain = small_engine(
            MonteCarloConfig(seed=9, n_samples=8000, distributions=list(VARIED)),
            max_pulses=3000,
        ).run()
        tilted = small_engine(
            MonteCarloConfig(
                seed=9,
                n_samples=1000,
                distributions=list(VARIED),
                importance={"shift_sigmas": {"attack.pulse.length_s": 1.5}},
            ),
            max_pulses=3000,
        ).run()
        plain_low, plain_high = plain.interval()
        is_low, is_high = tilted.interval()
        # The two (independent) intervals must overlap: disjoint intervals
        # would mean the reweighting is biased.
        assert max(plain_low, is_low) <= min(plain_high, is_high)
        assert tilted.weights is not None
        assert 0.0 < tilted.effective_sample_size < tilted.n_samples

    def test_importance_reweights_the_raw_fraction(self):
        result = small_engine(
            MonteCarloConfig(
                seed=9,
                n_samples=500,
                distributions=list(VARIED),
                importance={"shift_sigmas": {"attack.pulse.length_s": 2.0}},
            ),
            max_pulses=3000,
        ).run()
        raw = result.flipped_count / result.valid_count
        weighted = float(
            result.weights[result.flipped & result.valid].sum()
            / result.weights[result.valid].sum()
        )
        assert result.flip_probability == pytest.approx(weighted)
        # The tilt drives far more proposal samples into flipping than the
        # nominal distribution would; the reweighted estimate corrects that.
        assert result.flip_probability < raw

    def test_importance_rejected_in_full_array_mode(self):
        with pytest.raises(MonteCarloError, match="anchored"):
            MonteCarloConfig(
                mode="full_array",
                distributions=list(VARIED),
                importance={"shift_sigmas": {"attack.pulse.length_s": 1.0}},
            )

    def test_yield_scenario_reweights_importance_populations(self):
        """YieldScenario's BER must be the nominal (reweighted) estimate,
        not the tilted proposal's raw flip fraction."""
        from repro.attack import YieldScenario

        config = MonteCarloConfig(
            seed=9,
            n_samples=400,
            distributions=list(VARIED),
            importance={"shift_sigmas": {"attack.pulse.length_s": 2.0}},
        )
        scenario = YieldScenario(
            config,
            simulation=SimulationConfig.from_dict(SMALL_SIM),
            attack=AttackConfig.from_dict(dict(SMALL_ATTACK, max_pulses=3000)),
            cells_per_array=64,
        )
        outcome = scenario.run(pulse_budget=3000)
        reference = small_engine(config, max_pulses=3000).run()
        assert outcome.stats["cell_bit_error_rate"] == pytest.approx(
            reference.flip_probability
        )
        raw_fraction = reference.flipped_count / reference.valid_count
        assert outcome.stats["cell_bit_error_rate"] < raw_fraction

    def test_summary_carries_the_effective_sample_size(self):
        result = small_engine(
            MonteCarloConfig(
                seed=9,
                n_samples=200,
                distributions=list(VARIED),
                importance={"shift_sigmas": {"attack.pulse.length_s": 1.0}},
            ),
            max_pulses=3000,
        ).run()
        assert 0.0 < result.summary()["effective_sample_size"] <= 200.0


# ----------------------------------------------------------------------
# CI-driven map refinement
# ----------------------------------------------------------------------


class TestMapRefinement:
    def refine(self, **overrides):
        settings = dict(
            target_half_width=0.05,
            batch_size=64,
            point_n_max=4096,
        )
        settings.update(overrides)
        return refine_flip_probability_map(
            MapAxis(path="attack.pulse.amplitude_v", values=[0.8, 1.0, 1.2]),
            MapAxis(path="attack.ambient_temperature_k", values=[260.0, 300.0]),
            simulation=dict(SMALL_SIM),
            attack=dict(SMALL_ATTACK),
            montecarlo={"seed": 5, "distributions": list(VARIED)},
            **settings,
        )

    def test_refined_map_beats_the_fixed_n_budget(self):
        refined = self.refine()
        assert refined.converged.all()
        assert refined.total_samples == int(refined.samples_used.sum())
        assert refined.total_samples < refined.fixed_n_equivalent
        assert (refined.half_widths <= refined.target_half_width + 1e-12).all()
        assert ((refined.probabilities >= 0.0) & (refined.probabilities <= 1.0)).all()
        assert len(refined.result.rows) == refined.probabilities.size

    def test_global_budget_is_a_hard_ceiling(self):
        # 200 is not a multiple of the batch size: a batch that would cross
        # the ceiling must not start (the historical bug overshot to 256).
        refined = self.refine(budget=200)
        assert refined.total_samples <= 200
        refined = self.refine(budget=128)
        assert refined.total_samples <= 128
        # Points the budget never reached are NaN, not a fake P = 0 plateau.
        unsampled = refined.samples_used == 0
        assert unsampled.any()
        assert np.isnan(refined.probabilities[unsampled]).all()
        assert not refined.converged[unsampled].any()
        assert refined.result.metadata["points_unsampled"] == int(unsampled.sum())

    def test_refinement_is_reproducible(self):
        first = self.refine()
        second = self.refine()
        np.testing.assert_array_equal(first.samples_used, second.samples_used)
        np.testing.assert_allclose(first.probabilities, second.probabilities)

    def test_point_ceiling_stops_unconverged_points(self):
        refined = self.refine(target_half_width=0.004, point_n_max=128)
        assert not refined.converged.all()
        assert (refined.samples_used <= 128).all()


# ----------------------------------------------------------------------
# defense under variation + provenance satellites
# ----------------------------------------------------------------------


class TestDefenseUnderVariation:
    def test_report_scores_all_defenses_on_adaptive_budgets(self):
        report = evaluate_defenses_under_variation(
            simulation=SimulationConfig.from_dict(SMALL_SIM),
            attack=AttackConfig.from_dict(SMALL_ATTACK),
            pulse_budget=100_000,
            target_half_width=0.05,
            batch_size=64,
            n_max=512,
        )
        names = [outcome.name for outcome in report.outcomes]
        assert names == ["baseline", "v_third_bias", "victim_refresh", "thermal_guard"]
        baseline = report.outcome("baseline")
        assert baseline.ci_low <= baseline.flip_probability <= baseline.ci_high
        # every defence must reduce (or at least not increase) the exposure
        for name in ("v_third_bias", "victim_refresh", "thermal_guard"):
            assert report.outcome(name).flip_probability <= baseline.flip_probability + 1e-12
        assert report.total_samples > 0
        table = report.to_experiment_result()
        assert len(table.rows) == 4

    def test_defaults_use_the_provenance_backed_distributions(self):
        defaults = default_variability_distributions()
        assert defaults  # the shipped population is non-empty
        recorded = {entry.path for entry in DISTRIBUTION_PROVENANCE}
        assert {d["path"] for d in defaults} <= recorded


class TestDistributionProvenance:
    def test_every_entry_declares_its_source(self):
        for entry in DISTRIBUTION_PROVENANCE:
            assert entry.source in ("placeholder", "literature")
            assert entry.reference

    def test_report_matches_spec_distributions(self):
        report = distribution_provenance_report(
            [
                {"path": "device.activation_energy_ev", "kind": "normal",
                 "mean": 1.0, "sigma": 0.01, "relative": True},
                {"path": "device.disc_length_m", "kind": "normal",
                 "mean": 1.0, "sigma": 0.5, "relative": True},
            ]
        )
        by_path = {row["path"]: row for row in report.rows}
        assert by_path["device.activation_energy_ev"]["source"] == "placeholder"
        assert by_path["device.disc_length_m"]["source"] == "user-supplied"

    def test_full_table_without_arguments(self):
        report = distribution_provenance_report()
        assert len(report.rows) == len(DISTRIBUTION_PROVENANCE)
