"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload is chosen so that a different layer does most of the work:

* ``full_array_64`` — full-array Monte-Carlo on 64x64 arrays: sparse LU in
  the nodal solver dominates;
* ``paper_figures`` — figs 2a and 3a-3d on 5x5 crossbars: below the dense
  crossover, so scalar operating points, the array device kernel, dense
  solves and per-point runner overhead share the time;
* ``mc_map_store`` — cold passes of a flip-probability map on a fresh
  shared result store: vectorized kinetics plus one store write per point;
* ``mc_map_replay`` — replays of a stored map: runner plus one store read
  per point, no physics at all.

A workload object is built in a fresh process and used in four steps:
:meth:`setup` (counted in ``setup_s``), :meth:`op` (timed), :meth:`check`
(untimed output checks of one op) and :meth:`finish` (untimed whole-run
checks).  ``check`` returns ``(attempted, failed, errors)`` in the
workload's own unit: sampled arrays, campaign points or map points.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.attack.patterns import standard_patterns
from repro.campaign.cache import ResultCache
from repro.config import CrossbarGeometry, SimulationConfig
from repro.experiments import (
    FIG2A_PAPER_REFERENCE,
    run_fig2a,
    run_fig3a,
    run_fig3b,
    run_fig3c,
    run_fig3d,
)
from repro.experiments import fig3a_pulse_length, fig3b_electrode_spacing, fig3c_ambient_temperature
from repro.montecarlo import MapAxis, MonteCarloConfig, MonteCarloEngine, flip_probability_map

#: Recorded outputs the checks compare against (see ``record_reference.py``).
REFERENCE_PATH = Path(__file__).with_name("reference.json")

Check = Tuple[int, int, List[str]]


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


def _rel_close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


# ----------------------------------------------------------------------
# full_array_64
# ----------------------------------------------------------------------

#: The per-cell device spread of ``benchmarks/bench_crosstalk.py``.
FULL_ARRAY_DISTRIBUTIONS = [
    {"path": "device.activation_energy_ev", "kind": "normal", "mean": 1.0, "sigma": 0.02,
     "relative": True, "within_die": 0.3},
    {"path": "device.series_resistance_ohm", "kind": "normal", "mean": 1.0, "sigma": 0.05,
     "relative": True},
]
FULL_ARRAY_SIZE = 64
#: Sampled arrays per timed operation (one crossbar build per batch).
ARRAYS_PER_OP = 2
#: Seed of the reference array whose outcome is recorded.
FULL_ARRAY_REFERENCE_SEED = 2022
#: A Picard or Newton convergence change may move the crosstalk by ~1 K,
#: which moves pulses-to-flip by ~7 %; anything beyond these is a bug.
FULL_ARRAY_PROBABILITY_ATOL = 0.03
FULL_ARRAY_PULSES_RTOL = 0.10
#: Per-batch flip probability: the default 50 ns / 1e7-pulse attack flips
#: some but not all half-selected victims of a sampled array.
FULL_ARRAY_PROBABILITY_BAND = (0.1, 1.0)


def full_array_engine(seed: int) -> MonteCarloEngine:
    config = MonteCarloConfig(
        n_samples=ARRAYS_PER_OP, seed=seed, mode="full_array",
        distributions=FULL_ARRAY_DISTRIBUTIONS,
    )
    geometry = {"rows": FULL_ARRAY_SIZE, "columns": FULL_ARRAY_SIZE}
    return MonteCarloEngine(config, simulation=SimulationConfig(geometry=geometry))


def full_array_outcome(result) -> Dict[str, float]:
    """The recorded summary of a full-array population."""
    pulses = result.pulses_to_flip()
    return {
        "flip_probability": result.flip_probability,
        "geomean_pulses_to_flip": float(np.exp(np.mean(np.log(pulses)))) if pulses.size else 0.0,
        "lanes": int(result.n_samples),
    }


class FullArray64:
    unit = "arrays"
    units_per_op = ARRAYS_PER_OP
    trace_ops = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.arrays = 0
        self.lanes = 0

    def setup(self) -> None:
        self.engine = full_array_engine(self.seed)
        self.engine.nominal_conditions()

    def op(self, index: int):
        return self.engine.run_batch(ARRAYS_PER_OP, index)

    def check(self, index: int, result) -> Check:
        invalid = result.n_arrays - int(result.array_valid.sum())
        errors = []
        if not result.valid.all():
            errors.append(f"batch {index}: {int((~result.valid).sum())} invalid victim lanes")
        low, high = FULL_ARRAY_PROBABILITY_BAND
        if not low <= result.flip_probability <= high:
            errors.append(f"batch {index}: flip probability {result.flip_probability:.3f} "
                          f"outside [{low}, {high}]")
        self.arrays += result.n_arrays
        self.lanes += result.n_samples
        return result.n_arrays, invalid, errors

    def finish(self) -> Tuple[int, List[str]]:
        engine = full_array_engine(FULL_ARRAY_REFERENCE_SEED)
        engine.set_nominal_conditions(self.engine.nominal_conditions())
        outcome = full_array_outcome(engine.run_batch(1, 0))
        expected = load_reference()["full_array_64"]
        errors = []
        if outcome["lanes"] != expected["lanes"]:
            errors.append(f"reference array has {outcome['lanes']} lanes, expected {expected['lanes']}")
        if abs(outcome["flip_probability"] - expected["flip_probability"]) > FULL_ARRAY_PROBABILITY_ATOL:
            errors.append(f"reference flip probability {outcome['flip_probability']:.4f} "
                          f"!= recorded {expected['flip_probability']:.4f}")
        if not _rel_close(outcome["geomean_pulses_to_flip"], expected["geomean_pulses_to_flip"],
                          FULL_ARRAY_PULSES_RTOL):
            errors.append(f"reference geomean pulses {outcome['geomean_pulses_to_flip']:.1f} "
                          f"!= recorded {expected['geomean_pulses_to_flip']:.1f}")
        return 0, errors

    def work_counts(self) -> Dict[str, int]:
        return {"arrays": self.arrays, "victim_lanes": self.lanes}


# ----------------------------------------------------------------------
# paper_figures
# ----------------------------------------------------------------------

#: Same convergence allowance as the full-array reference.
FIGURE_PULSES_RTOL = 0.10
FIG2A_AGGRESSOR_RTOL = 0.15  # the tier-1 test's band around the paper's 947 K
#: Fig. 3 values are read off log-scale plots: a row must land within one
#: decade of the paper at every point the paper reports.
PAPER_BAND_DECADES = 1.0
#: (figure, reference table, row key of the paper's 50 ns series).
PAPER_BANDS = (
    ("fig3a", fig3a_pulse_length.PAPER_REFERENCE, lambda value: f"{value * 1e9:g}"),
    ("fig3b", fig3b_electrode_spacing.PAPER_REFERENCE, lambda value: f"{value * 1e9:g}|50"),
    ("fig3c", fig3c_ambient_temperature.PAPER_REFERENCE, lambda value: f"{value:g}|50"),
)
FIG3D_PATTERNS = list(standard_patterns(CrossbarGeometry()))
#: Campaign points of one five-figure set (fig 2a is one direct snapshot).
FIGURE_SET_POINTS = 10 + 9 + 15 + 5 + 1


def figure_rows(fig2a, fig3a, fig3b, fig3c, fig3d) -> Dict[str, Any]:
    """One figure set as ``{figure: {row key: value}}``, independent of row order."""
    return {
        "fig2a": {"aggressor_temperature_k": fig2a.aggressor_temperature_k,
                  "same_line_neighbour_k": fig2a.same_line_neighbour_k},
        "fig3a": {f"{row['pulse_length_ns']:g}": row["pulses_to_flip"] for row in fig3a.rows},
        "fig3b": {f"{row['electrode_spacing_nm']:g}|{row['pulse_length_ns']:g}": row["pulses_to_flip"]
                  for row in fig3b.rows},
        "fig3c": {f"{row['ambient_temperature_k']:g}|{row['pulse_length_ns']:g}": row["pulses_to_flip"]
                  for row in fig3c.rows},
        "fig3d": {row["pattern"]: row["pulses_to_flip"] for row in fig3d.rows},
        "unflipped": sum(
            not row["flipped"] for result in (fig3a, fig3b, fig3c, fig3d) for row in result.rows
        ),
    }


def run_figure_set(rng: np.random.Generator) -> Dict[str, Any]:
    """Regenerate figs 2a and 3a-3d with every sweep in a seeded order."""
    def shuffled(values):
        return [values[i] for i in rng.permutation(len(values))]

    fig3b, fig3c = fig3b_electrode_spacing, fig3c_ambient_temperature
    return figure_rows(
        run_fig2a(),
        run_fig3a(pulse_lengths_s=shuffled(fig3a_pulse_length.DEFAULT_PULSE_LENGTHS_S)),
        run_fig3b(spacings_m=shuffled(fig3b.DEFAULT_SPACINGS_M),
                  pulse_lengths_s=shuffled(fig3b.DEFAULT_PULSE_LENGTHS_S)),
        run_fig3c(temperatures_k=shuffled(fig3c.DEFAULT_TEMPERATURES_K),
                  pulse_lengths_s=shuffled(fig3c.DEFAULT_PULSE_LENGTHS_S)),
        run_fig3d(pattern_names=shuffled(FIG3D_PATTERNS)),
    )


class PaperFigures:
    unit = "figure sets"
    units_per_op = 1
    trace_ops = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sets = 0

    def setup(self) -> None:
        self.reference = load_reference()["paper_figures"]

    def op(self, index: int):
        return run_figure_set(np.random.default_rng([self.seed, index]))

    def check(self, index: int, rows: Dict[str, Any]) -> Check:
        errors = []
        if rows["unflipped"]:
            errors.append(f"set {index}: {rows['unflipped']} fig 3 points did not flip")
        aggressor = rows["fig2a"]["aggressor_temperature_k"]
        if not _rel_close(aggressor, FIG2A_PAPER_REFERENCE["aggressor_k"], FIG2A_AGGRESSOR_RTOL):
            errors.append(f"set {index}: fig2a aggressor at {aggressor:.1f} K")
        for figure in ("fig2a", "fig3a", "fig3b", "fig3c", "fig3d"):
            expected = self.reference[figure]
            if set(rows[figure]) != set(expected):
                errors.append(f"set {index}: {figure} rows {sorted(rows[figure])} != recorded")
                continue
            for key, value in expected.items():
                if not _rel_close(rows[figure][key], value, FIGURE_PULSES_RTOL):
                    errors.append(f"set {index}: {figure}[{key}] = {rows[figure][key]} "
                                  f"!= recorded {value}")
        for figure, paper, key_of in PAPER_BANDS:
            for value, paper_pulses in paper.items():
                pulses = rows[figure].get(key_of(value))
                if pulses is None or abs(math.log10(pulses / paper_pulses)) > PAPER_BAND_DECADES:
                    errors.append(f"set {index}: {figure} at {value:g} gives {pulses} pulses, "
                                  f"paper ~{paper_pulses:g}")
        self.sets += 1
        return FIGURE_SET_POINTS, 0, errors

    def finish(self) -> Tuple[int, List[str]]:
        return 0, []

    def work_counts(self) -> Dict[str, int]:
        return {"figure_sets": self.sets, "campaign_points": self.sets * (FIGURE_SET_POINTS - 1)}


# ----------------------------------------------------------------------
# mc_map_store / mc_map_replay
# ----------------------------------------------------------------------

#: The 3x3 anchored map of ``benchmarks/bench_adaptive.py``.
MAP_SIMULATION = {"geometry": {"rows": 3, "columns": 3}}
MAP_ATTACK = {"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 5000}
MAP_DISTRIBUTIONS = [
    {"path": "attack.pulse.length_s", "kind": "lognormal", "mean": 1.0, "sigma": 0.3,
     "relative": True},
    {"path": "device.activation_energy_ev", "kind": "normal", "mean": 1.0, "sigma": 0.005,
     "relative": True},
]
MAP_X = {"path": "attack.pulse.amplitude_v", "values": [0.7, 0.8, 0.9, 1.0, 1.1, 1.2]}
MAP_Y = {"path": "attack.ambient_temperature_k", "values": [250.0, 280.0, 310.0, 340.0]}
MAP_POINTS = len(MAP_X["values"]) * len(MAP_Y["values"])
#: Samples per point of a cold pass: kinetics-bound, as a population map is.
COLD_SAMPLES = 1024
#: Samples per point of the replayed map; a replay reads the summary only,
#: so a small population keeps the replay workload's set-up short.
REPLAY_SAMPLES = 64


def run_map(seed: int, n_samples: int, cache: ResultCache):
    return flip_probability_map(
        MapAxis.from_dict(MAP_X), MapAxis.from_dict(MAP_Y),
        simulation=MAP_SIMULATION, attack=MAP_ATTACK,
        montecarlo={"seed": seed, "n_samples": n_samples, "distributions": MAP_DISTRIBUTIONS},
        cache=cache,
    )


def store_errors(cache: ResultCache) -> Tuple[int, List[str]]:
    """Checksum failures of the whole store plus entries quarantined by reads."""
    report = cache.store.verify()
    damaged = report["corrupt"] + report["quarantined"]
    errors = [] if report["clean"] and not report["quarantined"] else [
        f"store verify: {report['corrupt']} corrupt, {report['quarantined']} quarantined"
    ]
    return damaged, errors


class _MapWorkload:
    unit = "map points"
    units_per_op = MAP_POINTS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.points = 0
        self.store_entries = 0
        self.store_bytes = 0

    def map_seed(self, index: int) -> int:
        return self.seed * 100_000 + index

    def work_counts(self) -> Dict[str, int]:
        return {"map_points": self.points, "store_entries": self.store_entries,
                "store_bytes": self.store_bytes}


class McMapStore(_MapWorkload):
    """Each op computes one seeded map into a new, empty store."""

    trace_ops = 2

    def setup(self) -> None:
        pass

    def op(self, index: int):
        cache = ResultCache(self.workdir / f"store-{index}", backend="store")
        return cache, run_map(self.map_seed(index), COLD_SAMPLES, cache)

    def check(self, index: int, output) -> Check:
        cache, result = output
        errors = []
        cached = result.result.metadata["campaign"]["cached"]
        if cached:
            errors.append(f"cold pass {index} found {cached} points already stored")
        # The plane spans the flip boundary: the weakest corner never flips
        # within the budget, the strongest always does.
        if result.probabilities[0, 0] != 0.0 or result.probabilities[-1, -1] != 1.0:
            errors.append(f"cold pass {index}: corners {result.probabilities[0, 0]}, "
                          f"{result.probabilities[-1, -1]} (expected 0 and 1)")
        replay = run_map(self.map_seed(index), COLD_SAMPLES, cache)
        if replay.result.metadata["campaign"]["cached"] != MAP_POINTS:
            errors.append(f"replay of cold pass {index} was not served from the store")
        if not np.array_equal(replay.probabilities, result.probabilities):
            errors.append(f"replay of cold pass {index} differs from the cold pass")
        damaged, store = store_errors(cache)
        stats = cache.stats()
        self.store_entries += stats["entries"]
        self.store_bytes += stats["bytes"]
        self.points += MAP_POINTS
        cache.store.close()
        shutil.rmtree(cache.root)
        return MAP_POINTS, damaged, errors + store

    def finish(self) -> Tuple[int, List[str]]:
        return 0, []


class McMapReplay(_MapWorkload):
    """Each op replays one stored map; every point must be a store hit."""

    trace_ops = 100

    def setup(self) -> None:
        self.cache = ResultCache(self.workdir / "store", backend="store")
        self.cold = run_map(self.map_seed(0), REPLAY_SAMPLES, self.cache).probabilities

    def op(self, index: int):
        return run_map(self.map_seed(0), REPLAY_SAMPLES, self.cache)

    def check(self, index: int, result) -> Check:
        errors = []
        misses = MAP_POINTS - result.result.metadata["campaign"]["cached"]
        if misses:
            errors.append(f"replay {index}: {misses} points missed the store")
        if not np.array_equal(result.probabilities, self.cold):
            errors.append(f"replay {index} differs from the cold pass")
        self.points += MAP_POINTS
        return MAP_POINTS, misses, errors

    def finish(self) -> Tuple[int, List[str]]:
        stats = self.cache.stats()
        self.store_entries, self.store_bytes = stats["entries"], stats["bytes"]
        return store_errors(self.cache)


WORKLOADS = {
    "full_array_64": FullArray64,
    "paper_figures": PaperFigures,
    "mc_map_store": McMapStore,
    "mc_map_replay": McMapReplay,
}
