"""Tests of the top-level public API surface.

A downstream user should be able to rely on `repro`'s top-level exports and
on every subpackage re-exporting the names listed in its ``__all__``.
"""

from __future__ import annotations

import importlib

import pytest

import repro


SUBPACKAGES = [
    "repro.devices",
    "repro.thermal",
    "repro.circuit",
    "repro.attack",
    "repro.memory",
    "repro.defense",
    "repro.experiments",
    "repro.utils",
    "repro.obs",
    "repro.faults",
]


def test_version_is_exposed():
    assert repro.__version__ == "1.19.2"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists {name} but it is not importable"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} needs a module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name} but it is missing"


def test_switching_time_has_one_rule_and_no_step_options():
    """The forward-Euler integrators, their trajectory record and their step
    options made way for the quadrature rule of ``repro.devices.kinetics``."""
    import inspect

    from repro import devices, montecarlo
    from repro.attack import NeuroHammer
    from repro.devices import kinetics

    for module, name in (
        (devices, "StateTrajectoryPoint"),
        (kinetics, "StateTrajectoryPoint"),
        (montecarlo, "time_to_switch_batch"),
        (montecarlo, "BatchSwitchingResult"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name} is back"
    options = {
        *inspect.signature(devices.time_to_switch).parameters,
        *inspect.signature(devices.pulses_to_switch).parameters,
        *inspect.signature(montecarlo.pulses_to_switch_batch).parameters,
        *inspect.signature(NeuroHammer.run).parameters,
    }
    assert not options & {"max_dx_per_step", "max_dx_per_batch", "record"}


def test_crosstalk_has_one_eq5_path():
    """The operator module with its FFT, stencil and dense backends made way
    for the hub's own FFT convolution, and the estimator layer takes its
    quantiles from SciPy."""
    import importlib.util

    from repro import thermal
    from repro.circuit import CrosstalkHub
    from repro.montecarlo import estimators

    assert importlib.util.find_spec("repro.thermal.operator") is None
    for namespace in (repro, thermal, CrosstalkHub):
        leftovers = [name for name in dir(namespace) if "operator" in name.lower() or "STENCIL" in name]
        assert not leftovers, f"{namespace.__name__} still has {leftovers}"
    for name in ("normal_quantile", "regularized_incomplete_beta", "beta_quantile"):
        assert not hasattr(estimators, name), f"estimators.{name} is back"


def test_one_state_representation_and_one_cache_layout():
    """The per-cell state views and the per-file cache migration made way
    for :class:`DeviceStateArrays` and the result store."""
    from repro import devices, store
    from repro.circuit import CrossbarArray
    from repro.devices import DeviceStateArrays, base

    for module, name in (
        (devices, "DeviceStateView"),
        (devices, "DeviceStateMapView"),
        (base, "DeviceStateView"),
        (base, "DeviceStateMapView"),
        (repro, "migrate_legacy_cache"),
        (store, "migrate_legacy_cache"),
        (store.store, "migrate_legacy_cache"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name} is back"
    for cls, name in (
        (DeviceStateArrays, "from_mapping"),
        (DeviceStateArrays, "view"),
        (DeviceStateArrays, "as_mapping"),
        (CrossbarArray, "copy_states"),
    ):
        assert not hasattr(cls, name), f"{cls.__name__}.{name} is back"
    assert not hasattr(CrossbarArray(), "states")


def test_unreachable_definitions_and_parameters_stay_retired():
    """Definitions and parameters that nothing called or set are gone; each
    device limit and self-heating stop has one owning constant."""
    import inspect

    from repro import attack, circuit, faults, montecarlo, obs
    from repro.attack import analysis, patterns
    from repro.circuit import ReferenceCrossbarSolver, readout
    from repro.devices import base, jart_vcm, thermal
    from repro.faults import inject
    from repro.memory import AddressMapping
    from repro.montecarlo import vectorized
    from repro.thermal.geometry import CrossbarVoxelModel

    for namespace, name in (
        (faults, "current_attempt"),
        (inject, "current_attempt"),
        (obs.Telemetry, "current_span"),
        (circuit, "array_read_margins"),
        (circuit, "minimum_read_window"),
        (readout, "array_read_margins"),
        (readout, "minimum_read_window"),
        (CrossbarVoxelModel, "voxel_count"),
        (patterns, "_grouped_phases"),
        (attack, "half_select_disturbance_time"),
        (analysis, "half_select_disturbance_time"),
        (base.MemristorModel, "update_temperature"),
        (AddressMapping, "iter_addresses"),
        (vectorized, "_MAX_FIELD_ARGUMENT"),
    ):
        assert not hasattr(namespace, name), f"{namespace.__name__}.{name} is back"
    for function, names in (
        (montecarlo.AdaptiveSampler.__init__, {"first_batch_index", "already_drawn"}),
        (obs.Telemetry.snapshot, {"include_spans"}),
        (ReferenceCrossbarSolver.solve, {"initial_guess"}),
        (base.MemristorModel.check_voltage, {"limit_v"}),
        (thermal.solve_operating_point, {"tolerance_k", "max_iterations"}),
        (montecarlo.solve_operating_point_batch, {"tolerance_k", "max_iterations"}),
    ):
        leftovers = set(inspect.signature(function).parameters) & names
        assert not leftovers, f"{function.__qualname__} takes {leftovers} again"
    assert base.VOLTAGE_LIMIT_V == 10.0
    assert jart_vcm.MAX_FIELD_ARGUMENT == 50.0
    assert thermal.SELF_HEATING_MAX_ITERATIONS == 200


def test_attack_points_carry_only_what_they_read():
    """The count has one home, :meth:`SteadyState.count`: a run no longer
    takes or returns a steady state.  Config fields and device parameters
    nothing read are gone."""
    import dataclasses
    import inspect

    from repro.attack import neurohammer
    from repro.config import SimulationConfig, ThermalSolverConfig
    from repro.devices.yakopcic import YakopcicParameters

    assert "steady_state" not in inspect.signature(neurohammer.NeuroHammer.run).parameters
    for cls, names in (
        (neurohammer.AttackResult, {"steady_state"}),
        (neurohammer.SteadyState, {"conditions"}),
        (SimulationConfig, {"thermal"}),
        (YakopcicParameters, {"alpha_p", "alpha_n"}),
        (ThermalSolverConfig, {"ambient_temperature_k", "power_sweep_points", "max_set_voltage_v"}),
    ):
        leftovers = {field.name for field in dataclasses.fields(cls)} & names
        assert not leftovers, f"{cls.__name__} has {leftovers} again"
    for cls, name in (
        (neurohammer.NeuroHammer, "_count"),
        (neurohammer.NeuroHammer, "_victim_rate"),
        (neurohammer.NeuroHammer, "_pattern_from_config"),
    ):
        assert not hasattr(cls, name), f"{cls.__name__}.{name} is back"


def test_headline_entry_point_signature():
    from repro import hammer_once

    result = hammer_once(pulse_length_s=100e-9, max_pulses=100_000)
    assert result.flipped
    assert result.pattern_name == "single"


def test_every_public_class_has_docstrings():
    from repro.attack.neurohammer import NeuroHammer
    from repro.circuit.crossbar import CrossbarArray
    from repro.devices.jart_vcm import JartVcmModel
    from repro.thermal.fdm import HeatSolver

    for cls in (NeuroHammer, CrossbarArray, JartVcmModel, HeatSolver):
        assert cls.__doc__
        public_methods = [
            getattr(cls, name)
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        ]
        undocumented = [m for m in public_methods if not getattr(m, "__doc__", None)]
        assert not undocumented, f"{cls.__name__} has undocumented public methods: {undocumented}"


def test_error_hierarchy():
    from repro.errors import (
        AddressingError,
        AttackError,
        ConfigurationError,
        ConvergenceError,
        DeviceModelError,
        EccError,
        ExperimentError,
        GeometryError,
        ReproError,
    )

    for exc in (
        ConfigurationError,
        DeviceModelError,
        ConvergenceError,
        GeometryError,
        AttackError,
        AddressingError,
        EccError,
        ExperimentError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)
