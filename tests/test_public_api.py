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
    assert repro.__version__ == "1.18.0"


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
