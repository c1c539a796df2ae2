"""Smoke tests for the `repro` command line (`python -m repro`)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ResultCache
from repro.cli import build_parser, main

#: A 12-point grid (4 pulse lengths x 3 temperatures) on a fast 3x3 crossbar.
TWELVE_POINT_SPEC = dict(
    name="cli-grid",
    mode="grid",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2]},
    axes=[
        {"path": "attack.pulse.length_s", "values": [10e-9, 30e-9, 50e-9, 70e-9]},
        {"path": "attack.ambient_temperature_k", "values": [298.0, 323.0, 348.0]},
    ],
)


@pytest.fixture
def spec_path(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    CampaignSpec(**TWELVE_POINT_SPEC).to_json(path)
    return path


#: A small Monte-Carlo spec: two axes, tiny populations, fast 3x3 crossbar.
MC_SPEC = dict(
    name="cli-mc",
    kind="montecarlo",
    experiment="montecarlo",
    mode="grid",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 500_000},
    montecarlo={
        "n_samples": 8,
        "seed": 3,
        "distributions": [
            {"path": "device.series_resistance_ohm", "kind": "normal",
             "mean": 1.0, "sigma": 0.05, "relative": True},
        ],
    },
    axes=[
        {"path": "attack.pulse.length_s", "values": [30e-9, 60e-9]},
        {"path": "attack.ambient_temperature_k", "values": [300.0, 325.0]},
    ],
)


@pytest.fixture
def mc_spec_path(tmp_path) -> Path:
    path = tmp_path / "mc_spec.json"
    CampaignSpec(**MC_SPEC).to_json(path)
    return path


class TestParser:
    def test_every_subcommand_is_wired(self):
        parser = build_parser()
        for argv in (
            ["run-fig", "3a"],
            ["campaign", "run", "spec.json"],
            ["campaign", "status", "spec.json"],
            ["mc", "run", "spec.json"],
            ["mc", "map", "spec.json"],
            ["version"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_unknown_figure_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-fig", "9z"])


class TestCampaignRun:
    def test_twelve_point_grid_through_pool_then_cache(self, spec_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(
            ["campaign", "run", str(spec_path), "--workers", "2", "--cache", str(cache_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "12 points, 12 ok (0 cached)" in out
        assert "success rate 100%" in out

        # Second invocation must be served (>=90%) from the cache.
        code = main(["campaign", "run", str(spec_path), "--workers", "2", "--cache", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "12 ok (12 cached)" in out
        assert len(ResultCache(cache_dir).store) == 12

    def test_json_report_and_save_exports(self, spec_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        save_dir = tmp_path / "out"
        code = main(
            [
                "campaign", "run", str(spec_path),
                "--cache", str(cache_dir), "--save", str(save_dir), "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.split("saved campaign exports")[0])
        assert payload["summary"]["ok"] == 12
        assert payload["summary"]["success_rate"] == 1.0
        assert (save_dir / "cli-grid.csv").exists()
        assert (save_dir / "cli-grid.json").exists()

    def test_no_cache_flag_skips_the_cache(self, spec_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["campaign", "run", str(spec_path), "--no-cache"])
        capsys.readouterr()
        assert code == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_missing_spec_is_a_clean_error(self, tmp_path, capsys):
        code = main(["campaign", "run", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "does not exist" in captured.err


class TestCampaignStatus:
    def test_status_before_and_after_run(self, spec_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["campaign", "status", str(spec_path), "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "0/12 points cached" in out
        main(["campaign", "run", str(spec_path), "--cache", str(cache_dir)])
        capsys.readouterr()
        assert main(["campaign", "status", str(spec_path), "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "12/12 points cached" in out


class TestRunFig:
    def test_run_fig_3a_smoke(self, tmp_path, capsys):
        save_dir = tmp_path / "fig"
        code = main(["run-fig", "3a", "--save", str(save_dir), "--chart"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pulse_length_ns" in out
        assert (save_dir / "fig3a.csv").exists()

    def test_run_fig_3a_uses_cache_when_asked(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["run-fig", "3a", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()
        assert len(ResultCache(cache_dir).store) == 10
        assert main(["run-fig", "3a", "--workers", "2", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()

    def test_version_command(self, capsys):
        from repro import __version__

        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestMonteCarloCommands:
    def test_mc_run_prints_population_stats(self, mc_spec_path, capsys):
        assert main(["mc", "run", str(mc_spec_path), "--rows", "4"]) == 0
        out = capsys.readouterr().out
        assert "flip probability" in out
        assert "vectorized engine" in out

    def test_mc_run_overrides_and_json(self, mc_spec_path, capsys):
        assert main(["mc", "run", str(mc_spec_path), "--samples", "4", "--seed", "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["n_samples"] == 4
        assert payload["summary"]["seed"] == 9
        assert "victim_voltage_v" in payload["conditions"]

    def test_mc_run_scalar_engine_agrees(self, mc_spec_path, capsys):
        assert main(["mc", "run", str(mc_spec_path), "--samples", "4", "--scalar", "--json"]) == 0
        scalar = json.loads(capsys.readouterr().out)["summary"]
        assert main(["mc", "run", str(mc_spec_path), "--samples", "4", "--json"]) == 0
        vectorized = json.loads(capsys.readouterr().out)["summary"]
        assert scalar["engine"] == "scalar" and vectorized["engine"] == "vectorized"
        assert scalar["flipped"] == vectorized["flipped"]
        assert scalar["min_pulses_to_flip"] == vectorized["min_pulses_to_flip"]

    def test_mc_map_prints_heatmap_and_caches(self, mc_spec_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        save_dir = tmp_path / "out"
        code = main([
            "mc", "map", str(mc_spec_path),
            "--cache", str(cache_dir), "--save", str(save_dir),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "flip probability" in out
        assert len(ResultCache(cache_dir).store) == 4
        assert (save_dir / "montecarlo.json").exists()
        # Second run is served from the cache.
        assert main(["mc", "map", str(mc_spec_path), "--cache", str(cache_dir)]) == 0
        capsys.readouterr()

    def test_mc_run_export_cells_writes_npz(self, mc_spec_path, tmp_path, capsys):
        import numpy as np

        out_path = tmp_path / "cells.npz"
        assert main([
            "mc", "run", str(mc_spec_path), "--samples", "6",
            "--export-cells", str(out_path),
        ]) == 0
        assert "exported per-cell arrays" in capsys.readouterr().out
        data = np.load(out_path)
        assert data["flipped"].shape == (6,)
        assert data["pulses"].shape == (6,)
        assert data["param.device.series_resistance_ohm"].shape == (6,)
        assert data["valid"].dtype == bool

    def test_mc_run_export_cells_full_array_carries_victims(self, mc_spec_path, tmp_path, capsys):
        import numpy as np

        out_path = tmp_path / "arrays.npz"
        assert main([
            "mc", "run", str(mc_spec_path), "--samples", "2", "--mode", "full_array",
            "--export-cells", str(out_path),
        ]) == 0
        capsys.readouterr()
        data = np.load(out_path)
        assert int(data["n_arrays"]) == 2
        assert data["victims"].shape[1] == 2
        assert data["array_valid"].shape == (2,)
        cells = data["param.device.series_resistance_ohm"]
        assert cells.shape == (2, 9)  # per-cell draws of the 3x3 arrays

    def test_mc_run_show_distributions(self, mc_spec_path, capsys):
        assert main(["mc", "run", str(mc_spec_path), "--show-distributions"]) == 0
        out = capsys.readouterr().out
        assert "source" in out
        assert "placeholder" in out

    def test_mc_map_adaptive_refinement(self, mc_spec_path, capsys):
        assert main([
            "mc", "map", str(mc_spec_path), "--adaptive",
            "--target-ci", "0.2", "--batch-size", "8", "--point-max", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "samples per point" in out
        assert "fewer than the fixed-n equivalent" in out

    def test_campaign_run_shard_size_override(self, spec_path, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "campaign", "run", str(spec_path),
            "--cache", str(cache_dir), "--shard-size", "2",
        ]) == 0
        assert "12 points" in capsys.readouterr().out
        assert len(ResultCache(cache_dir).store) == 12

    def test_mc_commands_reject_attack_kind_specs(self, spec_path, capsys):
        assert main(["mc", "run", str(spec_path)]) == 1
        assert "kind='montecarlo'" in capsys.readouterr().err

    def test_mc_map_needs_two_axes(self, tmp_path, capsys):
        spec = dict(MC_SPEC)
        spec["axes"] = [spec["axes"][0]]
        path = tmp_path / "one_axis.json"
        CampaignSpec(**spec).to_json(path)
        assert main(["mc", "map", str(path)]) == 1
        assert "two" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "version"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
        )
        from repro import __version__

        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__
