"""CAMPAIGN — serial versus pooled sweep throughput on a small grid.

Runs the same 8-point campaign (a 3x3 crossbar, four pulse lengths times two
ambient temperatures) through the serial path and through a two-worker pool,
prints both throughputs, and checks the two paths agree bit-for-bit.  On a
single-core runner the pool mostly pays process overhead; on real multi-core
hardware the pooled path approaches ``workers``-fold throughput, which is
the point of the campaign engine.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.campaign import CampaignRunner, CampaignSpec


def small_grid() -> CampaignSpec:
    return CampaignSpec(
        name="bench-campaign",
        mode="grid",
        simulation={"geometry": {"rows": 3, "columns": 3}},
        attack={"aggressors": [[1, 1]], "victim": [1, 2]},
        axes=[
            {"path": "attack.pulse.length_s", "values": [10e-9, 30e-9, 50e-9, 70e-9]},
            {"path": "attack.ambient_temperature_k", "values": [298.0, 348.0]},
        ],
    )


def _report_throughput(label: str, report) -> float:
    points_per_s = len(report.records) / report.duration_s if report.duration_s else float("inf")
    print(f"{label}: {len(report.records)} points in {report.duration_s:.3f}s ({points_per_s:.1f} points/s)")
    return points_per_s


def test_bench_campaign_serial(benchmark):
    report = run_once(benchmark, lambda: CampaignRunner(small_grid(), workers=0).run())
    print()
    _report_throughput("serial", report)
    assert all(record.ok for record in report.records)


def test_bench_campaign_pooled(benchmark):
    spec = small_grid()
    report = run_once(benchmark, lambda: CampaignRunner(spec, workers=2).run())
    print()
    pooled = _report_throughput("pooled(2)", report)
    assert all(record.ok for record in report.records)

    serial_report = CampaignRunner(spec, workers=0).run()
    serial = _report_throughput("serial   ", serial_report)
    print(f"pooled/serial throughput ratio: {pooled / serial:.2f}x")
    # The pool must agree with the serial path bit-for-bit.
    assert [r.result for r in report.records] == [r.result for r in serial_report.records]
