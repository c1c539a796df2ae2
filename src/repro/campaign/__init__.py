"""Campaign engine: declarative sweeps, parallel execution, cached results.

This subsystem generalises the ad-hoc sweep loops of the figure experiments
into reusable machinery:

* :class:`~repro.campaign.spec.CampaignSpec` — declarative grid/zip/random
  sweeps over any :class:`~repro.config.SimulationConfig` /
  :class:`~repro.config.AttackConfig` field,
* :class:`~repro.campaign.runner.CampaignRunner` — serial or
  multiprocessing execution with per-job error capture and timeouts,
* :class:`~repro.campaign.cache.ResultCache` — a content-addressed on-disk
  cache that makes re-runs incremental and interrupted campaigns resumable,
  held in a concurrent-safe shared result store (:mod:`repro.store`),
* :mod:`~repro.campaign.aggregate` — reduction of job records back into
  :class:`~repro.experiments.base.ExperimentResult` tables and sweep-level
  summary statistics.

Typical use::

    from repro.campaign import CampaignRunner, CampaignSpec, ResultCache

    spec = CampaignSpec(
        name="spacing-study",
        axes=[{"path": "simulation.geometry.electrode_spacing_m",
               "values": [10e-9, 30e-9, 50e-9, 70e-9, 90e-9]}],
    )
    report = CampaignRunner(spec, cache=ResultCache(".repro-cache"), workers=4).run()
    print(report.summary())
"""

from .aggregate import (
    ensure_complete,
    experiment_row_builder,
    generic_row,
    scenario_success_rates,
    summarise,
    to_experiment_result,
)
from .cache import ResultCache
from .runner import (
    CampaignReport,
    CampaignRunner,
    JobRecord,
    attack_result_to_dict,
    execute_attack_point,
    execute_montecarlo_point,
    execute_point,
    run_campaign_job,
)
from .spec import CampaignPoint, CampaignSpec, SweepAxis, point_key

__all__ = [
    "CampaignSpec",
    "SweepAxis",
    "CampaignPoint",
    "point_key",
    "CampaignRunner",
    "CampaignReport",
    "JobRecord",
    "run_campaign_job",
    "execute_point",
    "execute_attack_point",
    "execute_montecarlo_point",
    "attack_result_to_dict",
    "ResultCache",
    "to_experiment_result",
    "ensure_complete",
    "summarise",
    "scenario_success_rates",
    "generic_row",
    "experiment_row_builder",
]
