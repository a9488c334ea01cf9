"""Experiment-campaign orchestration: DAGs of deterministic runs.

The sweep package turns the paper's evaluation into data: a
:class:`Campaign` is a DAG of :class:`RunSpec` nodes (grid expansion
plus explicit dependencies) with the paper's claims about its results
(:class:`Claim`), a scheduler fans ready runs across a process pool (the
package's one use of several host cores), and a :class:`ResultStore`
keys every completed run by a config digest so a warm campaign re-run
executes nothing.  Figures, tables, and the ``BENCH_*.json`` perf
baselines regenerate byte-identically from the store.

Entry points: ``repro sweep --campaign <name>`` on the CLI, or
:func:`run_campaign` / :func:`get_campaign` from code.
"""

from .calibrate import calibrate_host, host_info
from .campaigns import (PROTOCOLS, batch_points, campaign_names,
                        cluster_size_points, failure_points, full_scale,
                        geo_scale_points, get_campaign, point_config,
                        register_campaign, scale_config, sim_duration)
from .model import (Campaign, Claim, ReportSpec, RunSpec, SWEEP_SCHEMA,
                    config_fingerprint, expand_grid, record_series,
                    result_from_record)
from .runner import execute_run
from .scheduler import CampaignOutcome, SweepScheduler, run_campaign
from .store import (OVERLOAD_BENCH, SCALE_BENCH, ResultStore,
                    compare_baseline, import_bench, point_from_record,
                    render_bench)

__all__ = [
    "Campaign",
    "CampaignOutcome",
    "Claim",
    "OVERLOAD_BENCH",
    "PROTOCOLS",
    "ReportSpec",
    "ResultStore",
    "RunSpec",
    "SCALE_BENCH",
    "SWEEP_SCHEMA",
    "SweepScheduler",
    "batch_points",
    "calibrate_host",
    "campaign_names",
    "cluster_size_points",
    "compare_baseline",
    "config_fingerprint",
    "execute_run",
    "expand_grid",
    "failure_points",
    "full_scale",
    "geo_scale_points",
    "get_campaign",
    "host_info",
    "import_bench",
    "point_config",
    "point_from_record",
    "record_series",
    "register_campaign",
    "render_bench",
    "result_from_record",
    "run_campaign",
    "scale_config",
    "sim_duration",
]
