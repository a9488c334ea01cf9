"""Benchmark harness: deployments, metrics, failure scenarios, reports."""

from .deployment import (
    PROTOCOLS,
    Deployment,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from .charts import ascii_chart, bar_chart
from .metrics import Metrics
from .reporting import format_figure_series, format_table, summarize_results
from .scenarios import SCENARIOS, apply_scenario

__all__ = [
    "PROTOCOLS",
    "Deployment",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "Metrics",
    "format_figure_series",
    "format_table",
    "summarize_results",
    "SCENARIOS",
    "apply_scenario",
    "ascii_chart",
    "bar_chart",
]
