"""Benchmark harness: deployments, metrics, failure scenarios, reports."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".deployment": ("PROTOCOLS", "Deployment", "ExperimentConfig",
                    "ExperimentResult", "run_experiment"),
    ".metrics": ("Metrics",),
    ".reporting": ("format_figure_series", "format_table",
                   "summarize_results"),
    ".scenarios": ("SCENARIOS", "apply_scenario"),
    ".charts": ("ascii_chart", "bar_chart"),
})
