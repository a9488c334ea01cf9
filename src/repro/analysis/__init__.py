"""Analysis helpers: Table 2 complexity formulas and traffic reports."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".complexity": ("ComplexityRow", "analytic_complexity",
                    "measured_complexity"),
    ".traffic": ("LinkUsage", "busiest_sender_region", "cross_region_totals",
                 "format_link_report", "link_usage"),
})
