"""Instrumentation and estimators: bias factors, lock-usage reports,
performance metrics, and report formatting.  The ablation names load
on first use (PEP 562): their runner imports :mod:`multiprocessing`."""

from .bias import BiasFactors, compute_bias_factors
from .lock_report import (
    LockUsage,
    analyze_lock_usage,
    transition_histogram,
    wasted_acquisition_fraction,
)
from .metrics import TimeBreakdown, message_rate_k, speedup
from .report import format_rate, format_size, format_table

_ABLATION_NAMES = (
    "COMPONENTS",
    "Cell",
    "Component",
    "build_matrix",
    "cell_run_id",
    "extract_metrics",
    "importance_report",
    "rank_components",
    "run_matrix",
)

__all__ = [
    *_ABLATION_NAMES,
    "BiasFactors",
    "compute_bias_factors",
    "LockUsage",
    "analyze_lock_usage",
    "transition_histogram",
    "wasted_acquisition_fraction",
    "TimeBreakdown",
    "message_rate_k",
    "speedup",
    "format_table",
    "format_size",
    "format_rate",
]


def __getattr__(name: str):
    if name in _ABLATION_NAMES:
        from . import ablation

        return getattr(ablation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
