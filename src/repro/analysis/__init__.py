"""Instrumentation and estimators: bias factors, performance metrics,
and report formatting.  The ablation runner lives in
:mod:`repro.analysis.ablation`, imported on its own because it imports
:mod:`multiprocessing`."""

from .bias import BiasFactors, compute_bias_factors
from .metrics import TimeBreakdown, message_rate_k
from .report import format_size, format_table

__all__ = [
    "BiasFactors",
    "compute_bias_factors",
    "TimeBreakdown",
    "message_rate_k",
    "format_table",
    "format_size",
]
