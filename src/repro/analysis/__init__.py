"""Instrumentation and estimators: bias factors and report formatting.  The ablation runner lives in
:mod:`repro.analysis.ablation`, imported on its own because it imports
:mod:`multiprocessing`."""

from .bias import BiasFactors, compute_bias_factors
from .report import format_size, format_table

__all__ = [
    "BiasFactors",
    "compute_bias_factors",
    "format_table",
    "format_size",
]
