"""One runner per reproduced paper figure.

Each runner returns an :class:`~repro.experiments.base.ExperimentResult`
with the figure's rows/series, plus shape checks encoding the paper's
qualitative claims.  ``repro.experiments.run_experiment("fig5c")`` runs
one; ``python -m repro run all`` runs them all, prints the tables and
exits 1 if any shape check fails.
"""

from .base import ExperimentResult
from .config import PAPER, QUICK, Preset, preset
from .registry import EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentResult",
    "Preset",
    "QUICK",
    "PAPER",
    "preset",
    "EXPERIMENTS",
    "run_experiment",
]
