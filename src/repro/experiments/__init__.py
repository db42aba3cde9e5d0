"""The reproduced paper figures, declared as cells.

Each experiment declares the simulations it reads as frozen
:class:`~repro.experiments.cells.Cell` specs and reduces their outcomes
to an :class:`~repro.experiments.base.ExperimentResult`: the figure's
rows/series plus shape checks encoding the paper's qualitative claims.
``repro.experiments.run_experiment("fig5c")`` runs one;
``run_experiments(names)`` runs several, simulating each distinct cell
once however many figures read it.  ``python -m repro run all`` prints
every table and exits 1 if any shape check fails.
"""

from .base import ExperimentResult
from .config import PAPER, QUICK, Preset, preset
from .registry import EXPERIMENTS, run_experiment, run_experiments

__all__ = [
    "ExperimentResult",
    "Preset",
    "QUICK",
    "PAPER",
    "preset",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
]
