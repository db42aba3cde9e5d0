"""Name -> experiment map for every reproduced figure, and its entry points."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..obs import Instrument
from .base import ExperimentResult
from .cells import Experiment, Outcome, execute
from .fig2 import FIG2A, FIG2B
from .fig3 import FIG3A, FIG3C
from .fig5 import FIG5A, FIG5B, FIG5C
from .fig6 import FIG6B
from .fig8 import FIG8A, FIG8B
from .fig9 import FIG9
from .fig10 import FIG10A, FIG10B, FIG10C
from .fig11 import FIG11A, FIG11B
from .fig12 import FIG12B
from .fig_chaos import FIG_CHAOS
from .fig_continuations import FIG_CONTINUATIONS
from .fig_service import FIG_SERVICE
from .fig_vci import FIG_VCI

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_TITLES",
    "run_experiment",
    "run_experiments",
    "select_experiments",
]

#: One-line description per experiment (shown by ``python -m repro list``).
EXPERIMENT_TITLES: Dict[str, str] = {
    "fig2a": "throughput vs size and thread count under the mutex (4x collapse)",
    "fig2b": "compact vs scatter binding: NUMA amplifies contention",
    "fig3a": "arbitration bias factors from lock traces (~2x core, ~1.25x socket)",
    "fig3c": "dangling requests under the mutex (starvation metric)",
    "fig5a": "dangling requests: ticket keeps them low",
    "fig5b": "1-byte throughput: binding x lock x threads (+68% at 4 compact)",
    "fig5c": "size sweep at 8 threads: ticket +30% below 4 KiB",
    "fig6b": "N2N all-to-all: the priority lock vs ticket",
    "fig8a": "throughput, all methods vs single-threaded",
    "fig8b": "latency, all methods (MT beats single for large messages)",
    "fig9": "RMA with async progress: up to 5x from fairness",
    "fig10a": "BFS single-node thread scaling",
    "fig10b": "BFS thread scaling with ranks: fair locks win",
    "fig10c": "BFS weak scaling",
    "fig11a": "stencil strong scaling: gains for small problems",
    "fig11b": "stencil execution breakdown",
    "fig12b": "mini-SWAP assembly: ~2x from fairness, no app change",
    "fig_vci": "per-VCI arbitration domains vs global-CS locks (beyond the paper)",
    "fig_chaos": "goodput vs packet drop with ACK/retransmit + watchdog (beyond the paper)",
    "fig_continuations": "continuation-driven completion vs wait polling (beyond the paper)",
    "fig_service": "open-loop RPC service: overload protection vs collapse (beyond the paper)",
}

#: Every experiment, in registry (report) order.  Each is callable with
#: the uniform ``(quick=True, seed=0, obs=None)`` signature.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig2a": FIG2A,
    "fig2b": FIG2B,
    "fig3a": FIG3A,
    "fig3c": FIG3C,
    "fig5a": FIG5A,
    "fig5b": FIG5B,
    "fig5c": FIG5C,
    "fig6b": FIG6B,
    "fig8a": FIG8A,
    "fig8b": FIG8B,
    "fig9": FIG9,
    "fig10a": FIG10A,
    "fig10b": FIG10B,
    "fig10c": FIG10C,
    "fig11a": FIG11A,
    "fig11b": FIG11B,
    "fig12b": FIG12B,
    "fig_vci": FIG_VCI,
    "fig_chaos": FIG_CHAOS,
    "fig_continuations": FIG_CONTINUATIONS,
    "fig_service": FIG_SERVICE,
}


def select_experiments(name: str) -> list:
    """Expand an experiment selector to registry names, in registry order.

    ``"all"`` selects everything; otherwise ``name`` matches exactly or
    as a prefix (``"fig2"`` covers ``fig2a`` and ``fig2b``), and a comma
    list selects the union (``"fig3a,fig12b"``).  Returns an empty list
    for a selector matching nothing -- callers decide whether that is an
    error (the CLI does).
    """
    parts = name.split(",")
    return [n for n in EXPERIMENTS
            if any(p == "all" or n.startswith(p) for p in parts)]


def run_experiments(
    names: Sequence[str],
    quick: bool = True,
    seed: int = 0,
    obs: Optional[Instrument] = None,
) -> Iterator[Tuple[str, Outcome]]:
    """Run the named experiments together, in this process
    (:func:`~repro.experiments.cells.execute`): the union of their
    cells, each distinct one once, then each reduce.  Yields ``(name,
    ExperimentResult or the exception that failed it)`` in ``names``
    order, each as soon as it is reduced."""
    return execute({n: _lookup(n) for n in names}, quick, seed, obs)


def _lookup(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None


#: Keyword arguments every runner accepts (the uniform signature).
_RUNNER_KWARGS = ("quick", "seed", "obs")


def run_experiment(name: str, **kwargs: object) -> ExperimentResult:
    """Run one experiment by figure id (see ``EXPERIMENTS``).

    Accepted keyword arguments -- the uniform runner signature:

    * ``quick`` (bool, default True): reduced sweep sizes;
    * ``seed`` (int, default 0): master RNG seed;
    * ``obs`` (:class:`repro.obs.Instrument`, default None): attach an
      observability bus to every cluster the experiment builds.

    Unknown kwargs raise ``TypeError`` naming the accepted set, so a
    typo (``sed=3``) fails loudly instead of silently running defaults.
    When a bus is passed, the result's ``data["obs"]`` carries its
    emission stats.
    """
    runner = _lookup(name)
    unknown = sorted(set(kwargs) - set(_RUNNER_KWARGS))
    if unknown:
        raise TypeError(
            f"run_experiment({name!r}) got unknown keyword argument(s) "
            f"{', '.join(repr(k) for k in unknown)}; accepted: "
            f"{', '.join(_RUNNER_KWARGS)}"
        )
    obs = kwargs.get("obs")
    result = runner(**kwargs)  # type: ignore[arg-type]
    if obs is not None:
        result.data["obs"] = obs.stats()
    return result
