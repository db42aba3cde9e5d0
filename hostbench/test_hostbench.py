"""Tests of the benchmark's own machinery (not of the simulator)::

    python3 -m pytest hostbench -q
"""

import cProfile
import os
import pstats
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from cells import Cell  # noqa: E402
from checks import conservation, digest  # noqa: E402
from layers import LAYERS, REPRO_DIR, aggregate, layer_of  # noqa: E402
from repro.mpi import Cluster, ClusterConfig  # noqa: E402
from run import Spans, run_pass  # noqa: E402

TINY = Cell(
    "tiny", "throughput",
    cluster=dict(n_nodes=2, threads_per_rank=2, lock="mutex"),
    params=dict(msg_size=1, window=8, n_windows=2),
)


def test_every_repro_module_maps_to_one_named_layer():
    for dirpath, _dirs, files in os.walk(REPRO_DIR):
        for name in files:
            if name.endswith(".py"):
                layer = layer_of(os.path.join(dirpath, name))
                assert layer in LAYERS and layer != "other", (dirpath, name)
    packages = {
        d for d in os.listdir(REPRO_DIR)
        if os.path.isfile(os.path.join(REPRO_DIR, d, "__init__.py"))
    }
    assert packages <= set(LAYERS)
    assert layer_of(os.__file__) == "other"
    assert layer_of("~") == "other"


def test_layers_sum_to_the_profile_total():
    cluster = TINY.build(3)
    prof = cProfile.Profile()
    prof.enable()
    TINY.run(cluster)
    prof.disable()
    ps = pstats.Stats(prof)
    agg = aggregate(ps.stats)
    assert set(agg) == set(LAYERS)
    assert abs(sum(v["self_s"] for v in agg.values()) - ps.total_tt) < 1e-9
    assert sum(v["calls"] for v in agg.values()) == ps.total_calls
    assert agg["mpi"]["calls"] > 0 and agg["sim"]["calls"] > 0


def _pair(leak: bool):
    cluster = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1, seed=0))
    a, b = cluster.thread(0), cluster.thread(1)

    def sender():
        first = yield from a.isend(1, 8)
        second = yield from a.isend(1, 8)
        yield from a.waitall([second] if leak else [first, second])

    def receiver():
        first = yield from b.irecv(source=0, nbytes=8)
        second = yield from b.irecv(source=0, nbytes=8)
        yield from b.waitall([first, second])

    cluster.run_workload([sender(), receiver()])
    return conservation(Cell("pair", "n2n"), cluster, None)


def test_conservation_flags_one_unwaited_isend():
    assert _pair(leak=False) == []
    problems = _pair(leak=True)
    assert problems and all("rank 0" in p for p in problems)
    assert any("2 completed, 1 freed" in p for p in problems)


def _digest(seed: int) -> str:
    cluster = TINY.build(seed)
    result, ops = TINY.run(cluster)
    assert ops == TINY.nominal_ops()
    return digest(TINY, cluster, result)


def test_digest_repeats_at_one_seed_and_differs_across_seeds():
    assert _digest(1) == _digest(1)
    assert _digest(1) != _digest(2)


def test_profiling_does_not_perturb_the_schedule():
    spans = Spans()
    plain = run_pass([TINY], 5, spans)
    traced = run_pass([TINY], 5, spans, cProfile.Profile())
    assert plain["cells"][0]["digest"] == traced["cells"][0]["digest"]
    assert plain["cells"][0]["problems"] == []
    names = {s["name"] for s in spans.records}
    assert names == {"pass", "cell", "setup", "run", "check"}


def test_run_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "lossy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""
