"""Tests for the analysis/instrumentation modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import compute_bias_factors, format_size, format_table
from repro.locks.stats import LockTrace
from repro.workloads.stencil.runner import TimeBreakdown
from repro.workloads.throughput import message_rate_k


def synthetic_trace(tids, sockets, contenders, prev_socket_counts, holds=None):
    tr = LockTrace()
    tr.times = list(np.arange(len(tids), dtype=float))
    tr.tids = list(tids)
    tr.sockets = list(sockets)
    tr.n_contenders = list(contenders)
    tr.n_contenders_prev_socket = list(prev_socket_counts)
    tr.hold_times = holds if holds is not None else [0.1] * len(tids)
    return tr


class TestBiasFactors:
    def test_perfect_monopoly_bias(self):
        """Same thread always reacquires with 2 contenders: observed Pc=1,
        fair Pc=0.5 -> core bias 2."""
        n = 100
        tr = synthetic_trace([7] * n, [0] * n, [2] * n, [2] * n)
        b = compute_bias_factors(tr)
        assert b.pc_observed == 1.0
        assert b.pc_fair == pytest.approx(0.5)
        assert b.core_bias == pytest.approx(2.0)
        assert b.socket_bias == pytest.approx(1.0)

    def test_round_robin_is_antibiased(self):
        tids = [0, 1] * 50
        tr = synthetic_trace(tids, [0] * 100, [2] * 100, [2] * 100)
        b = compute_bias_factors(tr)
        assert b.pc_observed == 0.0
        assert b.core_bias == 0.0

    def test_socket_bias_detected(self):
        # Alternate threads 0/1, both socket 0, while half the waiters
        # sit on socket 1: observed Ps=1, fair Ps=0.5 -> bias 2.
        tids = [0, 1] * 50
        tr = synthetic_trace(tids, [0] * 100, [4] * 100, [2] * 100)
        b = compute_bias_factors(tr)
        assert b.socket_bias == pytest.approx(2.0)

    def test_min_contenders_filter(self):
        tr = synthetic_trace([0] * 10, [0] * 10, [1] * 10, [1] * 10)
        with pytest.raises(ValueError, match="no acquisitions"):
            compute_bias_factors(tr, min_contenders=2)
        b = compute_bias_factors(tr, min_contenders=1)
        assert b.core_bias == pytest.approx(1.0)

    def test_short_trace_rejected(self):
        tr = synthetic_trace([0], [0], [1], [1])
        with pytest.raises(ValueError, match="too short"):
            compute_bias_factors(tr)


class TestGrantDangling:
    def test_samples_on_lock_grant(self):
        from repro.mpi import Cluster, ClusterConfig

        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1, lock="ticket"))
        rt = cl.runtimes[1]
        t0, t1 = cl.thread(0), cl.thread(1)

        def sender():
            yield from t0.send(1, 64, tag=0, data="x")

        def receiver():
            yield from t1.recv(source=0, tag=0)

        cl.run_workload([sender(), receiver()])
        # One sample per critical-section entry.
        s = rt.stats
        assert rt.grant_samples == s.cs_entries_main + s.cs_entries_progress > 0
        assert rt.grant_dangling_max * rt.grant_samples >= rt.grant_dangling_sum >= 0

    def test_empty_stats(self):
        from repro.mpi import Cluster, ClusterConfig

        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1, lock="ticket"))
        rt = cl.runtimes[0]
        assert rt.grant_samples == rt.grant_dangling_sum == rt.grant_dangling_max == 0


class TestMetrics:
    def test_message_rate_k(self):
        assert message_rate_k(1000, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            message_rate_k(10, 0.0)

    def test_breakdown_percentages(self):
        b = TimeBreakdown()
        b.add("a", 3.0)
        b.add("b", 1.0)
        b.add("a", 1.0)
        pct = b.percentages()
        assert pct["a"] == pytest.approx(80.0)
        assert pct["b"] == pytest.approx(20.0)
        assert b.total == pytest.approx(5.0)

    def test_breakdown_empty_and_negative(self):
        b = TimeBreakdown()
        assert b.percentages() == {}
        with pytest.raises(ValueError):
            b.add("x", -1.0)


class TestReport:
    def test_format_size(self):
        assert format_size(1) == "1"
        assert format_size(1023) == "1023"
        assert format_size(1024) == "1K"
        assert format_size(4096) == "4K"
        assert format_size(1 << 20) == "1M"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[2:]}) == 1  # aligned rows

    def test_format_table_bad_row(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a"], [[1, 2]])


def test_simulation_imports_leave_multiprocessing_out():
    # The ablation runner imports its process pool; a simulation must
    # not pay for it.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro.workloads\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing'\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_application_runners_leave_analysis_and_obs_out():
    # The application workloads are model code: none of them may pull
    # in the analysis, tracing or lock-statistics modules.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import repro.workloads.stencil.runner\n"
        "import repro.workloads.bfs.runner\n"
        "import repro.workloads.assembly.assembler\n"
        "bad = sorted(m for m in sys.modules if m.startswith(\n"
        "    ('repro.analysis', 'repro.obs', 'repro.locks.stats')))\n"
        "assert not bad, bad\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
