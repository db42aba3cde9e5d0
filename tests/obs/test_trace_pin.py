"""Pin of ``repro trace fig_vci``: the Chrome trace and the counter
series of one quick run at seed 1, ``sim`` category included, hash to
the literals below.  Any change to the schedule, the emitted events or
the exporters moves them.

The run is a fresh interpreter: thread ids, packet seqs, request ids
and lock ids come from process-global counters, so a second run in the
same process would shift them in the trace.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro

TRACE_BLAKE2B = "d34d4a341ff46222ce6883331570612a"
COUNTERS_BLAKE2B = "38d7956e7cf4af0e9303839ecec7a33a"


def _blake2b(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def test_fig_vci_trace_and_counters_are_pinned(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    out, counters = tmp_path / "trace.json", tmp_path / "counters.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "fig_vci", "--seed", "1",
         "--categories", "lock,mpi,net,fault,meta,sim",
         "--out", str(out), "--counters", str(counters)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _blake2b(out) == TRACE_BLAKE2B
    assert _blake2b(counters) == COUNTERS_BLAKE2B
