"""Pin of ``repro trace fig_vci``: the Chrome trace and the counter
series of one quick run at seed 1, ``sim`` category included, hash to
the literals below.  Any change to the schedule, the emitted events or
the exporters moves them.

The runs are in-process: each simulator numbers its thread ids, packet
seqs, request ids and lock ids from 0 (``Simulator.ids``), so a trace
does not depend on what ran earlier in the interpreter.  The second test
holds that to byte-identical traces and counter dumps on a repeat run.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

TRACE_BLAKE2B = "b98d306c7e0d88cbef5b71191c791861"
COUNTERS_BLAKE2B = "09c4216a04e293ac2da4b3f5830d4325"

#: fig_vci is pinned with the ``sim`` category; fig_chaos records the
#: CLI's default categories.
CATEGORIES = {"fig_vci": ["--categories", "lock,mpi,net,fault,meta,sim"],
              "fig_chaos": []}


def _blake2b(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _trace(name: str, out_dir: Path):
    """``repro trace <name> --seed 1`` (a fresh bus per call); returns
    the blake2b of the trace and of the counter dump."""
    out_dir.mkdir()
    out, counters = out_dir / "trace.json", out_dir / "counters.json"
    assert main(["trace", name, "--seed", "1", *CATEGORIES[name],
                 "--out", str(out), "--counters", str(counters)]) == 0
    return _blake2b(out), _blake2b(counters)


def test_fig_vci_trace_and_counters_are_pinned(tmp_path):
    assert _trace("fig_vci", tmp_path / "run") == (
        TRACE_BLAKE2B, COUNTERS_BLAKE2B,
    )


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_a_second_run_in_one_process_traces_the_same(name, tmp_path):
    first = _trace(name, tmp_path / "first")
    assert _trace(name, tmp_path / "second") == first
