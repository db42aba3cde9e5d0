"""The golden-output corpus (``tools/golden.py``): the manifest covers
every experiment and every benchmark cell at every pinned seed and every
pinned trace, a subset
recomputes to its pins within the manifest's stated budget, and
``moved`` names what changed."""

import importlib.util
import pathlib

from repro.experiments import EXPERIMENTS
from repro.obs.events import EventKind

_GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("_golden", _GOLDEN)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_manifest_pins_every_experiment_at_every_seed():
    pins = golden.load()["pins"]
    assert sorted(pins) == sorted(EXPERIMENTS)
    for name, by_seed in pins.items():
        assert sorted(by_seed) == sorted(str(s) for s in golden.SEEDS), name


def test_manifest_pins_every_benchmark_cell_at_every_seed():
    cells = golden._hostbench("cells")
    names = [c.name for w in cells.WORKLOADS.values() for c in w]
    bench = golden.load()["hostbench"]
    assert sorted(bench) == sorted(names)
    for name, by_seed in bench.items():
        assert sorted(by_seed) == sorted(str(s) for s in golden.HOSTBENCH_SEEDS), name


def test_manifest_pins_every_trace_at_its_seed():
    traces = golden.load()["traces"]
    assert sorted(traces) == sorted(golden.TRACES)
    for name, (seed, _categories) in golden.TRACES.items():
        assert sorted(traces[name]) == [str(seed)], name
        pin = traces[name][str(seed)]
        assert sorted(pin) == ["checkpoints", "digest", "events"], name
        assert len(pin["checkpoints"]) == (pin["events"] - 1) // golden.CHECKPOINT, name


def test_tier1_subset_matches_its_pins():
    manifest = golden.load()
    subset = {int(s): names for s, names in manifest["tier1"]["subset"].items()}
    fresh = golden.compute(subset)
    assert golden.moved(manifest["pins"], fresh) == []
    assert sum(len(s) for s in fresh.values()) == sum(map(len, subset.values()))
    bench = golden.hostbench_digests(manifest["tier1"]["hostbench_seeds"])
    assert golden.moved_digests(manifest["hostbench"], bench) == []


def test_moved_digests_names_the_cell_and_seed():
    old = {"c": {"1": "aa", "7": "bb"}}
    assert golden.moved_digests(old, {"c": {"1": "aa"}}) == []
    assert golden.moved_digests(old, {"c": {"1": "ab", "23": "cc"}}) == [
        ("c", "1"), ("c", "23"),
    ]


def test_moved_names_the_experiment_seed_and_keys():
    doc = {"exp_id": "figX", "rows": [[1]], "checks": {"a": True}}
    old = {"figX": {"1": golden.pin(doc)}}
    assert golden.moved(old, {"figX": {"1": golden.pin(doc)}}) == []
    changed = dict(doc, rows=[[2]])
    assert golden.moved(old, {"figX": {"1": golden.pin(changed)}}) == [
        ("figX", "1", ["rows"]),
    ]
    assert golden.moved(old, {"figX": {"0": golden.pin(doc)}}) == [
        ("figX", "0", ["checks", "exp_id", "rows"]),
    ]


class _Ev:
    def __init__(self, i, name="e"):
        self.kind = EventKind.INSTANT
        self.category, self.name, self.ts = "lock", name, i * 1e-9
        self.rank, self.tid, self.value, self.span_id = 0, 1, None, None
        self.args = {"b": 2, "a": (1, 2)}


def _stream(n, moved_at=None):
    s = golden.StreamHash()
    for i in range(n):
        s(_Ev(i, "x" if i == moved_at else "e"))
    return s


def test_first_moved_block_names_the_block_and_its_first_event(monkeypatch):
    monkeypatch.setattr(golden, "CHECKPOINT", 4)
    old = _stream(10).pin()
    assert old["events"] == 10 and len(old["checkpoints"]) == 2
    assert _stream(10).pin() == old
    moved = _stream(10, moved_at=5)
    assert moved.pin() != old
    where = golden.first_moved_block(old, moved)
    assert "first differing block #1 (events from 4)" in where
    assert "lock/e rank 0" in where and repr(4e-9) in where
    assert "block #2" in golden.first_moved_block(old, _stream(9, moved_at=8))
    assert "ends before it" in golden.first_moved_block(old, _stream(8))
