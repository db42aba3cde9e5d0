"""Cells: what the experiments declare, and the executor that runs each
distinct one once."""

from repro.experiments import EXPERIMENTS, cells, run_experiments
from repro.experiments.registry import select_experiments


def _declared(quick=True, seed=1):
    return {name: exp.declare(quick, seed)[0] for name, exp in EXPERIMENTS.items()}


def test_run_all_declares_246_runs_and_211_distinct_cells():
    # 245 workload runs plus fig_chaos's watchdog cell; the 35 repeats
    # are the 8-thread throughput and mutex stencil runs figures share.
    declared = _declared()
    ids = [c.id for d in declared.values() for c in d.values()]
    assert len(ids) == 246
    assert len(set(ids)) == 211
    # No experiment declares the same run twice.
    for name, d in declared.items():
        assert len({c.id for c in d.values()}) == len(d), name


def test_figures_that_read_one_run_share_its_cell():
    declared = _declared()
    ids = {name: {k: c.id for k, c in d.items()} for name, d in declared.items()}
    sizes = [size for size, tpn in ids["fig2a"] if tpn == 8]
    assert sizes
    for size in sizes:
        assert ids["fig3a"][size] == ids["fig2a"][(size, 8)]
        assert ids["fig5c"][("ticket", size)] == ids["fig8a"][("ticket", size)]


def test_shared_cells_run_once_and_reduce_as_solo_runs(monkeypatch):
    real = cells.run_cell
    ran = []

    def spy(cell, obs=None):
        ran.append(cell.id)
        return real(cell, obs)

    names = ["fig3c", "fig5a"]
    declared = {n: EXPERIMENTS[n].declare(True, 1)[0] for n in names}
    shared = ({c.id for c in declared["fig3c"].values()}
              & {c.id for c in declared["fig5a"].values()})
    assert len(shared) == len(declared["fig3c"]) > 0

    monkeypatch.setattr(cells, "run_cell", spy)
    together = dict(run_experiments(names, quick=True, seed=1))
    distinct = {c.id for d in declared.values() for c in d.values()}
    assert sorted(ran) == sorted(distinct)
    monkeypatch.setattr(cells, "run_cell", real)
    for name in names:
        solo = EXPERIMENTS[name](quick=True, seed=1)
        assert together[name].to_dict() == solo.to_dict(), name


def test_results_stream_as_soon_as_reduced(monkeypatch):
    real = cells.run_cell
    ran = []

    def spy(cell, obs=None):
        ran.append(cell.id)
        return real(cell, obs)

    monkeypatch.setattr(cells, "run_cell", spy)
    stream = run_experiments(["fig2b", "fig3c"], quick=True, seed=1)
    name, result = next(stream)
    # fig2b is yielded before any of fig3c's cells has run.
    assert name == "fig2b" and result.ok
    assert sorted(ran) == sorted(
        c.id for c in EXPERIMENTS["fig2b"].declare(True, 1)[0].values())
    stream.close()


def test_selector_takes_a_comma_list():
    assert select_experiments("fig3a,fig12b") == ["fig3a", "fig12b"]
    assert select_experiments("fig2,fig2b") == ["fig2a", "fig2b"]
    assert select_experiments("all") == list(EXPERIMENTS)
