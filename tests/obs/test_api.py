"""API-surface tests: keyword-only config with validation, the uniform
runner signature, and run_experiment's strict kwargs."""

import inspect

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.mpi.world import ClusterConfig
from repro.obs import Recording


def test_cluster_config_is_keyword_only():
    with pytest.raises(TypeError):
        ClusterConfig(2)  # positional n_nodes no longer allowed


def test_cluster_config_rejects_unknown_lock():
    with pytest.raises(ValueError, match="valid locks.*ticket"):
        ClusterConfig(n_nodes=2, lock="tikcet")


def test_cluster_config_rejects_unknown_binding():
    with pytest.raises(ValueError, match="valid bindings"):
        ClusterConfig(n_nodes=2, binding="spread")


def test_cluster_config_rejects_unknown_completion():
    with pytest.raises(ValueError, match="valid modes.*continuation"):
        ClusterConfig(n_nodes=2, completion="spin")


def test_all_runners_share_the_uniform_signature():
    expected = ["quick", "seed", "obs"]
    for name, runner in EXPERIMENTS.items():
        params = inspect.signature(runner).parameters
        assert list(params) == expected, name
        assert params["quick"].default is True, name
        assert params["seed"].default == 0, name
        assert params["obs"].default is None, name


def test_run_experiment_rejects_unknown_kwargs():
    with pytest.raises(TypeError) as ei:
        run_experiment("fig2b", sed=3)
    msg = str(ei.value)
    assert "'sed'" in msg
    assert "quick" in msg and "seed" in msg and "obs" in msg


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_run_experiment_attaches_obs_stats():
    rec = Recording()
    res = run_experiment("fig2b", quick=True, seed=1, obs=rec.bus)
    assert res.ok
    stats = res.data["obs"]
    assert stats["total"] > 0
    assert stats["events_emitted"]["lock"] > 0


def test_result_to_dict_is_json_serializable():
    import json

    res = run_experiment("fig5a", quick=True, seed=1)
    doc = res.to_dict()
    text = json.dumps(doc)
    assert json.loads(text)["exp_id"] == "fig5a"
    assert doc["ok"] is True
