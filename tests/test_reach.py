"""The reachability audit's function table and never-called matching,
run on a small fixture module (no experiment runs)."""

import cProfile
import importlib.util
import os
import pathlib

_REACH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("_reach", _REACH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
def decorated(x):
    return x + 1


def outer():
    def inner():
        return 2
    return inner()


class Thing:
    def method(self):
        return 3


def unused(a, b):
    total = a + b
    return total


def run():
    return decorated(1) + outer() + Thing().method()
'''


def test_only_the_uncalled_function_is_reported(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    path = pkg / "fixture.py"
    path.write_text(FIXTURE)
    table = reach.function_table(pkg)
    assert sorted(name for name, _n in table.values()) == [
        "Thing.method", "deco", "deco.<locals>.wrapper", "decorated",
        "outer", "outer.<locals>.inner", "run", "unused",
    ]

    profile = cProfile.Profile()
    profile.enable()
    try:
        spec = importlib.util.spec_from_file_location("_reach_fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.run() == 7
    finally:
        profile.disable()

    line = FIXTURE.splitlines().index("def unused(a, b):") + 1
    assert reach.never_called(table, reach.called(profile)) == [
        (3, os.path.realpath(path), line, "unused"),
    ]
