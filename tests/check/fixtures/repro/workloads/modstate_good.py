"""Fixture: constants and run-owned state simlint must accept in a model
module (the path puts it in ``repro.workloads``)."""
from itertools import count

#: A registry built at import time and only read afterwards.
REGISTRY = {"int": int, "float": float}
REGISTRY["complex"] = complex
KINDS = ("x", "y")


def lookup(name):
    return REGISTRY[name]


def fresh_ids():
    ids = count()
    return next(ids)


def shadowed(REGISTRY):
    REGISTRY["local"] = None
    return REGISTRY


class Run:
    def __init__(self):
        self.seen = {}

    def remember(self, key, value):
        self.seen[key] = value
