"""Fixture: run state in a model module that simlint must flag (the
path puts it in ``repro.workloads``)."""
import itertools
from itertools import count

_ids = count()
_seqs = itertools.count(1)
_seen = {}
_log: list = []


def remember(key, value):
    _seen[key] = value
    _log.append(key)


def forget(key):
    del _seen[key]

