"""Message envelopes and matching semantics.

An envelope is the (source, tag, communicator) triple MPI matches on.
Posted receives may use the ``ANY_SOURCE`` / ``ANY_TAG`` wildcards; the
paper's multithreaded throughput benchmark relies on wildcard-equivalent
matching ("we do not tag messages so that threads can match any message
from the same process and communicator", 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ANY_SOURCE", "ANY_TAG", "Envelope", "matches"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True, unsafe_hash=True)
class Envelope:
    """(source, tag, comm).  For incoming messages all fields are concrete;
    posted receives may hold wildcards in ``source``/``tag``.

    A value: nothing assigns a field after construction, and equality,
    hash and repr are those of a frozen dataclass.  It is not declared
    frozen because one is built on every ``isend`` and ``irecv``, and a
    frozen dataclass's ``__init__`` pays an ``object.__setattr__`` call
    per field (DESIGN.md section 9)."""

    source: int
    tag: int
    comm: int = 0

    def is_concrete(self) -> bool:
        return self.source != ANY_SOURCE and self.tag != ANY_TAG


def matches(pattern: Envelope, incoming: Envelope) -> bool:
    """Does a posted-receive ``pattern`` match a concrete ``incoming``?"""
    if not incoming.is_concrete():
        raise ValueError(f"incoming envelope must be concrete: {incoming}")
    if pattern.comm != incoming.comm:
        return False
    if pattern.source != ANY_SOURCE and pattern.source != incoming.source:
        return False
    if pattern.tag != ANY_TAG and pattern.tag != incoming.tag:
        return False
    return True
