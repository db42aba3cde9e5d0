"""Collective operations built on the runtime's pt2pt path.

Implemented with the classic MPICH algorithms (binomial trees, pairwise
exchange, dissemination barrier), so every collective exercises the same
critical section and progress engine the paper studies.

Tag discipline: collectives draw tags from a reserved space above
``COLL_TAG_BASE`` keyed by a per-communicator sequence number, so they
never match application traffic.  As in MPI, all ranks must invoke
collectives over a communicator in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .runtime import MpiThread

__all__ = ["Communicator", "barrier", "bcast", "reduce", "allreduce", "alltoall"]

COLL_TAG_BASE = 1 << 20
_MAX_ROUNDS = 64


@dataclass(frozen=True)
class Communicator:
    """An ordered group of ranks with a communicator id."""

    id: int
    ranks: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def index(self, rank: int) -> int:
        return self.ranks.index(rank)

    @staticmethod
    def world(n_ranks: int) -> "Communicator":
        return Communicator(id=0, ranks=tuple(range(n_ranks)))


def _next_tag(th: MpiThread, comm: Communicator) -> int:
    rt = th.runtime
    seq = rt.coll_seq.get(comm.id, 0)
    rt.coll_seq[comm.id] = seq + 1
    return COLL_TAG_BASE + seq * _MAX_ROUNDS


def barrier(th: MpiThread, comm: Communicator):
    """Dissemination barrier (works for any communicator size)."""
    p = comm.size
    if p == 1:
        return
        yield  # pragma: no cover
    me = comm.index(th.rank)
    base = _next_tag(th, comm)
    k = 0
    dist = 1
    while dist < p:
        dst = comm.ranks[(me + dist) % p]
        src = comm.ranks[(me - dist) % p]
        sreq = yield from th.isend(dst, 0, tag=base + k, comm=comm.id)
        rreq = yield from th.irecv(source=src, tag=base + k, comm=comm.id)
        yield from th.waitall((sreq, rreq))
        dist <<= 1
        k += 1


def bcast(
    th: MpiThread,
    comm: Communicator,
    value: Any = None,
    root: int = 0,
    nbytes: int = 8,
):
    """Binomial-tree broadcast; returns the root's value on every rank."""
    p = comm.size
    if p == 1:
        return value
        yield  # pragma: no cover
    me = comm.index(th.rank)
    root_idx = comm.index(root)
    rel = (me - root_idx) % p
    base = _next_tag(th, comm)

    mask = 1
    while mask < p:
        if rel & mask:
            src = comm.ranks[((rel - mask) + root_idx) % p]
            value = yield from th.recv(source=src, nbytes=nbytes,
                                       tag=base, comm=comm.id)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < p:
            dst = comm.ranks[((rel + mask) + root_idx) % p]
            yield from th.send(dst, nbytes, tag=base, comm=comm.id, data=value)
        mask >>= 1
    return value


def reduce(
    th: MpiThread,
    comm: Communicator,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
    nbytes: int = 8,
):
    """Binomial-tree reduction to ``root``; non-roots return None."""
    p = comm.size
    if p == 1:
        return value
        yield  # pragma: no cover
    me = comm.index(th.rank)
    root_idx = comm.index(root)
    rel = (me - root_idx) % p
    base = _next_tag(th, comm)

    acc = value
    mask = 1
    while mask < p:
        if rel & mask:
            dst = comm.ranks[((rel - mask) + root_idx) % p]
            yield from th.send(dst, nbytes, tag=base, comm=comm.id, data=acc)
            return None
        src_rel = rel + mask
        if src_rel < p:
            src = comm.ranks[(src_rel + root_idx) % p]
            other = yield from th.recv(source=src, nbytes=nbytes,
                                       tag=base, comm=comm.id)
            acc = op(acc, other)
        mask <<= 1
    return acc


def allreduce(
    th: MpiThread,
    comm: Communicator,
    value: Any,
    op: Callable[[Any, Any], Any],
    nbytes: int = 8,
):
    """Reduce to rank 0 of the communicator, then broadcast."""
    total = yield from reduce(th, comm, value, op, root=comm.ranks[0], nbytes=nbytes)
    total = yield from bcast(th, comm, total, root=comm.ranks[0], nbytes=nbytes)
    return total


def alltoall(
    th: MpiThread,
    comm: Communicator,
    values: Sequence[Any],
    nbytes_each: int = 8,
):
    """Pairwise-exchange all-to-all; ``values[i]`` goes to comm rank i.
    Returns the list of values received, indexed by source comm rank."""
    p = comm.size
    if len(values) != p:
        raise ValueError(f"need {p} values, got {len(values)}")
    me = comm.index(th.rank)
    base = _next_tag(th, comm)
    out: List[Optional[Any]] = [None] * p
    out[me] = values[me]
    for step in range(1, p):
        dst_idx = (me + step) % p
        src_idx = (me - step) % p
        sreq = yield from th.isend(
            comm.ranks[dst_idx], nbytes_each, tag=base + (step % _MAX_ROUNDS),
            comm=comm.id, data=values[dst_idx],
        )
        rreq = yield from th.irecv(
            source=comm.ranks[src_idx], nbytes=nbytes_each,
            tag=base + (step % _MAX_ROUNDS), comm=comm.id,
        )
        yield from th.waitall((sreq, rreq))
        out[src_idx] = rreq.data
    return out

