"""Named, seeded random-number streams.

Every stochastic choice in the simulation (CAS-race jitter, workload
payloads, graph generation) draws from a stream obtained by name, so adding
a new consumer never perturbs existing streams and whole-cluster runs are
reproducible from a single master seed.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict

import numpy as np

__all__ = ["RngStreams", "stable_hash", "batched_draws"]

#: Draws fetched per refill by :func:`batched_draws`.
_BATCH = 256


def stable_hash(name: str) -> int:
    """A process-stable 32-bit hash of ``name`` (unlike builtin ``hash``)."""
    return zlib.crc32(name.encode("utf-8"))


def batched_draws(fill: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """Scalar draws for a hot call site, served from vector refills.

    ``fill(n)`` returns ``n`` draws as an array (``gen.random``, or
    ``lambda n: gen.exponential(scale, n) * NS``).  numpy fills a vector
    request from the same bit stream element by element, and an
    elementwise float64 multiply is the same IEEE operation as a scalar
    one, so serving draws from a 256-wide refill yields exactly the
    sequence of repeated scalar calls while paying the numpy call
    overhead once per refill.  Only valid when the returned function is
    the generator's sole consumer: a refill runs the stream ahead of the
    draws actually used.

    ``draw.unread(x)`` hands a drawn value back: the next call returns
    it again.  A bulk replay that looked one draw too far gives it back
    this way (most recent first), and the stream stays exactly the
    sequence of scalar calls."""
    cache: list = []
    pop = cache.pop

    def draw() -> float:
        if not cache:
            cache[:] = fill(_BATCH)[::-1].tolist()
        return pop()

    draw.unread = cache.append
    return draw


class RngStreams:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=(stable_hash(name),)
            )
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RngStreams seed={self.master_seed} streams={len(self._streams)}>"
