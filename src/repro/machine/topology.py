"""Node topology model: sockets, cores, and proximity classes.

The reproduction's default machine mirrors Table 1 of the paper: a
dual-socket Intel Nehalem (Xeon E5540) node with 4 cores per socket and SMT
disabled.  Only the *shape* of the hierarchy matters for lock arbitration:
two cores are either the same core, on the same socket (shared L3), or on
different sockets (cache lines cross the interconnect).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

__all__ = [
    "Proximity", "MachineSpec", "Core", "Socket", "Machine", "distance",
    "nehalem_node",
]


class Proximity(enum.IntEnum):
    """Distance class between two cores, ordered by increasing cost."""

    SAME_CORE = 0
    SAME_SOCKET = 1
    REMOTE = 2


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a node (paper Table 1 by default)."""

    architecture: str = "Nehalem"
    processor: str = "Xeon E5540"
    clock_ghz: float = 2.6
    n_sockets: int = 2
    cores_per_socket: int = 4
    l3_kib: int = 8192
    l2_kib: int = 256
    interconnect: str = "Mellanox QDR"

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.cores_per_socket


@dataclass(frozen=True, eq=True)
class Core:
    """One physical core.  ``index`` is node-global, ``socket`` its package."""

    node: int
    socket: int
    index: int

    def proximity(self, other: "Core") -> Proximity:
        """Distance class from this core to ``other`` (same node assumed)."""
        return Proximity(distance(self, other))


def distance(core: Core, other: Core) -> int:
    """``core.proximity(other)`` as a plain int, for indexing per-class
    cost tuples on the lock paths (an ``IntEnum`` index pays for the
    member's ``__index__``)."""
    if core.node != other.node:
        raise ValueError(
            f"proximity undefined across nodes ({core.node} vs {other.node})"
        )
    if core.index == other.index:
        return 0  # Proximity.SAME_CORE
    if core.socket == other.socket:
        return 1  # Proximity.SAME_SOCKET
    return 2  # Proximity.REMOTE


@dataclass
class Socket:
    node: int
    index: int
    cores: List[Core] = field(default_factory=list)


class Machine:
    """A single cluster node: sockets populated with cores."""

    def __init__(self, node_id: int = 0, spec: MachineSpec | None = None):
        self.node_id = node_id
        self.spec = spec or MachineSpec()
        self.sockets: List[Socket] = []
        self.cores: List[Core] = []
        for s in range(self.spec.n_sockets):
            sock = Socket(node=node_id, index=s)
            for c in range(self.spec.cores_per_socket):
                core = Core(
                    node=node_id,
                    socket=s,
                    index=s * self.spec.cores_per_socket + c,
                )
                sock.cores.append(core)
                self.cores.append(core)
            self.sockets.append(sock)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def n_sockets(self) -> int:
        return len(self.sockets)

    def core(self, index: int) -> Core:
        return self.cores[index]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Machine node={self.node_id} {self.spec.processor} "
            f"{self.n_sockets}x{self.spec.cores_per_socket} cores>"
        )


def nehalem_node(node_id: int = 0) -> Machine:
    """The paper's testbed node (Table 1)."""
    return Machine(node_id=node_id, spec=MachineSpec())
