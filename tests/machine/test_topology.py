"""Tests for the machine model (paper Table 1)."""

from dataclasses import replace

import pytest

from repro.machine import (
    CostModel,
    Machine,
    MachineSpec,
    Proximity,
    ThreadCtx,
    compact_binding,
    explicit_binding,
    nehalem_node,
    scatter_binding,
)


def test_table1_default_spec():
    m = nehalem_node()
    assert m.spec.architecture == "Nehalem"
    assert m.spec.processor == "Xeon E5540"
    assert m.spec.n_sockets == 2
    assert m.spec.cores_per_socket == 4
    assert m.spec.l3_kib == 8192
    assert m.spec.l2_kib == 256
    assert m.spec.interconnect == "Mellanox QDR"
    assert m.n_cores == 8


def test_core_indices_are_global_and_socket_assigned():
    m = nehalem_node()
    assert [c.index for c in m.cores] == list(range(8))
    assert [c.socket for c in m.cores] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert len(m.sockets) == 2
    assert [c.index for c in m.sockets[1].cores] == [4, 5, 6, 7]


def test_proximity_classes():
    m = nehalem_node()
    c0, c1, c4 = m.core(0), m.core(1), m.core(4)
    assert c0.proximity(c0) == Proximity.SAME_CORE
    assert c0.proximity(c1) == Proximity.SAME_SOCKET
    assert c0.proximity(c4) == Proximity.REMOTE
    assert c4.proximity(c0) == Proximity.REMOTE


def test_proximity_cross_node_rejected():
    a, b = nehalem_node(0), nehalem_node(1)
    with pytest.raises(ValueError):
        a.core(0).proximity(b.core(0))


def test_custom_spec():
    m = Machine(spec=MachineSpec(n_sockets=4, cores_per_socket=2))
    assert m.n_cores == 8
    assert [c.socket for c in m.cores] == [0, 0, 1, 1, 2, 2, 3, 3]


def test_compact_binding_fills_socket_first():
    m = nehalem_node()
    cores = compact_binding(m, 4)
    assert [c.socket for c in cores] == [0, 0, 0, 0]
    cores = compact_binding(m, 8)
    assert [c.socket for c in cores] == [0] * 4 + [1] * 4


def test_compact_binding_wraps_beyond_cores():
    m = nehalem_node()
    cores = compact_binding(m, 10)
    assert cores[8].index == 0 and cores[9].index == 1


def test_scatter_binding_round_robins_sockets():
    m = nehalem_node()
    cores = scatter_binding(m, 4)
    assert [c.socket for c in cores] == [0, 1, 0, 1]
    assert len({c.index for c in cores}) == 4


def test_binding_rejects_zero_threads():
    m = nehalem_node()
    with pytest.raises(ValueError):
        compact_binding(m, 0)
    with pytest.raises(ValueError):
        scatter_binding(m, 0)


def test_explicit_binding():
    m = nehalem_node()
    cores = explicit_binding(m, [7, 0, 3])
    assert [c.index for c in cores] == [7, 0, 3]


def test_thread_ctx_identity_and_proximity():
    m = nehalem_node()
    a = ThreadCtx(m.core(0), name="a")
    b = ThreadCtx(m.core(5), name="b")
    assert a.tid != b.tid
    assert a.socket == 0 and b.socket == 1
    assert a.proximity(b) == Proximity.REMOTE


def test_cost_model_orders_proximity():
    cm = CostModel()
    assert cm.atomic_s[Proximity.SAME_CORE] < cm.atomic_s[Proximity.SAME_SOCKET]
    assert cm.atomic_s[Proximity.SAME_SOCKET] < cm.atomic_s[Proximity.REMOTE]
    assert cm.handoff_s[Proximity.SAME_CORE] < cm.handoff_s[Proximity.REMOTE]


def test_cost_model_futex_dwarfs_cas():
    cm = CostModel()
    # The monopolization mechanism requires a futex wake to be far more
    # expensive than a local CAS (paper 2.2).
    assert cm.futex_wake > 10 * cm.atomic_s[Proximity.REMOTE]


def test_cost_model_copy_time_scales():
    cm = CostModel()
    assert cm.copy_time(0) == 0.0
    assert cm.copy_time(2000) == pytest.approx(2 * cm.copy_time(1000))
    assert cm.copy_time(1000, unexpected=True) == pytest.approx(
        cm.unexpected_copy_factor * cm.copy_time(1000)
    )


def test_cost_model_overrides():
    cm = replace(CostModel(), futex_wake_ns=9999.0)
    assert cm.futex_wake == pytest.approx(9999e-9)
    # Original untouched (frozen dataclass semantics).
    assert CostModel().futex_wake_ns != 9999.0
