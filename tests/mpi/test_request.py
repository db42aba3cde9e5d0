"""Request lifecycle (paper Fig. 3b state diagram)."""

import pytest

from repro.mpi import Envelope, ReqKind, ReqState, Request, RequestError
from repro.mpi.request import Protocol
from repro.sim import Simulator


def make_req(**kw):
    defaults = dict(
        req_id=0, kind=ReqKind.RECV, rank=0, owner_tid=1,
        envelope=Envelope(0, 0, 0), nbytes=100, now=0.0,
    )
    defaults.update(kw)
    return Request(**defaults)


def test_initial_state_is_issued():
    r = make_req()
    assert r.state is ReqState.ISSUED
    assert not r.complete and not r.freed and not r.dangling


def test_issue_post_complete_free_path():
    r = make_req()
    r.mark_posted()
    assert r.state is ReqState.POSTED
    r.mark_complete(1.0)
    assert r.complete and r.dangling and not r.freed
    assert r.t_completed == 1.0
    r.mark_freed(2.0)
    assert r.freed and not r.dangling
    assert r.t_freed == 2.0


def test_issue_complete_directly():
    """Unexpected-queue hit: request completes without being posted."""
    r = make_req()
    r.mark_complete(1.0)
    assert r.complete


def test_pending_transition_for_sends():
    r = make_req(kind=ReqKind.SEND)
    r.mark_pending()
    assert r.state is ReqState.PENDING
    r.mark_complete(1.0)
    assert r.complete


def test_posted_then_pending_for_rendezvous():
    r = make_req()
    r.mark_posted()
    r.mark_pending()
    assert r.state is ReqState.PENDING


def test_double_complete_rejected():
    r = make_req()
    r.mark_complete(1.0)
    with pytest.raises(RequestError):
        r.mark_complete(2.0)


def test_free_before_complete_rejected():
    r = make_req()
    with pytest.raises(RequestError):
        r.mark_freed(1.0)
    r.mark_posted()
    with pytest.raises(RequestError):
        r.mark_freed(1.0)


def test_double_free_rejected():
    r = make_req()
    r.mark_complete(1.0)
    r.mark_freed(2.0)
    with pytest.raises(RequestError):
        r.mark_freed(3.0)


def test_post_after_complete_rejected():
    r = make_req()
    r.mark_complete(1.0)
    with pytest.raises(RequestError):
        r.mark_posted()


def test_pending_after_complete_rejected():
    r = make_req()
    r.mark_complete(1.0)
    with pytest.raises(RequestError):
        r.mark_pending()


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        make_req(nbytes=-1)


def test_request_ids_unique():
    ids = Simulator(seed=0).ids.request  # each run numbers from 0
    a, b = make_req(req_id=next(ids)), make_req(req_id=next(ids))
    assert (a.req_id, b.req_id) == (0, 1)


def test_protocol_field():
    r = make_req(protocol=Protocol.RNDV)
    assert r.protocol is Protocol.RNDV
