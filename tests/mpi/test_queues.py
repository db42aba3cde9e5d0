"""Posted/unexpected queue semantics."""

from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope, ReqKind, Request
from repro.mpi.queues import PostedQueue, UnexpectedMsg, UnexpectedQueue


def recv_req(source=ANY_SOURCE, tag=ANY_TAG, comm=0):
    return Request(
        0, ReqKind.RECV, rank=0, owner_tid=0,
        envelope=Envelope(source, tag, comm), nbytes=8, now=0.0,
    )


class TestPostedQueue:
    def test_fifo_matching(self):
        q = PostedQueue()
        a, b = recv_req(), recv_req()
        q.post(a)
        q.post(b)
        got, _ = q.match(Envelope(1, 1, 0))
        assert got is a
        got, _ = q.match(Envelope(1, 1, 0))
        assert got is b
        assert len(q) == 0

    def test_skips_non_matching(self):
        q = PostedQueue()
        specific = recv_req(source=5, tag=1)
        anyr = recv_req()
        q.post(specific)
        q.post(anyr)
        got, scanned = q.match(Envelope(2, 1, 0))
        assert got is anyr
        assert scanned == 2
        assert len(q) == 1  # 'specific' still posted

    def test_no_match_returns_none_and_scans_all(self):
        q = PostedQueue()
        q.post(recv_req(source=5))
        q.post(recv_req(source=6))
        got, scanned = q.match(Envelope(7, 0, 0))
        assert got is None
        assert scanned == 2

    def test_max_len_tracked(self):
        q = PostedQueue()
        for _ in range(5):
            q.post(recv_req())
        q.match(Envelope(0, 0, 0))
        q.post(recv_req())
        assert q.max_len == 5


class TestUnexpectedQueue:
    def msg(self, source=1, tag=1, comm=0, **kw):
        return UnexpectedMsg(Envelope(source, tag, comm), 64, source, **kw)

    def test_fifo_matching_with_wildcard_pattern(self):
        q = UnexpectedQueue()
        m1, m2 = self.msg(tag=1), self.msg(tag=2)
        q.add(m1)
        q.add(m2)
        got, _ = q.match(Envelope(ANY_SOURCE, ANY_TAG, 0))
        assert got is m1

    def test_specific_pattern_skips(self):
        q = UnexpectedQueue()
        m1, m2 = self.msg(tag=1), self.msg(tag=2)
        q.add(m1)
        q.add(m2)
        got, scanned = q.match(Envelope(ANY_SOURCE, 2, 0))
        assert got is m2
        assert scanned == 2
        assert len(q) == 1

    def test_no_match(self):
        q = UnexpectedQueue()
        q.add(self.msg(tag=1))
        got, _ = q.match(Envelope(ANY_SOURCE, 9, 0))
        assert got is None
        assert len(q) == 1

    def test_counters(self):
        q = UnexpectedQueue()
        q.add(self.msg())
        q.add(self.msg())
        assert q.total_enqueued == 2
        assert q.max_len == 2
        q.match(Envelope(ANY_SOURCE, ANY_TAG, 0))
        assert q.total_scanned == 1

    def test_rndv_entry_fields(self):
        m = self.msg(rndv=True, sender_req_id=42)
        assert m.rndv and m.sender_req_id == 42
