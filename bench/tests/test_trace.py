"""Span bookkeeping: nesting, self time, the ingest chain."""

import threading

import pytest

from bench.trace import Span, Tracer, ingest_chains, self_times


class Ticker:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def span(id, name, start, end, parent=None, link="child", seq=None, seqs=()):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                link=link, seq=seq, seqs=tuple(seqs))


def test_nested_spans_record_parent_and_inherit_seq():
    tr = Tracer(Ticker())
    with tr.span("outer", seq=7) as outer:
        with tr.span("inner") as inner:
            pass
    assert inner.parent == outer.id and inner.seq == 7
    assert outer.parent is None
    assert outer.start < inner.start < inner.end < outer.end
    assert [s.name for s in tr.spans] == ["inner", "outer"]


def test_self_time_subtracts_children_once_and_clips():
    spans = [
        span(1, "parent", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),      # overlaps a: 3..4 once
        span(4, "late", 9.0, 12.0, parent=1),  # reaches outside: clipped
        span(5, "grandchild", 1.5, 2.0, parent=2),
        span(6, "follows", 20.0, 21.0, parent=1, link="follows"),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert st[2] == pytest.approx(2.5)
    assert st[3] == pytest.approx(3.0)
    assert st[6] == pytest.approx(1.0)


def test_wrap_links_server_side_span_to_the_client_span_across_threads():
    tr = Tracer()

    class Server:
        def handle(self, x):
            return x + 1

    server = Server()
    tr.wrap(server, "handle", "svc.handle",
            parent_of=lambda: tr.remote.get("req"))
    out = []
    with tr.span("client.call", seq=3, remote="req") as client:
        t = threading.Thread(target=lambda: out.append(server.handle(1)))
        t.start()
        t.join()
    assert out == [2]
    (server_span,) = [s for s in tr.spans if s.name == "svc.handle"]
    assert server_span.parent == client.id and server_span.seq == 3
    assert tr.remote == {}


def test_wrap_discards_spans_marked_not_kept():
    tr = Tracer()

    class Queue:
        def pop(self):
            return None

    q = Queue()

    def after(sp, result):
        sp.keep = result is not None

    tr.wrap(q, "pop", "queue.pop", after=after)
    q.pop()
    assert tr.spans == []


def chain(block, base, *, durable=False, publish=True):
    """The spans of one ingest block, ids offset by ``base``."""
    out = [
        span(base + 1, "client.ingest", 0, 10, seq=block),
        span(base + 2, "svc.ingest", 2, 8, parent=base + 1, seq=block),
        span(base + 3, "queue.push", 5, 6, parent=base + 2, seq=block),
        span(base + 4, "queue.pop_block", 12, 13, parent=base + 3,
             link="follows", seq=block, seqs=[block]),
        span(base + 5, "model.apply_block", 13, 15, parent=base + 4,
             link="follows", seq=block, seqs=[block]),
    ]
    if durable:
        out.append(span(base + 7, "durability.append", 3, 4,
                        parent=base + 2, seq=block))
    if publish:
        out.append(span(base + 6, "model.publish", 15, 16, parent=base + 5,
                        link="follows", seq=block, seqs=[block]))
    return out


def test_ingest_chain_complete_and_incomplete():
    spans = chain(0, 0) + chain(1, 100, publish=False)
    assert ingest_chains(spans, durable=False) == {
        "blocks": 2, "complete": 1, "nesting_violations": 0,
    }
    # A durable tenant also needs the WAL append under svc.ingest.
    assert ingest_chains(chain(0, 0), durable=True)["complete"] == 0
    assert ingest_chains(chain(0, 0, durable=True), durable=True) == {
        "blocks": 1, "complete": 1, "nesting_violations": 0,
    }


def test_ingest_chain_counts_coalesced_blocks_and_nesting_violations():
    spans = chain(0, 0) + chain(1, 100)
    # One lane pop/apply/publish covering both blocks replaces block 1's.
    spans = [s for s in spans if not (s.id > 103)]
    for s in spans:
        if s.id in (4, 5, 6):
            s.seqs = (0, 1)
    assert ingest_chains(spans, durable=False)["complete"] == 2
    spans.append(span(999, "queue.push", 9, 11, parent=2, seq=0))
    assert ingest_chains(spans, durable=False)["nesting_violations"] == 1
