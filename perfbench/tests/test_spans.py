import threading
import types

import pytest

from qsbench import spans as sp


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = sp.SpanRecorder(clock=clock)
    with rec.span("outer", request="req-1"):
        clock.now = 1.0
        with rec.span("child"):
            clock.now = 3.0
            with rec.span("grandchild"):
                clock.now = 3.5
        clock.now = 4.0
        with rec.span("child"):
            clock.now = 6.0
        clock.now = 10.0
    by = {(s.name, s.start): s for s in rec.spans}
    selfs = sp.self_times(rec.spans)
    outer = by[("outer", 0.0)]
    assert outer.duration == 10.0
    assert selfs[outer.id] == pytest.approx(10.0 - 2.5 - 2.0)
    child = by[("child", 1.0)]
    assert selfs[child.id] == pytest.approx(2.0)
    assert selfs[by[("grandchild", 3.0)].id] == pytest.approx(0.5)
    # every descendant inherits the root's request id and points at its parent
    assert {s.request for s in rec.spans} == {"req-1"}
    assert by[("grandchild", 3.0)].parent == child.id
    assert outer.parent is None


def test_self_time_clips_overlapping_children():
    spans = [
        sp.Span(1, "p", 0.0, 10.0, None, "r"),
        sp.Span(2, "c", 1.0, 5.0, 1, "r"),
        sp.Span(3, "c", 4.0, 12.0, 1, "r"),  # overlaps its sibling and the end
    ]
    assert sp.self_times(spans)[1] == pytest.approx(1.0)


def test_threads_keep_separate_stacks_and_request_ids():
    rec = sp.SpanRecorder()
    barrier = threading.Barrier(2)

    def work(rid):
        with rec.span("root", request=rid):
            barrier.wait(timeout=5)
            with rec.span("leaf"):
                pass

    threads = [threading.Thread(target=work, args=(r,)) for r in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    roots = {s.request: s for s in rec.spans if s.name == "root"}
    for leaf in (s for s in rec.spans if s.name == "leaf"):
        assert roots[leaf.request].id == leaf.parent


def test_wrappers_record_and_undo():
    rec = sp.SpanRecorder()
    module = types.SimpleNamespace()

    def add(a, b):
        return a + b

    def gen(n):
        yield from range(n)

    class Gate:
        def hold(self):
            import contextlib

            @contextlib.contextmanager
            def cm():
                yield "held"

            return cm()

    module.add, module.gen = add, gen
    undo = [
        sp.wrap_function(module, "add", "add", rec, request_of=lambda a, b: f"r{a}"),
        sp.wrap_generator(module, "gen", "item", rec),
        sp.wrap_enter(Gate, "hold", "gate", rec),
    ]
    assert module.add(2, 3) == 5
    assert list(module.gen(3)) == [0, 1, 2]
    with Gate().hold() as value:
        assert value == "held"
    names = [s.name for s in rec.spans]
    assert names.count("add") == 1 and names.count("item") == 3 and names.count("gate") == 1
    assert [s.request for s in rec.spans if s.name == "add"] == ["r2"]
    for restore in undo:
        restore()
    assert module.add is add and module.gen is gen
    assert list(module.gen(2)) == [0, 1]
    assert len(rec.spans) == 5
