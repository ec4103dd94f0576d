"""Due-time latency: a stall in the server delays the reads queued behind it;
failed requests fail the run."""

import json
import math
import socketserver
import threading
import time

import pytest

from qsbench import serve, speed

STALL_AT = 10
STALL_S = 0.3


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            doc = json.loads(line)
            self.server.count += 1
            if self.server.count == STALL_AT:
                time.sleep(STALL_S)
            reply = {
                "ok": True,
                "op": doc["op"],
                "id": doc["id"],
                "schema_version": 1,
                "result": {"type": "batch_result", "results": [dict(self.server.slot)]},
            }
            self.wfile.write(json.dumps(reply).encode() + b"\n")


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    count = 0
    slot = {"type": "path_result"}


class _StubWorkload(serve.Workload):
    def __init__(self):  # no world, no daemon: one fixed query
        self.name = "stub"
        self.seed = 0
        self.queries = [None]
        self.wire = [{"type": "path", "src": 1, "dst": 2}]
        self.batches = [[0]]
        self.epochs = []
        self._lock = threading.Lock()
        self._apply_done = {0: serve._set_event()}
        self.applied = 0
        self.apply_reports = []
        self.lazy_draws = 0
        self.timeline = speed.Timeline()

    def next_read(self):
        return 0


@pytest.fixture()
def server():
    srv = _Server(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_stall_counts_against_the_reads_queued_behind_it(server, monkeypatch):
    monkeypatch.setitem(serve.OPEN_RATE, "stub", 100.0)
    monkeypatch.setattr(serve, "CONNECTIONS", 1)
    host, port = server.server_address
    wl = _StubWorkload()
    phase = serve.open_loop(wl, host, port, 1.0, measure_bytes=False)

    reads = phase.reads()
    assert len(reads) > STALL_AT + 5
    assert phase.counts()["failed"] == 0
    stalled = reads[STALL_AT - 1]
    assert stalled.done - stalled.sent >= STALL_S
    # The next read was due during the stall: it went out late, and its
    # latency from the due time includes the wait, not just its service time.
    behind = reads[STALL_AT]
    assert behind.due < stalled.done
    assert behind.sent - behind.due > 0.05
    latency_ms = serve._latencies_ms(wl, [behind], scaled=False)[0]
    assert latency_ms > (behind.done - behind.sent) * 1e3 + 50
    # Reads well after the stall are on time again.
    assert reads[-1].sent - reads[-1].due < STALL_S


def test_query_error_slots_fail_the_run_with_finite_latencies(server, monkeypatch):
    server.slot = {"type": "query_error", "kind": "ValueError", "message": "stub"}
    monkeypatch.setitem(serve.OPEN_RATE, "stub", 100.0)
    host, port = server.server_address
    wl = _StubWorkload()
    closed = serve.closed_loop(wl, host, port, 0.2, measure_bytes=False)
    opened = serve.open_loop(wl, host, port, 0.2, measure_bytes=False)

    for phase in (closed, opened):
        assert phase.ops and phase.counts()["failed"] == len(phase.ops)
    # nothing reaches the reference (no world is needed), and the run fails
    problems, checked = serve.verdict(wl, None, [closed, opened])
    assert checked == 0
    assert any("requests failed" in p for p in problems)
    assert any("no answer was checked" in p for p in problems)
    # a failed read counts with the full timeout, a finite number
    latencies = serve._latencies_ms(wl, opened.reads())
    assert latencies and all(math.isfinite(v) for v in latencies)
    assert min(latencies) == serve.FAILED_LATENCY_MS
    json.dumps(latencies, allow_nan=False)


def test_closed_loop_probes_between_segments_and_scales(server, monkeypatch):
    host, port = server.server_address
    wl = _StubWorkload()
    phase = serve.closed_loop(wl, host, port, 0.6, measure_bytes=False)

    segments = round(0.6 / serve.SEGMENT_S)
    # one probe before the loop and one after each segment
    assert len(wl.timeline.probes) == segments + 1
    assert phase.counts()["failed"] == 0 and phase.ops
    # no request was in flight during a probe
    for start, end, _ in wl.timeline.probes:
        assert not any(op.sent < end and op.done > start for op in phase.ops)
    expected = wl.timeline.scaled(phase.start, phase.start + phase.seconds)
    assert phase.scaled_s == pytest.approx(expected)
    assert 0 < phase.scaled_s


def test_open_loop_probes_in_quiet_gaps(server, monkeypatch):
    monkeypatch.setitem(serve.OPEN_RATE, "stub", 100.0)
    host, port = server.server_address
    wl = _StubWorkload()
    schedule, probes = serve.open_schedule(wl, 1.0)
    period = serve.SEGMENT_S + serve.OPEN_GAP_S
    # nothing is due in the gap a probe opens
    for at in probes:
        assert not any(at <= offset < at + serve.OPEN_GAP_S for offset, _ in schedule)
    assert probes == pytest.approx([k * period + serve.SEGMENT_S for k in range(len(probes))])

    phase = serve.open_loop(wl, host, port, 1.0, measure_bytes=False)
    assert len(wl.timeline.probes) == len(probes) + 1
    assert phase.counts()["failed"] == 0
