"""The serve workloads: ``serve_tor`` and ``serve_churn``.

The daemon runs in its own process (:mod:`qsbench.daemon_main`); this
process is the load generator, with one blocking connection per thread and
``CONNECTIONS`` threads.  Both processes are pinned to one CPU
(:func:`shared_cpu`).  A read is one batch request: a single query for
``serve_tor``, one hot circuit's five queries for ``serve_churn``.  A run
has three parts:

1. **set-up**, repeated :data:`SETUPS` times: start a daemon, wait for its
   port, warm it with a query set disjoint from the measured one.  The
   last daemon is kept; ``setup_s`` is the median.
2. **closed loop** (``capacity_qps``): every connection sends its next
   single-query batch as soon as the previous reply arrives.
3. **open loop** (``query_p50_ms``): reads arrive as a seeded Poisson
   process at a fixed offered rate below capacity; each is timed from the
   moment it was due, so a stall also delays the reads queued behind it,
   and the generator's lateness is reported beside the latencies.

Every timing is scaled to the reference machine speed (:mod:`qsbench.speed`).
The probes run in this process while the daemon is idle: between the
closed loop's segments, when both connections have their replies, and in
quiet gaps of the open loop's schedule.

In ``serve_churn`` both loops also send ``apply-events`` epochs, one at a
time and in order: in the closed loop after every :data:`READS_PER_EPOCH`
reads, in the open loop on a fixed schedule in seconds.  Their round trips
are the apply latencies.  After the daemon exits, every answer is compared
in wire form with a fresh in-process
:class:`~repro.serve.facade.QueryFacade` — for churn, a cold facade over
the exclusion set of the epoch the read ran in.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from qsbench import inputs, layers, speed, world
from qsbench.stats import summarize

#: connections (= load-generator threads); at most the machine's CPU count
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


def shared_cpu() -> set:
    """The one CPU the daemon and the load generator are both pinned to.

    On the 2-CPU machine the benchmark was tuned on, placing the two
    processes on different CPUs made the serve figures bimodal: runs of the
    same code differed by up to 2x.  Sharing one CPU, they take turns, and
    runs differ by about as much as a single-threaded job does.  The
    figures then include the load generator's share of the CPU; every run
    reports that share (``loadgen_cpu_s``) beside the capacity.
    """
    return {min(os.sched_getaffinity(0))}


#: daemon start + warm-up cycles per run; ``setup_s`` is their median
SETUPS = 3
#: warm-up queries per set-up (disjoint from the measured queries)
WARMUP_QUERIES = 48
#: share of the measured time spent in the closed loop (rest: open loop)
CLOSED_SHARE = 0.5
#: unmeasured closed loop after set-up: brings the pool and cache to their
#: steady state before timing starts
PREFILL_S = 1.0
#: closed loop: seconds of load between two speed probes
SEGMENT_S = 0.2
#: open loop: a quiet gap with nothing due follows every SEGMENT_S of
#: arrivals; the speed probe runs in it once no request is in flight
OPEN_GAP_S = 0.03
#: fixed open-loop offered rates (requests/s), a sixth or less of the
#: capacity measured at the commit that introduced the benchmark.  The
#: serve_tor rate sets how many samples the median has: at 50/s its
#: sampling noise alone was 5.5 % of the median (bootstrap), at 100/s
#: about 4 %.
OPEN_RATE = {"serve_tor": 100.0, "serve_churn": 100.0}
#: serve_churn: Tor circuits in the hot set; a client asks about one
#: circuit at a time, so a read is one batch of its 5 queries.  An
#: assumption, not a measurement (NOTES.md): 48 circuits borrow 148 pool
#: keys, inside the daemon's 256-session pool, so reads stay on the hit
#: path and only the epochs' invalidations send them back to the kernels
#: (the pool's miss and eviction path is serve_tor's).
HOT_CIRCUITS = 48
CIRCUIT_QUERIES = 5
#: serve_churn: read batches per apply-events epoch.  An assumption
#: (NOTES.md): a real feed lands one epoch per trace day against millions
#: of circuit reads, which would leave the write path out of the figures;
#: 400 reads, about 8 per hot circuit, keep epoch invalidation and pool
#: repairs a visible share of the daemon's work.  The closed loop sends an
#: epoch after every this many reads.
READS_PER_EPOCH = 400
#: serve_churn: read batches per second the daemon answered in the closed
#: loop when the benchmark was introduced (8,160 queries/s on a 2-vCPU
#: Xeon VM); the open loop's apply schedule is fixed in seconds from it
BASELINE_BATCHES_PER_S = 1632.0
#: serve_churn, open loop: an apply-events epoch every this many seconds
APPLY_INTERVAL = READS_PER_EPOCH / BASELINE_BATCHES_PER_S
#: serve_tor: the queries of a closed loop are drawn before it starts, as
#: many as this many times the capacity the prefill loop saw could use
PREDRAW_HEADROOM = 3.0
#: serve_churn: epochs whose reads are checked against a cold facade
CHECKED_EPOCHS = 4
#: per-request socket timeout; a timeout counts as a failure
TIMEOUT_S = 30.0
#: latency a failed request counts with: the full timeout, so a failure
#: misses every latency limit below it and the figure stays a number
FAILED_LATENCY_MS = TIMEOUT_S * 1e3
READY_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


# -- the daemon process ------------------------------------------------------------


class DaemonProcess:
    """One daemon launched through :mod:`qsbench.daemon_main`."""

    def __init__(self, spans_path: str, cpus: set) -> None:
        pin = ["--cpus", ",".join(str(c) for c in sorted(cpus))]
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(world.BENCH_DIR, "qsbench", "daemon_main.py"),
                "--spans",
                spans_path,
                *pin,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=world.child_env(),
            cwd=world.ROOT,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.host = "127.0.0.1"
        self.port = 0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _expect(self, key: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError(f"daemon sent no {key!r} line in {timeout:.0f} s")
            if line is None:
                raise BenchError(f"daemon exited before its {key!r} line")
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and key in doc:
                return doc

    def wait_ready(self) -> None:
        doc = self._expect("ready", READY_TIMEOUT_S)
        self.host, self.port = doc["host"], int(doc["port"])

    def enable_trace(self) -> None:
        self.proc.stdin.write("trace\n")
        self.proc.stdin.flush()
        doc = self._expect("traced", READY_TIMEOUT_S)
        if doc["traced"] is not True:
            raise BenchError(f"daemon could not install tracing: {doc.get('error')}")

    def shutdown(self) -> dict:
        """Stop the daemon; returns its final counter document."""
        from repro.serve.client import ServeClient

        with ServeClient.connect(self.host, self.port, timeout=TIMEOUT_S) as client:
            client.shutdown()
        final = self._expect("final", READY_TIMEOUT_S)["final"]
        self.proc.wait(timeout=READY_TIMEOUT_S)
        self.close()
        return final

    def close(self) -> None:
        """Make sure the process has ended: kill it if it is still running."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=READY_TIMEOUT_S)
        self.proc.stdin.close()
        self._reader.join(timeout=READY_TIMEOUT_S)
        self.proc.stdout.close()


# -- load generation ---------------------------------------------------------------


@dataclass
class Op:
    """One request the load generator sent (or failed to send)."""

    kind: str  # "read" | "apply"
    index: int  # batch index, or 1-based apply number
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    result: Optional[dict] = None
    request_id: Optional[str] = None
    bytes: int = 0


@dataclass
class Phase:
    """The requests of one closed or open loop."""

    ops: List[Op] = field(default_factory=list)
    start: float = 0.0
    #: wall-clock seconds, speed probes included
    seconds: float = 0.0
    #: seconds scaled to the reference speed, speed probes left out
    scaled_s: float = 0.0
    #: CPU seconds the load generator (this process) used during the loop
    cpu_s: float = 0.0
    #: serve_tor queries drawn inside the loop (the pre-drawn ones ran out)
    lazy_draws: int = 0

    def reads(self) -> List[Op]:
        return [o for o in self.ops if o.kind == "read"]

    def applies(self) -> List[Op]:
        return [o for o in self.ops if o.kind == "apply"]

    def counts(self) -> dict:
        sent = len(self.ops)
        failed = sum(1 for o in self.ops if not o.ok)
        return {"sent": sent, "succeeded": sent - failed, "failed": failed}


class _Conn:
    """A blocking connection that reconnects after a transport failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.client = None

    def request(self, op: str, **fields):
        from repro.serve.client import ServeClient

        if self.client is None:
            self.client = ServeClient.connect(self.host, self.port, timeout=TIMEOUT_S)
        try:
            return self.client.request(op, **fields)
        except (OSError, ConnectionError):
            self.close()
            raise

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


class Workload:
    """Queries, churn epochs and the request plumbing of one serve run."""

    def __init__(self, name: str, seed: int, scenario) -> None:
        from repro.serve.api import encode

        self.name = name
        self.seed = seed
        dist = inputs.tor_distributions(scenario)
        self.rng = random.Random(f"{name}:{seed}")
        self.epochs: List[List[dict]] = []
        if name == "serve_tor":
            # Every key is distinct, warm-up keys included.  Measured
            # queries are drawn and encoded before each loop (predraw);
            # a loop that outruns them draws inside the timing, counted
            # in ``lazy_draws``.
            self._stream = inputs.unique_stream(dist, seed, salt="tor")
            self.warmup = list(itertools.islice(self._stream, WARMUP_QUERIES))
            self.queries: List[object] = []
        else:
            self.queries = inputs.hot_set(dist, HOT_CIRCUITS)
            from repro.serve.api import query_key

            hot = {query_key(q) for q in self.queries}
            extra = inputs.unique_stream(dist, seed, salt="warm")
            self.warmup = list(
                itertools.islice((q for q in extra if query_key(q) not in hot), WARMUP_QUERIES)
            )
            self.epochs = inputs.churn_epochs(scenario)
        self.wire = [encode(q) for q in self.queries]
        #: query indices of each read batch: one query per batch for
        #: serve_tor, one circuit (its 5 queries) per batch for serve_churn
        self.batches: List[List[int]] = [
            list(range(i, i + CIRCUIT_QUERIES))
            for i in range(0, len(self.queries), CIRCUIT_QUERIES)
        ]
        self.warm_wire = [encode(q) for q in self.warmup]
        self._lock = threading.Lock()
        self._apply_done: Dict[int, threading.Event] = {0: _set_event()}
        self.applied = 0
        self.apply_reports: List[dict] = []
        self._next_batch = 0
        self.lazy_draws = 0
        #: speed probes of this run; every timing is scaled by them
        self.timeline = speed.Timeline()

    # -- read selection ------------------------------------------------

    def _draw(self) -> None:
        from repro.serve.api import encode

        query = next(self._stream)
        self.queries.append(query)
        self.wire.append(encode(query))
        self.batches.append([len(self.queries) - 1])

    def predraw(self, reads: int) -> None:
        """serve_tor: draw and encode queries until ``reads`` are unsent."""
        if self.name != "serve_tor":
            return
        with self._lock:
            while len(self.batches) - self._next_batch < reads:
                self._draw()

    def next_read(self) -> int:
        """The next batch index: a fresh query for serve_tor, a hot circuit otherwise."""
        with self._lock:
            if self.name == "serve_tor":
                if self._next_batch == len(self.batches):
                    self._draw()
                    self.lazy_draws += 1
                self._next_batch += 1
                return self._next_batch - 1
            return self.rng.randrange(len(self.batches))

    def epoch_events(self, number: int) -> List[dict]:
        """Events of the ``number``-th apply (1-based), cycling the month."""
        return self.epochs[(number - 1) % len(self.epochs)]

    def expected_excluded(self, number: int) -> frozenset:
        cycled = [self.epoch_events(k) for k in range(1, number + 1)]
        return inputs.exclusion_after(cycled, number)

    # -- one request ---------------------------------------------------

    def run_op(self, conn: _Conn, op: Op, *, measure_bytes: bool = False) -> None:
        from repro.serve.client import ServeError

        if op.kind == "apply":
            # Epochs are applied strictly in order: wait for the previous one.
            self._apply_done.setdefault(op.index - 1, threading.Event()).wait(
                timeout=TIMEOUT_S
            )
        op.sent = time.perf_counter()
        try:
            if op.kind == "read":
                op.request_id = f"b{op.index}-{id(op)}"
                batch = self.batches[op.index]
                doc = {
                    "type": "batch",
                    "id": op.request_id,
                    "queries": [self.wire[i] for i in batch],
                }
                result = conn.request("batch", request=doc)
                slots = result.get("results", ())
                op.ok = len(slots) == len(batch) and all(
                    slot.get("type") != "query_error" for slot in slots
                )
            else:
                result = conn.request("apply-events", events=self.epoch_events(op.index))
                op.ok = int(result.get("epoch", -1)) == op.index
            op.result = result
            if measure_bytes and op.kind == "read":
                op.bytes = len(json.dumps(doc)) + len(json.dumps(result))
        except (ServeError, OSError, ConnectionError, ValueError):
            op.ok = False
        op.done = time.perf_counter()
        if op.kind == "apply":
            self._apply_done.setdefault(op.index, threading.Event()).set()
            with self._lock:
                if op.ok:
                    self.apply_reports.append(op.result)

    def new_apply(self, due: float) -> Op:
        with self._lock:
            self.applied += 1
            return Op("apply", self.applied, due)


def _set_event() -> threading.Event:
    event = threading.Event()
    event.set()
    return event


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_phase(phase: Phase, wl: Workload, worker, drive) -> Phase:
    """Run ``worker`` on every connection while this thread runs ``drive``,
    which probes the speed; record wall and scaled time, the load
    generator's CPU (probes left out) and lazy draws."""
    timeline = wl.timeline
    timeline.probe()
    cpu, probe_cpu, lazy = _cpu_s(), timeline.cpu_s, wl.lazy_draws
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CONNECTIONS)]
    phase.start = time.perf_counter()
    for t in threads:
        t.start()
    try:
        drive()
    except threading.BrokenBarrierError:
        raise BenchError("a load-generator connection stopped with an error")
    finally:
        for t in threads:
            t.join()
    end = time.perf_counter()
    phase.seconds = end - phase.start
    phase.scaled_s = timeline.scaled(phase.start, end)
    phase.cpu_s = _cpu_s() - cpu - (timeline.cpu_s - probe_cpu)
    phase.lazy_draws = wl.lazy_draws - lazy
    return phase


def closed_loop(
    wl: Workload, host: str, port: int, seconds: float, *, measure_bytes: bool
) -> Phase:
    """Each connection sends its next request when the previous one returns.

    The loop runs in segments of about :data:`SEGMENT_S`.  After each one,
    both connections hold their replies while this thread probes the
    speed.  In serve_churn an apply-events epoch follows every
    :data:`READS_PER_EPOCH` reads.
    """
    phase = Phase()
    lock = threading.Lock()
    segments = max(1, round(seconds / SEGMENT_S))
    length = seconds / segments
    segment_end = [0.0]
    reads = [0]
    gate = threading.Barrier(CONNECTIONS + 1, timeout=2 * TIMEOUT_S)

    def next_op(now: float) -> Op:
        if wl.epochs:
            with lock:
                if reads[0] >= READS_PER_EPOCH:
                    reads[0] = 0
                    return wl.new_apply(now)
                reads[0] += 1
        return Op("read", wl.next_read(), now)

    def worker(_i: int) -> None:
        conn = _Conn(host, port)
        try:
            for _ in range(segments):
                gate.wait()
                while True:
                    now = time.perf_counter()
                    if now >= segment_end[0]:
                        break
                    op = next_op(now)
                    wl.run_op(conn, op, measure_bytes=measure_bytes)
                    with lock:
                        phase.ops.append(op)
                gate.wait()
        except threading.BrokenBarrierError:
            pass  # the other side stopped; it reports why
        except BaseException:
            gate.abort()
            raise
        finally:
            conn.close()

    def drive() -> None:
        try:
            for _ in range(segments):
                segment_end[0] = time.perf_counter() + length
                gate.wait()
                gate.wait()
                wl.timeline.probe()
        except BaseException:
            gate.abort()
            raise

    return _run_phase(phase, wl, worker, drive)


def open_schedule(wl: Workload, seconds: float) -> Tuple[List[Tuple[float, str]], List[float]]:
    """Due offsets of reads (seeded Poisson at the fixed rate) and applies,
    and the offsets of the speed probes.

    Arrivals fill segments of :data:`SEGMENT_S`; a quiet gap of
    :data:`OPEN_GAP_S` with a probe at its start follows each one.
    """
    rate = OPEN_RATE[wl.name]
    rng = random.Random(f"arrivals:{wl.name}:{wl.seed}")
    segments = max(1, round(seconds / (SEGMENT_S + OPEN_GAP_S)))
    active = segments * SEGMENT_S

    def offset(t: float) -> float:
        """Schedule offset of ``t`` seconds of arrival time."""
        return t + int(t // SEGMENT_S) * OPEN_GAP_S

    items: List[Tuple[float, str]] = []
    t = rng.expovariate(rate)
    while t < active:
        items.append((offset(t), "read"))
        t += rng.expovariate(rate)
    if wl.epochs:
        k = 1
        while k * APPLY_INTERVAL < active:
            items.append((offset(k * APPLY_INTERVAL), "apply"))
            k += 1
    items.sort()
    probes = [(k + 1) * SEGMENT_S + k * OPEN_GAP_S for k in range(segments)]
    return items, probes


def open_loop(
    wl: Workload, host: str, port: int, seconds: float, *, measure_bytes: bool
) -> Phase:
    """Requests go out at their due times; latency runs from the due time."""
    phase = Phase()
    schedule, probes = open_schedule(wl, seconds)
    wl.predraw(sum(1 for _, kind in schedule if kind == "read"))
    lock = threading.Lock()
    cursor = [0]
    in_flight = [0]

    def worker(_i: int) -> None:
        conn = _Conn(host, port)
        try:
            while True:
                with lock:
                    if cursor[0] >= len(schedule):
                        return
                    offset, kind = schedule[cursor[0]]
                    cursor[0] += 1
                    due = phase.start + offset
                    op = wl.new_apply(due) if kind == "apply" else Op("read", wl.next_read(), due)
                    phase.ops.append(op)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    in_flight[0] += 1
                try:
                    wl.run_op(conn, op, measure_bytes=measure_bytes)
                finally:
                    with lock:
                        in_flight[0] -= 1
        finally:
            conn.close()

    def drive() -> None:
        for offset in probes:
            delay = phase.start + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # let the requests due before the gap finish first
            deadline = time.perf_counter() + OPEN_GAP_S / 2
            while in_flight[0] and time.perf_counter() < deadline:
                time.sleep(0.0005)
            wl.timeline.probe()

    return _run_phase(phase, wl, worker, drive)


def warm_up(wl: Workload, host: str, port: int) -> int:
    """Send the warm-up queries over all connections; returns failures."""
    failures = [0]
    lock = threading.Lock()
    indices = list(range(len(wl.warm_wire)))

    def worker(i: int) -> None:
        conn = _Conn(host, port)
        try:
            for j in indices[i::CONNECTIONS]:
                doc = {"type": "batch", "id": f"w{j}", "queries": [wl.warm_wire[j]]}
                try:
                    result = conn.request("batch", request=doc)
                    bad = any(s.get("type") == "query_error" for s in result["results"])
                except Exception:  # noqa: BLE001 — any failure is counted
                    bad = True
                if bad:
                    with lock:
                        failures[0] += 1
        finally:
            conn.close()

    _run_threads(worker, CONNECTIONS)
    return failures[0]


# -- correctness ---------------------------------------------------------------------


def _reference(scenario, queries: Sequence[object], excluded: frozenset) -> List[dict]:
    """Wire answers of a fresh in-process facade (cold, optional exclusions)."""
    from repro.asgraph.engine import RoutingEngine
    from repro.serve.api import BatchRequest, encode
    from repro.serve.facade import QueryFacade

    facade = QueryFacade(
        scenario.graph,
        engine=RoutingEngine(),
        excluded_links=[tuple(link) for link in excluded] or None,
    )
    response = facade.execute_batch(BatchRequest(queries=tuple(queries)))
    return [encode(r) for r in response.results]


def check_answers(wl: Workload, scenario, phases: Sequence[Phase]) -> Tuple[List[str], int]:
    """Mismatches between daemon answers and the in-process reference,
    and how many answers were checked."""
    problems: List[str] = []
    ops = [o for p in phases for o in p.ops]
    reads = [o for o in ops if o.kind == "read" and o.ok]
    applies = sorted((o for o in ops if o.kind == "apply"), key=lambda o: o.index)

    for op in applies:
        if not op.ok:
            continue
        expected = sorted(sorted(link) for link in wl.expected_excluded(op.index))
        if op.result.get("excluded") != expected:
            problems.append(f"apply {op.index}: exclusion set differs from the schedule")
    if not reads:
        return problems, 0

    if not applies:
        indices = sorted({i for o in reads for i in wl.batches[o.index]})
        answers = dict(zip(indices, _reference(scenario, [wl.queries[i] for i in indices], frozenset())))
        for op in reads:
            for i, slot in zip(wl.batches[op.index], op.result["results"]):
                if slot != answers[i]:
                    problems.append(f"query {i}: daemon answer differs from the facade")
        return problems, sum(len(wl.batches[o.index]) for o in reads)

    # Churn: a read ran at some epoch between the applies acknowledged
    # before it was sent and the applies sent before its reply arrived.
    acked = sorted(o.done for o in applies)
    sent = sorted(o.sent for o in applies)

    def candidates(op: Op) -> range:
        low = sum(1 for t in acked if t <= op.sent)
        high = sum(1 for t in sent if t < op.done)
        return range(low, high + 1)

    per_read = [(op, candidates(op)) for op in reads]
    seen_epochs = sorted({e for _, c in per_read for e in c})
    rng = random.Random(f"check:{wl.name}:{wl.seed}")
    chosen = set(rng.sample(seen_epochs, min(CHECKED_EPOCHS - 1, len(seen_epochs))))
    chosen.add(seen_epochs[-1])
    checked = [(op, c) for op, c in per_read if set(c) <= chosen]
    references: Dict[int, Dict[int, dict]] = {}
    for epoch in sorted(chosen):
        indices = sorted({i for op, c in checked if epoch in c for i in wl.batches[op.index]})
        if not indices:
            continue
        answers = _reference(
            scenario, [wl.queries[i] for i in indices], wl.expected_excluded(epoch)
        )
        references[epoch] = dict(zip(indices, answers))
    for op, cands in checked:
        for i, slot in zip(wl.batches[op.index], op.result["results"]):
            if not any(references.get(e, {}).get(i) == slot for e in cands):
                problems.append(
                    f"query {i}: answer matches no cold facade of epochs {list(cands)}"
                )
    if not checked:
        problems.append("no read could be attributed to a checked epoch")
    return problems, sum(len(wl.batches[op.index]) for op, _ in checked)


# -- one run -------------------------------------------------------------------------


def _latencies_ms(wl: Workload, ops: Sequence[Op], *, scaled: bool = True) -> List[float]:
    """Latency from the due time of each op (scaled to the reference
    speed, or wall-clock); a failed op counts with the full timeout."""
    if not scaled:
        return [(o.done - o.due) * 1e3 if o.ok else FAILED_LATENCY_MS for o in ops]
    span = wl.timeline.scaled
    return [span(o.due, o.done) * 1e3 if o.ok else FAILED_LATENCY_MS for o in ops]


def verdict(wl: Workload, scenario, phases: Sequence[Phase]) -> Tuple[List[str], int]:
    """Every problem of a run: failed requests, wrong answers, nothing checked.

    Returns the problems and how many answers equal the reference."""
    ops = [o for p in phases for o in p.ops]
    failed = sum(1 for o in ops if not o.ok)
    problems: List[str] = []
    if failed:
        problems.append(f"{failed} of {len(ops)} requests failed")
    mismatches, checked = check_answers(wl, scenario, phases)
    problems.extend(mismatches)
    if not checked:
        problems.append("no answer was checked against the reference")
    return problems, checked


def _daemon_stats(daemon: DaemonProcess) -> Dict[str, float]:
    """The daemon's ``stats`` counters, flattened to ``part.name``."""
    conn = _Conn(daemon.host, daemon.port)
    try:
        doc = conn.request("stats")
    finally:
        conn.close()
    return {
        f"{part}.{key}": value
        for part, values in doc.items()
        if isinstance(values, dict)
        for key, value in values.items()
        if isinstance(value, (int, float))
    }


def _predraw_closed(wl: Workload, prefill: Phase, seconds: float) -> None:
    """serve_tor: draw the queries a closed loop of ``seconds`` can use,
    sized from the rate the prefill loop reached."""
    rate = _answered(wl, prefill) / max(prefill.seconds, 1e-9)
    wl.predraw(int(rate * seconds * PREDRAW_HEADROOM) + 100)


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One serve run; returns the result document for :mod:`run`."""
    scenario = world.build_world()
    wl = Workload(name, seed, scenario)
    churn = name == "serve_churn"
    spans_path = os.path.join(world.out_dir(), f"{name}-{seed}-daemon-spans.jsonl")

    cpu = shared_cpu()
    os.sched_setaffinity(0, cpu)
    setup_times: List[float] = []
    setup_raw: List[float] = []
    warm_failures = 0
    daemon: Optional[DaemonProcess] = None
    setups = 1 if traced else SETUPS
    try:
        for i in range(setups):
            wl.timeline.probe()
            start = time.perf_counter()
            daemon = DaemonProcess(spans_path, cpu)
            daemon.wait_ready()
            warm_failures += warm_up(wl, daemon.host, daemon.port)
            end = time.perf_counter()
            wl.timeline.probe()
            setup_times.append(wl.timeline.scaled(start, end))
            setup_raw.append(end - start)
            if i < setups - 1:
                daemon.shutdown()
                daemon = None

        closed_s = seconds * CLOSED_SHARE
        open_s = seconds - closed_s
        host, port = daemon.host, daemon.port
        prefill = closed_loop(wl, host, port, PREFILL_S, measure_bytes=False)
        _predraw_closed(wl, prefill, closed_s)
        before = _daemon_stats(daemon)
        phases = [
            closed_loop(wl, host, port, closed_s, measure_bytes=False),
            open_loop(wl, host, port, open_s, measure_bytes=False),
        ]
        # the daemon's counters over the measured loops only
        daemon_window = layers.delta(_daemon_stats(daemon), before)
        traced_phases: List[Phase] = []
        if traced:
            daemon.enable_trace()
            _predraw_closed(wl, prefill, closed_s)
            traced_phases = [
                closed_loop(wl, host, port, closed_s, measure_bytes=True),
                open_loop(wl, host, port, open_s, measure_bytes=True),
            ]
        final = daemon.shutdown()
        daemon = None
    finally:
        if daemon is not None:
            daemon.close()

    everything = [prefill] + phases + traced_phases
    problems, checked = verdict(wl, scenario, everything)
    if warm_failures:
        problems.append(f"{warm_failures} warm-up queries failed")

    untraced = _end_to_end(wl, phases, setup_times, final)
    report = _report_lines(name, phases, untraced, wl, daemon_window)
    report.append(
        f"setup_raw_s {statistics.median(setup_raw):.3f} s (wall clock, median of "
        f"{len(setup_raw)})"
    )
    report.append(
        f"gate: {checked} answers equal a "
        + ("cold facade at their epoch" if churn else "fresh in-process facade")
    )
    doc = {
        "correct": not problems,
        "problems": problems[:10],
        "attempted": sum(len(p.ops) for p in everything),
        "failed": sum(p.counts()["failed"] for p in everything),
        "report": report,
        "end_to_end": untraced,
    }
    if traced:
        traced_e2e = _end_to_end(wl, traced_phases, setup_times, final)
        spans = layers.spans_from_records(
            json.loads(line) for line in open(spans_path, encoding="utf-8")
        )
        client = _client_side(traced_phases, wl)
        per_layer = layers.layer_metrics(spans, final, client=client)
        per_layer.update(layers.overhead(untraced, traced_e2e))
        doc["per_layer"] = per_layer
    return doc


def _answered(wl: Workload, phase: Phase) -> int:
    """Queries answered in ``phase`` (a batch answers all its queries)."""
    return sum(len(wl.batches[o.index]) for o in phase.reads() if o.ok)


def _end_to_end(
    wl: Workload, phases: Sequence[Phase], setup_times: List[float], final: dict
) -> dict:
    closed, opened = phases
    return {
        "throughput_per_s": _answered(wl, closed) / closed.scaled_s,
        "latency_p50_ms": statistics.median(_latencies_ms(wl, opened.reads())),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": final["peak_rss_mb"],
    }


def _client_side(phases: Sequence[Phase], wl: Workload) -> dict:
    reads = [o for p in phases for o in p.reads() if o.ok]
    applies = [o for p in phases for o in p.applies() if o.ok]
    return {
        "queries": sum(len(wl.batches[o.index]) for o in reads),
        "bytes": sum(o.bytes for o in reads),
        "batch_rt": {o.request_id: o.done - o.sent for o in reads},
        "apply_reports": [o.result for o in applies],
    }


def _tail(summary: dict, label: str) -> str:
    """``label_pNN_ms value ms``, or nothing when too few samples for a tail."""
    if summary["tail_q"] is None:
        return ""
    return f", {label}_p{summary['tail_q']:g}_ms {summary['tail']:.3f} ms"


def _report_lines(
    name: str, phases: Sequence[Phase], e2e: dict, wl: Workload, daemon_window: dict
) -> List[str]:
    closed, opened = phases
    raw_lat = statistics.median(_latencies_ms(wl, opened.reads(), scaled=False))
    lines = [
        f"capacity_qps {e2e['throughput_per_s']:.2f} 1/s (closed loop, "
        f"{CONNECTIONS} connections, {closed.scaled_s:.2f} s scaled, {closed.counts()})",
        f"wall clock: capacity_qps {_answered(wl, closed) / closed.seconds:.2f} 1/s over "
        f"{closed.seconds:.2f} s with probes, query_p50_ms {raw_lat:.3f} ms; speed probe "
        f"median {wl.timeline.median_probe_s() * 1e3:.3f} ms against "
        f"{speed.REFERENCE_S * 1e3:g} ms reference (n={len(wl.timeline.probes)})",
    ]
    for label, phase in (("closed", closed), ("open", opened)):
        lines.append(
            f"loadgen_cpu_s {phase.cpu_s:.3f} s ({label} loop: "
            f"{phase.cpu_s / phase.seconds:.1%} of its wall time on the CPU the "
            f"daemon shares; {phase.lazy_draws} queries drawn inside the loop)"
        )
    lat = summarize(_latencies_ms(wl, opened.reads()))
    lines.append(
        f"query_p50_ms {lat['p50']:.3f} ms{_tail(lat, 'query')} (open loop at "
        f"{OPEN_RATE[name]:.0f} requests/s, n={lat['n']}, {opened.counts()})"
    )
    late = summarize([(o.sent - o.due) * 1e3 for o in opened.ops])
    lines.append(
        f"lateness_p50_ms {late['p50']:.3f} ms{_tail(late, 'lateness')} "
        f"(open-loop generator, n={late['n']})"
    )
    hits = daemon_window.get("serve.cache_hits", 0)
    lookups = hits + daemon_window.get("serve.cache_misses", 0)
    pool_hits = daemon_window.get("pool.hits", 0)
    borrows = pool_hits + daemon_window.get("pool.misses", 0)
    lines.append(
        f"cache_hit_ratio {hits / max(1, lookups):.4f} (ResultCache, {lookups} lookups), "
        f"pool_hit_ratio {pool_hits / max(1, borrows):.4f} ({borrows} borrows, "
        f"{daemon_window.get('pool.evictions', 0)} evictions, "
        f"{daemon_window.get('pool.repairs', 0)} repairs) over the measured loops"
    )
    applies = [o for p in phases for o in p.applies()]
    if applies:
        app = summarize(_latencies_ms(wl, opened.applies()))
        rt = summarize([wl.timeline.scaled(o.sent, o.done) * 1e3 for o in applies if o.ok])
        lines.append(
            f"apply_p50_ms {app['p50']:.3f} ms{_tail(app, 'apply')} "
            f"(from due, open loop, n={app['n']})"
        )
        lines.append(
            f"apply_rt_p50_ms {rt['p50']:.3f} ms{_tail(rt, 'apply_rt')} "
            f"(round trip, both loops, n={rt['n']})"
        )
        for label, phase in (("closed", closed), ("open", opened)):
            lines.append(
                f"reads_per_epoch {len(phase.reads()) / max(1, len(phase.applies())):.1f} "
                f"({label} loop: {len(phase.reads())} read batches, "
                f"{len(phase.applies())} apply-events epochs)"
            )
    total_ops = sum(len(p.ops) for p in phases)
    failed = sum(p.counts()["failed"] for p in phases)
    lines.append(f"error_rate {failed / max(1, total_ops):.6f} ({failed}/{total_ops})")
    issued = [i for p in phases for o in p.reads() for i in wl.batches[o.index]]
    lines.append(f"inputs {json.dumps(inputs.query_properties(wl.queries, issued))}")
    if wl.epochs:
        applied = [wl.epoch_events(k) for k in range(1, wl.applied + 1)]
        lines.append(f"churn {json.dumps(inputs.churn_properties(applied, wl.applied))}")
    return lines
