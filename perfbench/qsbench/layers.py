"""The traced run: wrappers around each layer's public calls, and the
per-layer metrics computed from the spans they record.

:meth:`Tracer.install` patches the program's functions in the current process
(the daemon process for the serve workloads, the child process for the
batch jobs) so every call records a span in a
:class:`~qsbench.spans.SpanRecorder`; it also installs a fresh
``repro.obs`` recorder so the program's own counters can be read back.
:func:`layer_metrics` turns spans plus counter snapshots into the
``per_layer`` metrics named in ``BENCHMARK.json``; layers a workload never
reaches report zero.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from qsbench import spec
from qsbench.spans import (
    Span,
    SpanRecorder,
    rebind_imports,
    self_times,
    wrap_enter,
    wrap_function,
    wrap_generator,
)
from qsbench.stats import percentile, ratio

_SESSION_FIELDS = ("events", "noops", "subtree_repairs", "full_rebuilds")


class Tracer:
    """Owns the span recorder, the installed wrappers and the obs recorder."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.obs_recorder = None
        self._undo: List[Callable[[], None]] = []
        self._previous_obs = None

    def install(self) -> "Tracer":
        from repro import obs
        from repro.asgraph import batch, fastpath, incremental
        from repro.bgpsim import stream, trace
        from repro.bgpsim.rfd import ExposureConsumer
        from repro.core import population, surveillance
        from repro.serve import daemon, facade, pool, protocol
        from repro.tor import churn

        rec = self.recorder
        undo = self._undo
        undo.append(wrap_function(protocol, "encode_frame", "protocol.encode", rec))
        undo.append(wrap_function(protocol, "decode_frame", "protocol.decode", rec))
        undo.append(wrap_function(daemon, "encode", "protocol.encode", rec))
        undo.append(wrap_function(daemon, "decode", "protocol.decode", rec))
        undo.append(
            wrap_function(
                facade.QueryFacade,
                "execute_batch",
                "facade.batch",
                rec,
                request_of=lambda _self, request: request.id,
            )
        )
        undo.append(wrap_function(facade.QueryFacade, "apply_events", "facade.apply", rec))
        undo.append(wrap_enter(pool.SessionPool, "borrow", "pool.borrow", rec))
        undo.append(wrap_function(pool.SessionPool, "apply_events", "pool.apply", rec))
        undo.append(wrap_enter(pool._RWGate, "write", "pool.gate_wait", rec))
        undo.append(self._wrap_session(incremental.DynamicRoutingSession))
        undo.append(
            wrap_function(
                fastpath, "compute_routes_fast", "fastpath.compute", rec, rebind=True
            )
        )
        undo.append(self._wrap_batch(batch))
        undo.append(wrap_function(trace.TraceEngine, "open_stream", "trace.open_stream", rec))
        undo.append(wrap_generator(stream, "iter_windows", "stream.window", rec))
        undo.append(wrap_function(ExposureConsumer, "consume", "consumer.consume", rec))
        undo.append(wrap_function(population, "population_spec", "population.spec", rec))
        undo.append(
            wrap_function(population, "_population_block_trial", "population.block", rec)
        )
        undo.append(
            wrap_function(
                surveillance.SurveillanceModel,
                "exposure_table",
                "surveillance.exposure_table",
                rec,
            )
        )
        undo.append(wrap_function(churn, "evolve_consensus", "churn.evolve", rec))
        self.obs_recorder = obs.Recorder()
        self._previous_obs = obs.set_recorder(self.obs_recorder)
        return self

    def uninstall(self) -> None:
        from repro import obs

        while self._undo:
            self._undo.pop()()
        if self._previous_obs is not None:
            obs.set_recorder(self._previous_obs)
            self._previous_obs = None

    def _wrap_session(self, cls) -> Callable[[], None]:
        """Span session builds and ``set_excluded`` diffs; sum the
        ``SessionStats`` each diff adds (sessions built before tracing
        started included)."""
        rec = self.recorder
        init, set_excluded = cls.__init__, cls.set_excluded

        @functools.wraps(init)
        def traced_init(session, *args, **kwargs):
            with rec.span("incremental.build"):
                init(session, *args, **kwargs)

        @functools.wraps(set_excluded)
        def traced_set_excluded(session, *args, **kwargs):
            before = [getattr(session.stats, f) for f in _SESSION_FIELDS]
            with rec.span("incremental.set_excluded"):
                changed = set_excluded(session, *args, **kwargs)
            for f, b in zip(_SESSION_FIELDS, before):
                rec.add(f"session.{f}", getattr(session.stats, f) - b)
            return changed

        cls.__init__, cls.set_excluded = traced_init, traced_set_excluded

        def restore() -> None:
            cls.__init__, cls.set_excluded = init, set_excluded

        return restore

    def _wrap_batch(self, module) -> Callable[[], None]:
        rec = self.recorder
        inner = wrap_function(
            module, "compute_routes_many", "batch.compute", rec, rebind=True
        )
        traced = module.compute_routes_many

        @functools.wraps(traced)
        def counted(graph, origins, *args, **kwargs):
            rec.add("batch.origins", len(origins))
            return traced(graph, origins, *args, **kwargs)

        entries = rebind_imports(traced, counted)

        def restore() -> None:
            for owner, attr, value in reversed(entries):
                setattr(owner, attr, value)
            inner()

        return restore

    # -- snapshot ----------------------------------------------------------

    def summary(self) -> dict:
        """Counters the per-layer metrics need besides the spans."""
        sums = {f: self.recorder.counters.get(f"session.{f}", 0) for f in _SESSION_FIELDS}
        counters = {}
        if self.obs_recorder is not None:
            counters = dict(self.obs_recorder.snapshot().counters)
        return {
            "session_stats": sums,
            "obs": counters,
            "counters": dict(self.recorder.counters),
        }


def engine_summary(engine) -> dict:
    stats = engine.stats()
    return {
        "queries": stats.queries,
        "hits": stats.hits,
        "compute_seconds": stats.compute_seconds,
    }


def spans_from_records(records: Iterable[Mapping[str, object]]) -> List[Span]:
    return [
        Span(
            int(r["id"]),
            str(r["name"]),
            float(r["start"]),
            float(r["end"]),
            None if r["parent"] is None else int(r["parent"]),
            r["request"],
        )
        for r in records
    ]


def _durations(spans: List[Span], name: str) -> List[float]:
    return [s.duration for s in spans if s.name == name]


def _pct(values: List[float], q: float, scale: float = 1.0) -> float:
    return percentile(values, q) * scale if values else 0.0


def _median(values: List[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(
    spans: List[Span],
    summary: Mapping[str, object],
    *,
    client: Optional[Mapping[str, object]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``.

    ``summary`` carries the program-side counter snapshots: ``session_stats``,
    ``obs``, ``counters`` (from :meth:`Tracer.summary`) plus, when the
    workload has them, ``engine``, ``pool`` (``PoolStats`` fields),
    ``serve`` (``ServeStats`` fields) and ``replay`` (``ReplayReport``
    fields).  ``client`` carries the load generator's side: batch round
    trips by request id, apply round trips in order, and the churn reports
    the daemon returned.
    """
    out: Dict[str, float] = {m["name"]: 0.0 for m in spec.PER_LAYER}
    client = client or {}
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    # serve.protocol: codec + framing per batch request, bytes per query
    requests = len(by_name.get("facade.batch", ()))
    queries = client.get("queries", 0)
    if requests:
        out["protocol.encode_us"] = (
            sum(_durations(spans, "protocol.encode")) / requests * 1e6
        )
        out["protocol.decode_us"] = (
            sum(_durations(spans, "protocol.decode")) / requests * 1e6
        )
    if queries:
        out["protocol.bytes_per_query"] = client.get("bytes", 0) / queries

    # serve.daemon: client round trip minus the daemon-side batch span
    batch_by_request = {s.request: s.duration for s in by_name.get("facade.batch", ())}
    overhead = [
        rt - batch_by_request[rid]
        for rid, rt in (client.get("batch_rt") or {}).items()
        if rid in batch_by_request
    ]
    out["daemon.overhead_ms_p50"] = _median(overhead, 1e3)
    out["daemon.overhead_ms_p99"] = _pct(overhead, 99.0, 1e3)
    serve = summary.get("serve") or {}
    out["daemon.requests"] = float(serve.get("requests", 0))
    out["daemon.errors"] = float(serve.get("errors", 0))

    # serve.facade
    batch_self = [selfs[s.id] for s in by_name.get("facade.batch", ())]
    out["facade.batch_self_ms_p50"] = _median(batch_self, 1e3)
    out["facade.batch_self_ms_p99"] = _pct(batch_self, 99.0, 1e3)
    out["facade.cache_hit_ratio"] = ratio(
        serve.get("cache_hits", 0),
        serve.get("cache_hits", 0) + serve.get("cache_misses", 0),
    )
    reports = client.get("apply_reports") or []
    if reports:
        out["facade.invalidated_per_epoch"] = sum(
            r.get("invalidated", 0) for r in reports
        ) / len(reports)
        proven = sum(r.get("proven", 0) for r in reports)
        repaired = sum(r.get("repaired", 0) for r in reports)
        out["pool.proven_ratio"] = ratio(proven, proven + repaired)

    # serve.pool (the trace engine's pool reports through obs counters)
    obs_counters = summary.get("obs") or {}
    pool = summary.get("pool") or {
        key: obs_counters.get(f"trace.sessions.{key}", 0)
        for key in ("hits", "misses", "created", "evictions")
    }
    out["pool.hit_ratio"] = ratio(
        pool.get("hits", 0), pool.get("hits", 0) + pool.get("misses", 0)
    )
    out["pool.created"] = float(pool.get("created", 0))
    out["pool.evictions"] = float(pool.get("evictions", 0))
    borrow = _durations(spans, "pool.borrow")
    out["pool.borrow_ms_p50"] = _median(borrow, 1e3)
    out["pool.borrow_ms_p99"] = _pct(borrow, 99.0, 1e3)
    gate = _durations(spans, "pool.gate_wait")
    apply_self = [
        s.duration - sum(
            c.duration for c in by_name.get("pool.gate_wait", ()) if c.parent == s.id
        )
        for s in by_name.get("pool.apply", ())
    ]
    out["pool.apply_ms_p50"] = _median(apply_self, 1e3)
    out["pool.apply_ms_p90"] = _pct(apply_self, 90.0, 1e3)
    out["pool.gate_wait_ms_p50"] = _median(gate, 1e3)
    out["pool.gate_wait_ms_p90"] = _pct(gate, 90.0, 1e3)

    # asgraph.engine
    engine = summary.get("engine") or {}
    out["engine.hit_ratio"] = ratio(engine.get("hits", 0), engine.get("queries", 0))
    out["engine.compute_s"] = float(engine.get("compute_seconds", 0.0))

    # asgraph.fastpath / asgraph.batch
    fast = _durations(spans, "fastpath.compute")
    out["fastpath.calls"] = float(len(fast))
    out["fastpath.ms_p50"] = _median(fast, 1e3)
    batch = _durations(spans, "batch.compute")
    counters = summary.get("counters") or {}
    out["batch.calls"] = float(len(batch))
    out["batch.origins_per_call"] = ratio(counters.get("batch.origins", 0), len(batch))
    out["batch.s"] = sum(batch)

    # asgraph.incremental
    build = _durations(spans, "incremental.build")
    setx = _durations(spans, "incremental.set_excluded")
    out["incremental.sessions_built"] = float(len(build))
    out["incremental.build_ms_p50"] = _median(build, 1e3)
    out["incremental.set_excluded_ms_p50"] = _median(setx, 1e3)
    out["incremental.set_excluded_ms_p99"] = _pct(setx, 99.0, 1e3)
    sess = summary.get("session_stats") or {}
    for f in _SESSION_FIELDS:
        out[f"incremental.{f}"] = float(sess.get(f, 0))
    out["incremental.noop_ratio"] = ratio(sess.get("noops", 0), sess.get("events", 0))
    out["incremental.rebuild_ratio"] = ratio(
        sess.get("full_rebuilds", 0), sess.get("events", 0)
    )

    # bgpsim.trace / stream / rfd
    out["trace.open_stream_s"] = _median(_durations(spans, "trace.open_stream"))
    replay = summary.get("replay") or {}
    out["stream.windows"] = float(replay.get("windows", 0))
    out["stream.peak_window_events"] = float(replay.get("peak_window_events", 0))
    windows = _durations(spans, "stream.window")
    out["stream.window_s_p50"] = _median(windows)
    out["stream.window_s_max"] = max(windows) if windows else 0.0
    out["consumer.consume_s"] = sum(_durations(spans, "consumer.consume"))

    # core.population / surveillance / runner / tor.churn
    out["population.spec_s"] = _median(_durations(spans, "population.spec"))
    out["surveillance.exposure_table_s"] = _median(
        _durations(spans, "surveillance.exposure_table")
    )
    blocks = _durations(spans, "population.block")
    out["runner.trials"] = float(len(blocks))
    out["population.block_s_p50"] = _median(blocks)
    out["churn.evolve_s"] = _median(_durations(spans, "churn.evolve"))

    for name, _better in spec.OBS_COUNTERS:
        out[f"obs.{name}"] = float(obs_counters.get(name, 0))
    return out


def overhead(untraced: Mapping[str, float], traced: Mapping[str, float]) -> Dict[str, float]:
    """Tracing overhead, traced over untraced end-to-end, in percent."""
    return {
        "overhead.throughput_pct": (
            (untraced["throughput_per_s"] / traced["throughput_per_s"] - 1.0) * 100.0
        ),
        "overhead.latency_p50_pct": (
            (traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0) * 100.0
        ),
    }


def delta(now: Mapping[str, object], base: Mapping[str, object]) -> dict:
    """``now - base`` for every numeric field (``base`` may be empty)."""
    return {
        key: value - base.get(key, 0) if isinstance(value, (int, float)) else value
        for key, value in now.items()
    }


def pool_summary(pool) -> dict:
    return dataclasses.asdict(pool.stats())
