"""Workloads and metrics of the benchmark: the source of ``BENCHMARK.json``.

Bounds: on the shared 2-vCPU VM the benchmark was tuned on, the
wall-clock speed of the same code moves by 30–55 % over minutes (neighbour
load).  The timing metrics are scaled to a reference speed measured beside
the program (:mod:`qsbench.speed`), which removes most of that, and they
take the largest bound BENCHMARK.json can set for what remains; NOTES.md
records the measured spreads.

Every workload reports every end-to-end metric (the contract asks for one
metric set), so the end-to-end metrics are defined per workload in terms
of that workload's unit of work; ``NOTES.md`` maps them onto the
serving, trace and population names (``capacity_qps``,
``records_per_s``, ``user_days_per_s`` ...) that the human-readable
report lines print alongside.
"""

from __future__ import annotations

import json
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: seconds one run measures (``BENCHMARK.json`` run_seconds; passed as ``--seconds``)
RUN_SECONDS = 20

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "serve_tor",
        "why": "never-repeating Tor-client queries over more origins than the "
        "256-session pool holds: pool miss path and routing kernels, cache idle",
    },
    {
        "name": "serve_churn",
        "why": "a hot circuit set re-queried while apply-events epochs land: cache "
        "hits, epoch invalidation, pool repairs and the reader/writer gate",
    },
    {
        "name": "trace_replay",
        "why": "paper-scale trace streamed through windowed replay into the "
        "exposure consumer: trace event application, no serve layer",
    },
    {
        "name": "population_month",
        "why": "simulate_population over a 30-day churned consensus on the vector "
        "backend: population kernel, exposure tables and runner",
    },
]

END_TO_END: List[Dict[str, object]] = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]

#: (name, unit, better) of every per-layer metric; each traced run emits
#: all of them, zero where the workload does not reach the layer.
_LAYER_METRICS = [
    # serve.protocol
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.bytes_per_query", "B", "lower"),
    # serve.daemon
    ("daemon.overhead_ms_p50", "ms", "lower"),
    ("daemon.overhead_ms_p99", "ms", "lower"),
    ("daemon.requests", "count", "higher"),
    ("daemon.errors", "count", "lower"),
    # serve.facade
    ("facade.batch_self_ms_p50", "ms", "lower"),
    ("facade.batch_self_ms_p99", "ms", "lower"),
    ("facade.cache_hit_ratio", "ratio", "higher"),
    ("facade.invalidated_per_epoch", "count", "lower"),
    # serve.pool
    ("pool.hit_ratio", "ratio", "higher"),
    ("pool.created", "count", "lower"),
    ("pool.evictions", "count", "lower"),
    ("pool.borrow_ms_p50", "ms", "lower"),
    ("pool.borrow_ms_p99", "ms", "lower"),
    ("pool.apply_ms_p50", "ms", "lower"),
    ("pool.apply_ms_p90", "ms", "lower"),
    ("pool.gate_wait_ms_p50", "ms", "lower"),
    ("pool.gate_wait_ms_p90", "ms", "lower"),
    ("pool.proven_ratio", "ratio", "higher"),
    # asgraph.engine
    ("engine.hit_ratio", "ratio", "higher"),
    ("engine.compute_s", "s", "lower"),
    # asgraph.fastpath
    ("fastpath.calls", "count", "lower"),
    ("fastpath.ms_p50", "ms", "lower"),
    # asgraph.batch
    ("batch.calls", "count", "lower"),
    ("batch.origins_per_call", "count", "higher"),
    ("batch.s", "s", "lower"),
    # asgraph.incremental
    ("incremental.sessions_built", "count", "lower"),
    ("incremental.build_ms_p50", "ms", "lower"),
    ("incremental.set_excluded_ms_p50", "ms", "lower"),
    ("incremental.set_excluded_ms_p99", "ms", "lower"),
    ("incremental.events", "count", "lower"),
    ("incremental.noops", "count", "higher"),
    ("incremental.subtree_repairs", "count", "lower"),
    ("incremental.full_rebuilds", "count", "lower"),
    ("incremental.noop_ratio", "ratio", "higher"),
    ("incremental.rebuild_ratio", "ratio", "lower"),
    # bgpsim.trace / bgpsim.stream / bgpsim.rfd
    ("trace.open_stream_s", "s", "lower"),
    ("stream.windows", "count", "lower"),
    ("stream.peak_window_events", "count", "lower"),
    ("stream.window_s_p50", "s", "lower"),
    ("stream.window_s_max", "s", "lower"),
    ("consumer.consume_s", "s", "lower"),
    # core.population / core.surveillance / runner / tor.churn
    ("population.spec_s", "s", "lower"),
    ("surveillance.exposure_table_s", "s", "lower"),
    ("runner.trials", "count", "lower"),
    ("population.block_s_p50", "s", "lower"),
    ("churn.evolve_s", "s", "lower"),
    # tracing overhead: traced over untraced end-to-end, minus one
    ("overhead.throughput_pct", "%", "lower"),
    ("overhead.latency_p50_pct", "%", "lower"),
]

#: (counter, better) of the program's own ``repro.obs`` recorder, reported
#: as ``obs.<counter>`` in the traced run.  Work counters whose count only
#: tracks the load (requests, trials, users, records) count as "higher":
#: more of them in the same time is more throughput.  Misses, errors,
#: builds, evictions, repairs and per-event work are "lower".
OBS_COUNTERS = [
    ("serve.requests", "higher"),
    ("serve.errors", "lower"),
    ("serve.connections", "lower"),
    ("serve.epoch_bumps", "higher"),
    ("serve.pool.hits", "higher"),
    ("serve.pool.misses", "lower"),
    ("serve.pool.created", "lower"),
    ("serve.pool.evictions", "lower"),
    ("serve.pool.repairs", "lower"),
    ("serve.pool.events", "higher"),
    ("attack.hijacks", "higher"),
    ("trace.sessions.hits", "higher"),
    ("trace.sessions.misses", "lower"),
    ("trace.sessions.created", "lower"),
    ("trace.sessions.evictions", "lower"),
    ("trace.sessions.repairs", "lower"),
    ("trace.route_cache.hits", "higher"),
    ("trace.route_cache.misses", "lower"),
    ("trace.route_cache.evictions", "lower"),
    ("trace.link_index.lookups", "lower"),
    ("trace.stream.records", "higher"),
    ("runner.trials_completed", "higher"),
    ("runner.chunks", "higher"),
    ("population.users", "higher"),
    ("population.user_days", "higher"),
    ("population.circuits_built", "higher"),
    ("population.circuits_compromised", "higher"),
]

PER_LAYER: List[Dict[str, str]] = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in _LAYER_METRICS
] + [
    {"name": f"obs.{name}", "unit": "count", "better": better}
    for name, better in OBS_COUNTERS
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in END_TO_END}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in PER_LAYER}


def benchmark_doc() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_doc(), indent=2) + "\n"
