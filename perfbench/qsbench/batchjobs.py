"""The batch workloads: ``trace_replay`` and ``population_month``.

Each run executes in a fresh child process (``python
perfbench/qsbench/batchjobs.py ...``), so ``peak_rss_mb`` is that
process's own peak; the child prints one JSON line with its measurements
and the parent (:mod:`run`) runs the correctness gates.

``trace_replay``: one unit opens the world's paper-scale ``TraceEngine``
stream (set-up) and replays its first :data:`REPLAY_DAYS` days — the day-0
table burst plus steady churn — through :func:`repro.bgpsim.stream.replay`
in one-hour windows into an :class:`~repro.bgpsim.rfd.ExposureConsumer`
over a seeded half of the Tor prefixes.  :data:`TRACE_UNITS` identical
units run per run.  The trace is the world's, the same for every seed:
its record count is what the throughput divides by, so seeds only choose
which relays' prefixes the exposure analysis tracks.

``population_month``: set-up builds the world and a 30-day
``evolve_consensus`` series; the measured loop calls
``simulate_population`` on the vector backend for
:data:`POPULATION_USERS` users at a time, with a fresh routing engine per
call, because a user pays the exposure tables on every run.

Both workloads are single-threaded Python, so a probe thread
(:meth:`qsbench.speed.Timeline.sampling`) times the reference loop every
0.1 s while they run, and every timing is scaled to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Iterator, List

from qsbench import layers, speed, world

DAY = 86_400.0
#: days of the month-long trace each unit replays
REPLAY_DAYS = 2
#: replay window width: one hour, so the day-0 table burst is the first
#: window of 48 and the median window is steady churn.  With six-hour
#: windows (16 a run, of very different sizes) the median fell between
#: two of them, and its spread between runs reached 0.29.
WINDOW_SECONDS = DAY / 24
#: open_stream + replay units per run (``setup_s`` is their median)
TRACE_UNITS = 2
#: world + consensus-series builds per run (``setup_s`` is their median)
POPULATION_SETUPS = 3
POPULATION_USERS = 2_000 if world.TINY else 20_000
POPULATION_DAYS = 30
CIRCUITS_PER_DAY = 6
NUM_CLIENT_ASES = 20 if world.TINY else 200
NUM_DESTINATIONS = 5 if world.TINY else 20
NUM_ADVERSARIES = 3


def tracked_prefixes(scenario, seed: int) -> list:
    """The seeded half of the Tor prefixes the exposure consumer tracks."""
    import random

    tor = sorted(scenario.tor_prefixes, key=str)
    return random.Random(f"tracked:{seed}").sample(tor, len(tor) // 2)


def population_seed(seed: int, call: int) -> int:
    return seed * 1000 + call


# -- trace_replay ----------------------------------------------------------------------


class TimedConsumer:
    """Delegating stream consumer that timestamps each finished window."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.ends: List[float] = []

    def consume(self, window) -> None:
        self.inner.consume(window)
        self.ends.append(time.perf_counter())

    def state(self) -> dict:
        return self.inner.state()

    def restore(self, state: dict) -> None:
        self.inner.restore(state)


def _until(stream, horizon: float) -> Iterator[object]:
    """The stream's events before ``horizon``; stops pulling after it."""
    for event in stream:
        if event.time >= horizon:
            return
        yield event


def open_trace(scenario):
    from repro.asgraph.engine import RoutingEngine
    from repro.bgpsim.trace import TraceEngine

    engine = TraceEngine(
        scenario.graph,
        scenario.prefix_origins,
        scenario.tor_prefixes,
        scenario.config.trace,
        engine=RoutingEngine(),
    )
    return engine.open_stream(), engine.engine


def trace_unit(scenario, seed: int) -> dict:
    """One open_stream + replay unit; the caller scales its ``marks`` once
    the run's probes are all in."""
    from repro.bgpsim.rfd import ExposureConsumer
    from repro.bgpsim.stream import replay

    opened = time.perf_counter()
    stream, engine = open_trace(scenario)
    consumer = TimedConsumer(ExposureConsumer(tracked_prefixes(scenario, seed)))
    horizon = REPLAY_DAYS * DAY
    start = time.perf_counter()
    report = replay(
        _until(stream, horizon), consumer, window_seconds=WINDOW_SECONDS, duration=horizon
    )
    return {
        "marks": [opened, start] + consumer.ends,
        "records": report.records,
        "windows": report.windows,
        "peak_window_events": report.peak_window_events,
        "consumed": consumer.inner.records,
        "qualified": len(consumer.inner.qualified),
        "engine": layers.engine_summary(engine),
    }


def trace_pass(scenario, seed: int, units: int) -> dict:
    timeline = speed.Timeline()
    with timeline.sampling():
        results = [trace_unit(scenario, seed) for _ in range(units)]
    for r in results:
        marks = r.pop("marks")
        r["setup_s"] = timeline.scaled(marks[0], marks[1])
        r["setup_raw_s"] = marks[1] - marks[0]
        r["replay_s"] = timeline.scaled(marks[1], marks[-1])
        r["replay_raw_s"] = marks[-1] - marks[1]
        r["window_s"] = [timeline.scaled(a, b) for a, b in zip(marks[1:], marks[2:])]
    records = sum(r["records"] for r in results)
    replay_s = sum(r["replay_s"] for r in results)
    windows = [w for r in results for w in r["window_s"]]
    return {
        "end_to_end": {
            "throughput_per_s": records / replay_s,
            "latency_p50_ms": statistics.median(windows) * 1e3,
            "setup_s": statistics.median(r["setup_s"] for r in results),
        },
        "probe_s": timeline.median_probe_s(),
        "probes": len(timeline.probes),
        "units": results,
        "replay": {
            "windows": sum(r["windows"] for r in results),
            "peak_window_events": max(r["peak_window_events"] for r in results),
        },
        "engine": _sum_engines(r["engine"] for r in results),
    }


def _sum_engines(parts) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


# -- population_month ------------------------------------------------------------------


def population_inputs(scenario, seed: int) -> dict:
    import random

    from repro.tor.clientdist import ClientASDistribution

    rng = random.Random(f"population:{seed}")
    transit = sorted(
        a
        for a in scenario.graph.ases
        if scenario.graph.customers(a) and scenario.graph.providers(a)
    )
    return {
        "clients": ClientASDistribution.zipf(
            scenario.client_ases(NUM_CLIENT_ASES), exponent=1.0
        ),
        "dests": scenario.destination_ases(NUM_DESTINATIONS),
        "adversaries": frozenset(rng.sample(transit, NUM_ADVERSARIES)),
        "churn_seed": rng.randrange(1 << 30),
    }


def population_setup(seed: int):
    from repro.tor.churn import ChurnConfig, evolve_consensus

    start = time.perf_counter()
    scenario = world.build_world()
    inputs = population_inputs(scenario, seed)
    series = evolve_consensus(
        scenario.consensus, POPULATION_DAYS, ChurnConfig(seed=inputs["churn_seed"])
    )
    return time.perf_counter() - start, scenario, inputs, series


def simulate(scenario, inputs, series, *, users: int, seed: int, backend: str):
    from repro.asgraph.engine import RoutingEngine
    from repro.core.population import simulate_population

    engine = RoutingEngine()
    report = simulate_population(
        scenario.graph,
        series,
        scenario.relay_asn,
        inputs["clients"],
        inputs["dests"],
        inputs["adversaries"],
        num_users=users,
        days=POPULATION_DAYS,
        circuits_per_day=CIRCUITS_PER_DAY,
        seed=seed,
        backend=backend,
        keep_outcomes=False,
        engine=engine,
    )
    return report, engine


def population_pass(seed: int, seconds: float, setups: int) -> dict:
    timeline = speed.Timeline()
    calls = []
    setup_marks = []
    with timeline.sampling():
        for _ in range(setups):
            start = time.perf_counter()
            _t, scenario, inputs, series = population_setup(seed)
            setup_marks.append((start, time.perf_counter()))
        deadline = time.perf_counter() + seconds
        while not calls or time.perf_counter() < deadline:
            start = time.perf_counter()
            report, engine = simulate(
                scenario,
                inputs,
                series,
                users=POPULATION_USERS,
                seed=population_seed(seed, len(calls)),
                backend="vector",
            )
            end = time.perf_counter()
            calls.append((start, end, report.aggregate, layers.engine_summary(engine)))
    calls = [
        {
            "seconds": timeline.scaled(start, end),
            "raw_seconds": end - start,
            "users": agg.users,
            "circuits_built": agg.circuits_built,
            "compromised_users": agg.compromised_users,
            "engine": engine,
        }
        for start, end, agg, engine in calls
    ]
    median_call = statistics.median(c["seconds"] for c in calls)
    return {
        "end_to_end": {
            # every call simulates the same number of user-days
            "throughput_per_s": POPULATION_USERS * POPULATION_DAYS / median_call,
            "latency_p50_ms": median_call * 1e3,
            "setup_s": statistics.median(timeline.scaled(a, b) for a, b in setup_marks),
        },
        "setup_raw_s": statistics.median(b - a for a, b in setup_marks),
        "probe_s": timeline.median_probe_s(),
        "probes": len(timeline.probes),
        "calls": calls,
        "engine": _sum_engines(c["engine"] for c in calls),
    }


# -- child entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one batch workload (child process)")
    parser.add_argument("--workload", required=True, choices=["trace_replay", "population_month"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    # One CPU, as the serve workloads: set before numpy loads, so no
    # library starts threads that would spread over the other CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload == "trace_replay":
        scenario = world.build_world()
        units = 1 if args.trace else TRACE_UNITS
        untraced = trace_pass(scenario, args.seed, units)
    else:
        untraced = population_pass(
            args.seed, args.seconds, 1 if args.trace else POPULATION_SETUPS
        )
    untraced["end_to_end"]["peak_rss_mb"] = world.peak_rss_mb()
    out = {"untraced": untraced}

    if args.trace:
        tracer = layers.Tracer().install()
        try:
            if args.workload == "trace_replay":
                traced = trace_pass(scenario, args.seed, 1)
                summary = {"replay": traced["replay"]}
            else:
                traced = population_pass(args.seed, args.seconds, 1)
                summary = {}
            summary["engine"] = traced["engine"]
        finally:
            tracer.uninstall()
        tracer.recorder.dump(args.spans)
        summary.update(tracer.summary())
        per_layer = layers.layer_metrics(tracer.recorder.spans, summary)
        per_layer.update(layers.overhead(untraced["end_to_end"], traced["end_to_end"]))
        out["per_layer"] = per_layer
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
