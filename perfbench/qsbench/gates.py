"""Correctness gates of the batch workloads, run outside the timed region.

- ``trace_replay``: on a down-sized instance of the same world (a slice of
  its prefixes, one collector, two days) the streamed trace
  (``TraceEngine.run``, replay-backed) must equal
  ``TraceEngine.run_materialized()`` record for record; the measured units
  must have replayed whole windows of time-ordered records.
- ``population_month``: on a user sample, the vector backend's aggregate
  must equal the ``loop`` backend's; the measured calls must have built
  every circuit of every user-day.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import warnings
from typing import List, Tuple

from qsbench import batchjobs, speed, world
from qsbench.stats import summarize

#: prefixes in the down-sized trace instance
GATE_PREFIXES = 60
GATE_DAYS = 2.0
#: users in the vector-vs-loop population sample
GATE_USERS = 200 if world.TINY else 1500


def _streams(trace) -> dict:
    return {
        session: [
            (r.time, str(r.prefix), r.as_path and tuple(r.as_path), r.from_reset)
            for r in stream.records
        ]
        for session, stream in sorted(trace.streams.items())
    }


def trace_gate(seed: int, measured: dict) -> Tuple[List[str], int, List[str]]:
    from repro.asgraph.engine import RoutingEngine
    from repro.bgpsim.trace import TraceEngine

    problems: List[str] = []
    scenario = world.build_world()
    tor_all = sorted(scenario.tor_prefixes, key=str)
    background = sorted(set(scenario.prefix_origins) - set(tor_all), key=str)
    half = GATE_PREFIXES // 2
    prefixes = tor_all[:half] + background[:half]
    origins = {p: scenario.prefix_origins[p] for p in prefixes}
    tor = [p for p in prefixes if p in scenario.tor_prefixes]
    config = dataclasses.replace(
        scenario.config.trace,
        duration_days=GATE_DAYS,
        collector_names=("rrc00",),
        sessions_per_collector=8,
        seed=20_000 + seed,
    )

    def engine() -> TraceEngine:
        return TraceEngine(scenario.graph, origins, tor, config, engine=RoutingEngine())

    streamed = _streams(engine().run())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        materialized = _streams(engine().run_materialized())
    if streamed != materialized:
        problems.append("streamed trace differs from run_materialized()")
    if not any(streamed.values()):
        problems.append("down-sized trace produced no records")

    for unit in measured["units"]:
        if unit["windows"] != round(batchjobs.REPLAY_DAYS * batchjobs.DAY / batchjobs.WINDOW_SECONDS):
            problems.append(f"replay covered {unit['windows']} windows")
        if unit["records"] <= 0 or not 0 < unit["consumed"] <= unit["records"]:
            problems.append("replay consumed no Tor-prefix records")

    units = measured["units"]
    windows = summarize([w * 1e3 for u in units for w in u["window_s"]])
    e2e = measured["end_to_end"]
    report = [
        f"records_per_s {e2e['throughput_per_s']:.1f} 1/s "
        f"({sum(u['records'] for u in units)} records over "
        f"{sum(u['replay_s'] for u in units):.3f} s of replay scaled to the reference "
        f"speed, {len(units)} units)",
        f"wall clock: records_per_s "
        f"{sum(u['records'] for u in units) / sum(u['replay_raw_s'] for u in units):.1f} 1/s, "
        f"open_stream_s median {statistics.median(u['setup_raw_s'] for u in units):.3f} s; "
        f"speed probe median {measured['probe_s'] * 1e3:.3f} ms against "
        f"{speed.REFERENCE_S * 1e3:g} ms reference (n={measured['probes']})",
        f"window_p50_ms {windows['p50']:.1f} ms (one-hour windows, n={windows['n']})",
        f"open_stream_s median {statistics.median(u['setup_s'] for u in units):.3f} s "
        f"(n={len(units)})",
        "error_rate 0 (every unit replayed; any failure aborts the run)",
        "inputs "
        + json.dumps(
            {
                "replay_days": batchjobs.REPLAY_DAYS,
                "day0_records": [u["peak_window_events"] for u in units],
                "records": [u["records"] for u in units],
                "qualified_ases": [u["qualified"] for u in units],
            }
        ),
        f"gate: streamed == run_materialized on {len(prefixes)} prefixes, "
        f"{sum(len(v) for v in streamed.values())} records",
    ]
    return problems, sum(u["records"] for u in units), report


def population_gate(seed: int, measured: dict) -> Tuple[List[str], int, List[str]]:
    problems: List[str] = []
    _t, scenario, inputs, series = batchjobs.population_setup(seed)
    sample = {}
    for backend in ("vector", "loop"):
        report, _engine = batchjobs.simulate(
            scenario,
            inputs,
            series,
            users=GATE_USERS,
            seed=batchjobs.population_seed(seed, 0),
            backend=backend,
        )
        sample[backend] = report.aggregate
    if sample["vector"] != sample["loop"]:
        problems.append("vector aggregate differs from the loop backend on the sample")

    calls = measured["calls"]
    per_user = batchjobs.POPULATION_DAYS * batchjobs.CIRCUITS_PER_DAY
    for call in calls:
        if call["users"] != batchjobs.POPULATION_USERS:
            problems.append(f"call simulated {call['users']} users")
        if call["circuits_built"] != call["users"] * per_user:
            problems.append("call did not build every circuit")
    e2e = measured["end_to_end"]
    users = sum(c["users"] for c in calls)
    report = [
        f"user_days_per_s {e2e['throughput_per_s']:.1f} 1/s "
        f"(user-days per call over the median call; "
        f"{users * batchjobs.POPULATION_DAYS} user-days over "
        f"{sum(c['seconds'] for c in calls):.3f} s scaled to the reference speed in "
        f"{len(calls)} calls)",
        f"wall clock: call_p50_ms "
        f"{statistics.median(c['raw_seconds'] for c in calls) * 1e3:.1f} ms, setup "
        f"median {measured['setup_raw_s']:.3f} s; speed probe median "
        f"{measured['probe_s'] * 1e3:.3f} ms against {speed.REFERENCE_S * 1e3:g} ms "
        f"reference (n={measured['probes']})",
        f"call_p50_ms {e2e['latency_p50_ms']:.1f} ms (n={len(calls)})",
        "error_rate 0 (every call completed; any failure aborts the run)",
        "inputs "
        + json.dumps(
            {
                "users_per_call": batchjobs.POPULATION_USERS,
                "days": batchjobs.POPULATION_DAYS,
                "client_ases": batchjobs.NUM_CLIENT_ASES,
                "adversaries": sorted(inputs["adversaries"]),
                "compromised_share": [
                    round(c["compromised_users"] / c["users"], 4) for c in calls
                ],
            }
        ),
        f"gate: vector == loop aggregate on {GATE_USERS} users",
    ]
    return problems, users, report
