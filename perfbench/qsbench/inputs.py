"""Seeded input generators: Tor-client queries and churn epochs.

Everything the program receives is made here, and each generator records the input properties an optimisation depends on
(:func:`query_properties`, :func:`churn_properties`): the share of
repeated query keys, distinct pool keys against the session-pool cap, the
working set against the result-cache capacity, the query mix, and churn
events per epoch.

Tor-client draws follow the paper's threat model: client ASes are Zipf-
distributed over the stub networks that host no relay
(``ClientASDistribution.zipf``), guard and exit ASes are weighted by the
consensus bandwidth of the relays they host, destinations are Zipf over a
fixed set of popular stub ASes, and hijack attackers are transit ASes.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: hijack kinds other than same-prefix: a quarter of the hijacks, run
#: through the engine's cold path instead of a pooled session
OTHER_HIJACK_KINDS = ("more-specific-hijack", "interception", "community-scoped-hijack")
NUM_DESTINATIONS = 100


class _Weighted:
    """Draw from a fixed weighted list with a caller-supplied RNG."""

    def __init__(self, items: Sequence[int], weights: Sequence[float]) -> None:
        self.items = list(items)
        total = 0.0
        self.cum: List[float] = []
        for w in weights:
            total += w
            self.cum.append(total)
        self.total = total

    def draw(self, rng: random.Random) -> int:
        index = bisect.bisect_right(self.cum, rng.random() * self.total)
        return self.items[min(index, len(self.items) - 1)]


@dataclass
class TorDistributions:
    """Where Tor clients, guards, exits, destinations and attackers sit."""

    clients: _Weighted
    guards: _Weighted
    exits: _Weighted
    dests: _Weighted
    attackers: List[int]


def tor_distributions(world) -> TorDistributions:
    from repro.tor.clientdist import ClientASDistribution

    hosting = set(world.tor.prefix_origins.values())
    stubs = [a for a in world.graph.stub_ases() if a not in hosting]
    # client_ases() orders by a world-seeded shuffle: that order is the
    # popularity rank the Zipf weights follow.
    zipf = ClientASDistribution.zipf(world.client_ases(len(stubs)), exponent=1.0)
    guard_bw: Dict[int, float] = {}
    for relay in world.consensus.guards():
        asn = world.relay_asn(relay.fingerprint)
        guard_bw[asn] = guard_bw.get(asn, 0.0) + relay.bandwidth
    exit_bw: Dict[int, float] = {}
    for relay in world.consensus.exits():
        asn = world.relay_asn(relay.fingerprint)
        exit_bw[asn] = exit_bw.get(asn, 0.0) + relay.bandwidth
    dests = ClientASDistribution.zipf(
        world.destination_ases(NUM_DESTINATIONS), exponent=1.0
    )
    attackers = sorted(
        asn
        for asn in world.graph.ases
        if world.graph.customers(asn) and world.graph.providers(asn)
    )
    return TorDistributions(
        clients=_Weighted(zipf.ases, zipf.weights),
        guards=_Weighted(sorted(guard_bw), [guard_bw[a] for a in sorted(guard_bw)]),
        exits=_Weighted(sorted(exit_bw), [exit_bw[a] for a in sorted(exit_bw)]),
        dests=_Weighted(dests.ases, dests.weights),
        attackers=attackers,
    )


#: one block of the kind schedule: the mix, with one hijack in four of
#: another kind than same-prefix
_BLOCK = ["path"] * 12 + ["same-prefix-hijack"] * 3 + ["other-hijack"] + ["exposure"] * 4


def _kinds(rng: random.Random) -> Iterator[str]:
    """Query kinds in shuffled blocks that each hold the exact mix.

    Blocks keep the share of every kind, and of the expensive
    non-same-prefix hijacks, the same in every run, so seeds differ in
    which circuits they draw, not in how much work of each kind they send.
    """
    others = itertools.cycle(OTHER_HIJACK_KINDS)
    while True:
        block = list(_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield next(others) if kind == "other-hijack" else kind


def _circuit(dist: TorDistributions, rng: random.Random) -> Tuple[int, int, int, int]:
    while True:
        client = dist.clients.draw(rng)
        guard = dist.guards.draw(rng)
        exit_ = dist.exits.draw(rng)
        dest = dist.dests.draw(rng)
        if len({client, guard, exit_, dest}) == 4:
            return client, guard, exit_, dest


def _hijack(dist: TorDistributions, rng: random.Random, victim: int, client: int, kind: str):
    from repro.serve.api import HijackQuery

    attacker = victim
    while attacker == victim:
        attacker = rng.choice(dist.attackers)
    return HijackQuery(victim=victim, attacker=attacker, kind=kind, clients=(client,))


def draw_query(dist: TorDistributions, rng: random.Random, kind: str):
    """One Tor-client query of ``kind`` (a hijack kind, ``path`` or
    ``exposure``) on a freshly drawn circuit."""
    from repro.serve.api import ExposureQuery, PathQuery

    client, guard, exit_, dest = _circuit(dist, rng)
    if kind == "path":
        return PathQuery(src=client, dst=guard)
    if kind == "exposure":
        return ExposureQuery(
            client=client,
            guard=guard,
            exit=exit_,
            dest=dest,
            adversaries=(rng.choice(dist.attackers),),
        )
    return _hijack(dist, rng, guard, client, kind)


def unique_stream(dist: TorDistributions, seed: int, *, salt: str) -> Iterator[object]:
    """An endless stream of Tor-client queries, no query key drawn twice.

    The kind is drawn first and a duplicate is redrawn within its kind, so
    the mix holds even though popular client-guard pairs repeat often.
    """
    from repro.serve.api import query_key

    rng = random.Random(f"{salt}:{seed}")
    seen = set()
    for kind in _kinds(random.Random(f"{salt}-kinds:{seed}")):
        while True:
            query = draw_query(dist, rng, kind)
            key = query_key(query)
            if key not in seen:
                break
        seen.add(key)
        yield query


def hot_set(dist: TorDistributions, circuits: int) -> list:
    """The world's hot set: queries over ``circuits`` Tor circuits, mix 3:1:1.

    Per circuit: the client-guard path both ways and the exit-destination
    path, one hijack of the guard's prefix, one end-to-end exposure.  Every
    fourth hijack is of another kind than same-prefix, cycling the kinds.
    The set is the same for every workload seed (the seed drives the read
    order and arrival times): which circuits are hot decides how much
    work every epoch invalidates, and a per-seed draw moved the capacity
    by more than the machine's own noise.
    """
    from repro.serve.api import ExposureQuery, PathQuery

    rng = random.Random("hot")
    others = itertools.cycle(OTHER_HIJACK_KINDS)
    out = []
    for i in range(circuits):
        client, guard, exit_, dest = _circuit(dist, rng)
        kind = next(others) if i % 4 == 3 else "same-prefix-hijack"
        out.append(PathQuery(src=client, dst=guard))
        out.append(PathQuery(src=guard, dst=client))
        out.append(PathQuery(src=dest, dst=exit_))
        out.append(_hijack(dist, rng, guard, client, kind))
        out.append(
            ExposureQuery(
                client=client,
                guard=guard,
                exit=exit_,
                dest=dest,
                adversaries=(rng.choice(dist.attackers),),
            )
        )
    return out


def pool_keys(query) -> List[Tuple[int, ...]]:
    """Session-pool keys a query borrows when answered by a pooled facade."""
    from repro.serve.api import ExposureQuery, HijackQuery, PathQuery

    if isinstance(query, PathQuery):
        return [(query.dst,)]
    if isinstance(query, ExposureQuery):
        return sorted({(a,) for a in (query.client, query.guard, query.exit, query.dest)})
    if isinstance(query, HijackQuery) and query.kind == "same-prefix-hijack":
        return [tuple(sorted((query.victim, query.attacker)))]
    return []


def query_properties(queries: Sequence[object], issued: Sequence[int]) -> dict:
    """Input properties of a read stream (``issued`` indexes ``queries``)."""
    from repro.serve.api import query_key
    from repro.serve.daemon import ServeConfig

    caps = ServeConfig()  # the daemon's pool and cache sizes the runs use
    keys = [query_key(queries[i]) for i in issued]
    distinct = len(set(keys))
    pool = set()
    kinds: Dict[str, int] = {}
    for i in set(issued):
        pool.update(pool_keys(queries[i]))
    for i in issued:
        name = type(queries[i]).__name__
        kinds[name] = kinds.get(name, 0) + 1
    n = max(1, len(keys))
    return {
        "queries": len(keys),
        "repeated_key_share": round(1.0 - distinct / n, 4),
        "distinct_keys": distinct,
        "distinct_pool_keys": len(pool),
        "pool_cap": caps.pool_entries,
        "working_set_over_cache": round(distinct / caps.cache_entries, 4),
        "mix": {k: round(v / n, 3) for k, v in sorted(kinds.items())},
    }


# -- churn epochs ----------------------------------------------------------------

#: trace time per apply-events epoch: one day, the default replay window
#: of ``repro serve --follow`` (``--follow-window-days 1``)
EPOCH_WINDOW_DAYS = 1.0


def churn_epochs(world) -> List[List[dict]]:
    """Apply-events batches from the world's core-outage schedule.

    The world's trace engine draws a month of core-link outages over its
    topology; their down/up deltas (``repro.serve.follow.link_events``)
    are windowed by ``repro.serve.follow.follow`` exactly as
    ``repro serve --follow`` windows them: one epoch per
    :data:`EPOCH_WINDOW_DAYS` of trace time, empty windows included.  The
    schedule is the same for every workload seed, so every run lands the
    same epochs and per-seed differences come from the reads alone.  The
    engine is opened over a single prefix: the outage schedule depends
    only on the topology and the trace seed, and one prefix keeps the t=0
    routing table cheap.
    """
    from repro.bgpsim.stream import DAY
    from repro.bgpsim.trace import TraceEngine
    from repro.serve.follow import follow, link_events

    prefix = sorted(world.tor_prefixes, key=str)[0]
    engine = TraceEngine(
        world.graph,
        {prefix: world.prefix_origins[prefix]},
        [prefix],
        world.config.trace,
        engine=world.engine,
    )
    epochs: List[List[dict]] = []

    def record(events: List[dict]) -> dict:
        epochs.append(events)
        return {"epoch": len(epochs)}

    follow(
        link_events(engine.open_stream().events),
        record,
        window_seconds=EPOCH_WINDOW_DAYS * DAY,
        duration=world.config.trace.duration_days * DAY,
    )
    return epochs


def exclusion_after(epochs: Sequence[Sequence[dict]], count: int) -> frozenset:
    """The link-exclusion set in force after the first ``count`` epochs."""
    excluded = set()
    for epoch in epochs[:count]:
        for event in epoch:
            link = frozenset(event["link"])
            if event["op"] == "down":
                excluded.add(link)
            else:
                excluded.discard(link)
    return frozenset(excluded)


def churn_properties(epochs: Sequence[Sequence[dict]], applied: int) -> dict:
    events = sum(len(e) for e in epochs[:applied])
    return {
        "epochs_applied": applied,
        "epochs_available": len(epochs),
        "events_per_epoch": round(events / applied, 3) if applied else 0.0,
        "distinct_links": len({tuple(ev["link"]) for e in epochs for ev in e}),
    }
