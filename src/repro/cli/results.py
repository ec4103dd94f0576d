"""Typed result objects for every CLI command.

Each ``repro.cli`` command computes one of these dataclasses and *returns*
it; presentation is someone else's job.  The same object renders two ways:

- :mod:`repro.cli.render` turns it into the human text the command always
  printed;
- ``--json`` dumps :meth:`CommandResult.document` — a stable, versioned
  JSON envelope — making every command scriptable.

``payload()`` is written out explicitly per class (no ``asdict`` magic) so
the JSON schema is a deliberate, reviewable surface: prefixes become
strings, tuples become lists, and simulation objects that exist only for
plotting (e.g. the transfer's capture taps) are deliberately excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "CommandResult",
    "InfoResult",
    "TraceResult",
    "StreamTraceResult",
    "TargetInfo",
    "SweepInfo",
    "AttackResult",
    "TransferResult",
    "RovResult",
    "UsersResult",
    "PopulationResult",
    "ResilienceResult",
    "ServeResult",
]

#: bump when any payload shape changes incompatibly
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CommandResult:
    """Base for command results: knows its command name and JSON envelope."""

    @property
    def command(self) -> str:
        raise NotImplementedError

    def payload(self) -> Dict[str, object]:
        raise NotImplementedError

    def document(self, seed: int = 0, scale: str = "small") -> Dict[str, object]:
        """The ``--json`` envelope: command + world identity + payload."""
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": seed,
            "scale": scale,
            "result": self.payload(),
        }


@dataclass(frozen=True)
class InfoResult(CommandResult):
    """Dataset statistics of one built world (`info`)."""

    num_ases: int
    num_tier1: int
    num_stubs: int
    num_links: int
    num_relays: int
    num_guards: int
    num_exits: int
    num_guard_and_exit: int
    num_tor_prefixes: int
    num_hosting_ases: int
    num_background_prefixes: int
    weights: Dict[str, float]

    @property
    def command(self) -> str:
        return "info"

    def payload(self) -> Dict[str, object]:
        return {
            "ases": {
                "total": self.num_ases,
                "tier1": self.num_tier1,
                "stubs": self.num_stubs,
                "links": self.num_links,
            },
            "relays": {
                "total": self.num_relays,
                "guards": self.num_guards,
                "exits": self.num_exits,
                "guard_and_exit": self.num_guard_and_exit,
            },
            "prefixes": {
                "tor": self.num_tor_prefixes,
                "hosting_ases": self.num_hosting_ases,
                "background": self.num_background_prefixes,
            },
            "weights": dict(self.weights),
        }


@dataclass(frozen=True)
class TraceResult(CommandResult):
    """Figure 3 statistics from the month-long trace (`trace`)."""

    num_sessions: int
    num_records: int
    ratio_p_gt_1: float
    ratio_max: float
    extra_p_ge_2: float
    extra_p_gt_5: float
    extra_median: float
    #: CCDF points [(x, P[X > x]), ...] backing the two panels
    ratio_ccdf: Tuple[Tuple[float, float], ...] = ()
    extra_ccdf: Tuple[Tuple[float, float], ...] = ()

    @property
    def command(self) -> str:
        return "trace"

    def payload(self) -> Dict[str, object]:
        return {
            "sessions": self.num_sessions,
            "records_after_reset_removal": self.num_records,
            "path_change_ratio": {
                "p_greater_1": self.ratio_p_gt_1,
                "max": self.ratio_max,
                "ccdf": [[x, y] for x, y in self.ratio_ccdf],
            },
            "extra_ases": {
                "p_at_least_2": self.extra_p_ge_2,
                "p_greater_5": self.extra_p_gt_5,
                "median": self.extra_median,
                "ccdf": [[x, y] for x, y in self.extra_ccdf],
            },
        }


@dataclass(frozen=True)
class StreamTraceResult(CommandResult):
    """Bounded-memory streaming replay, optionally RFD-damped
    (`trace --stream`)."""

    duration_days: float
    num_collectors: int
    num_sessions: int
    rfd_vendor: Optional[str]
    windows: int
    window_days: float
    records: int
    peak_window_events: int
    resumed_windows: int
    suppressed_records: int
    suppression_episodes: int
    final_exposed_ases: int
    #: (window end in days, cumulative dwell-qualified exposed-AS count)
    exposure_curve: Tuple[Tuple[float, int], ...] = ()
    checkpoint: Optional[str] = None

    @property
    def command(self) -> str:
        return "trace-stream"

    def payload(self) -> Dict[str, object]:
        return {
            "duration_days": self.duration_days,
            "collectors": self.num_collectors,
            "sessions": self.num_sessions,
            "rfd_vendor": self.rfd_vendor,
            "replay": {
                "windows": self.windows,
                "window_days": self.window_days,
                "records": self.records,
                "peak_window_events": self.peak_window_events,
                "resumed_windows": self.resumed_windows,
                "checkpoint": self.checkpoint,
            },
            "rfd": {
                "suppressed_records": self.suppressed_records,
                "suppression_episodes": self.suppression_episodes,
            },
            "exposure": {
                "final_exposed_ases": self.final_exposed_ases,
                "curve": [[day, count] for day, count in self.exposure_curve],
            },
        }


@dataclass(frozen=True)
class TargetInfo:
    """One ranked target prefix of the attack sweep."""

    prefix: str
    origin_asn: int
    selection_probability: float

    def payload(self) -> Dict[str, object]:
        return {
            "prefix": self.prefix,
            "origin_asn": self.origin_asn,
            "selection_probability": self.selection_probability,
        }


@dataclass(frozen=True)
class SweepInfo:
    """Aggregate outcome of one attack kind over the top-k targets."""

    kind: str
    mean_capture: float
    interception_feasible: int
    num_targets: int

    def payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "mean_capture_fraction": self.mean_capture,
            "interception_feasible": self.interception_feasible,
            "targets": self.num_targets,
        }


@dataclass(frozen=True)
class AttackResult(CommandResult):
    """§3.2 hijack/interception sweep (`attack`)."""

    attacker_asn: int
    top_targets: Tuple[TargetInfo, ...]
    sweeps: Tuple[SweepInfo, ...]
    guard_coverage: float
    exit_coverage: float
    circuit_coverage: float
    top_k: int

    @property
    def command(self) -> str:
        return "attack"

    def payload(self) -> Dict[str, object]:
        return {
            "attacker_asn": self.attacker_asn,
            "top_k": self.top_k,
            "top_guard_targets": [t.payload() for t in self.top_targets],
            "sweeps": [s.payload() for s in self.sweeps],
            "surveillance_coverage": {
                "guard": self.guard_coverage,
                "exit": self.exit_coverage,
                "circuit": self.circuit_coverage,
            },
        }


@dataclass(frozen=True)
class TransferResult(CommandResult):
    """Circuit download (`transfer`, Figure 2 right)."""

    bytes_delivered: int
    duration: float
    throughput: float
    cells_forwarded: int
    sendmes: int
    #: (time, {tap name: cumulative bytes}) at ten evenly spaced times
    samples: Tuple[Tuple[float, Dict[str, float]], ...]
    #: ((segment a, segment b), pearson r) in a stable order
    correlations: Tuple[Tuple[str, str, float], ...]
    #: the raw capture taps, kept for ASCII plotting only (not serialised)
    taps: object = field(default=None, repr=False, compare=False)

    @property
    def command(self) -> str:
        return "transfer"

    def payload(self) -> Dict[str, object]:
        return {
            "bytes_delivered": self.bytes_delivered,
            "duration_seconds": self.duration,
            "throughput_bytes_per_second": self.throughput,
            "cells_forwarded": self.cells_forwarded,
            "sendmes": self.sendmes,
            "cumulative_bytes": [
                {"time": t, "segments": dict(row)} for t, row in self.samples
            ],
            "correlations": [
                {"a": a, "b": b, "r": r} for a, b, r in self.correlations
            ],
        }


@dataclass(frozen=True)
class RovResult(CommandResult):
    """RPKI adoption sweep against a guard-prefix hijack (`rov`)."""

    prefix: str
    origin_asn: int
    attacker_asn: int
    #: (adoption rate, capture w/ honest origin, capture w/ forged origin)
    rows: Tuple[Tuple[float, float, float], ...]

    @property
    def command(self) -> str:
        return "rov"

    def payload(self) -> Dict[str, object]:
        return {
            "prefix": self.prefix,
            "origin_asn": self.origin_asn,
            "attacker_asn": self.attacker_asn,
            "adoption_sweep": [
                {
                    "adoption": rate,
                    "capture_invalid_origin": honest,
                    "capture_forged_origin": forged,
                }
                for rate, honest, forged in self.rows
            ],
        }


@dataclass(frozen=True)
class ResilienceResult(CommandResult):
    """Hijack-resilience-aware guard selection (`resilience`)."""

    client_asn: int
    num_guards: int
    num_attackers: int
    mean_resilience: float
    min_resilience: float
    max_resilience: float
    #: (guard origin ASN, resilience) for the best guards, best first
    top_guards: Tuple[Tuple[int, float], ...]
    #: (alpha, expected capture, bandwidth distortion) — the §5 trade-off
    selection: Tuple[Tuple[float, float, float], ...]

    @property
    def command(self) -> str:
        return "resilience"

    def payload(self) -> Dict[str, object]:
        return {
            "client_asn": self.client_asn,
            "guards": self.num_guards,
            "attackers": self.num_attackers,
            "resilience": {
                "mean": self.mean_resilience,
                "min": self.min_resilience,
                "max": self.max_resilience,
            },
            "top_guards": [
                {"origin_asn": asn, "resilience": res}
                for asn, res in self.top_guards
            ],
            "selection_tradeoff": [
                {
                    "alpha": alpha,
                    "expected_capture": capture,
                    "bandwidth_distortion": distortion,
                }
                for alpha, capture, distortion in self.selection
            ],
        }


@dataclass(frozen=True)
class UsersResult(CommandResult):
    """User-level time-to-compromise simulation (`users`)."""

    num_clients: int
    days: int
    adversaries: Tuple[int, ...]
    #: cumulative fraction of users compromised by day (index 0 = day 1)
    curve: Tuple[float, ...]
    fraction_compromised: float
    median_days: Optional[float]

    @property
    def command(self) -> str:
        return "users"

    def payload(self) -> Dict[str, object]:
        return {
            "clients": self.num_clients,
            "days": self.days,
            "adversaries": list(self.adversaries),
            "fraction_compromised_by_day": list(self.curve),
            "fraction_compromised": self.fraction_compromised,
            "median_days_to_compromise": self.median_days,
        }


@dataclass(frozen=True)
class PopulationResult(CommandResult):
    """Population-scale compromise simulation (`population`)."""

    num_users: int
    num_client_ases: int
    days: int
    circuits_per_day: int
    num_guards: int
    backend: str
    skew: str
    churn: bool
    adversaries: Tuple[int, ...]
    #: cumulative fraction of users compromised by day (index 0 = day 1)
    curve: Tuple[float, ...]
    fraction_compromised: float
    median_days: Optional[float]
    #: (quantile, day the quantile of users is compromised by; None = never)
    time_to_compromise: Tuple[Tuple[float, Optional[int]], ...]
    #: (quantile, per-user circuit-compromise rate at that quantile)
    rate_percentiles: Tuple[Tuple[float, float], ...]
    user_days_per_sec: float

    @property
    def command(self) -> str:
        return "population"

    def payload(self) -> Dict[str, object]:
        return {
            "users": self.num_users,
            "client_ases": self.num_client_ases,
            "days": self.days,
            "circuits_per_day": self.circuits_per_day,
            "num_guards": self.num_guards,
            "backend": self.backend,
            "skew": self.skew,
            "churn": self.churn,
            "adversaries": list(self.adversaries),
            "fraction_compromised_by_day": list(self.curve),
            "fraction_compromised": self.fraction_compromised,
            "median_days_to_compromise": self.median_days,
            "time_to_compromise_days": [
                {"q": q, "day": day} for q, day in self.time_to_compromise
            ],
            "compromise_rate_percentiles": [
                {"q": q, "rate": rate} for q, rate in self.rate_percentiles
            ],
            "user_days_per_sec": self.user_days_per_sec,
        }


@dataclass(frozen=True)
class ServeResult(CommandResult):
    """Routing-daemon run summary, reported after shutdown (`serve`)."""

    host: str
    port: int
    num_ases: int
    connections: int
    requests: int
    batches: int
    queries: int
    errors: int
    cache_entries: int
    cache_hits: int
    cache_misses: int
    epoch: int = 0
    pool_sessions: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    pool_repairs: int = 0
    pool_retired: int = 0
    follow_windows: int = 0
    follow_events: int = 0

    @property
    def command(self) -> str:
        return "serve"

    def payload(self) -> Dict[str, object]:
        return {
            "address": {"host": self.host, "port": self.port},
            "world": {"ases": self.num_ases},
            "traffic": {
                "connections": self.connections,
                "requests": self.requests,
                "batches": self.batches,
                "queries": self.queries,
                "errors": self.errors,
            },
            "cache": {
                "entries": self.cache_entries,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "pool": {
                "epoch": self.epoch,
                "sessions": self.pool_sessions,
                "hits": self.pool_hits,
                "misses": self.pool_misses,
                "evictions": self.pool_evictions,
                "repairs": self.pool_repairs,
                "retired": self.pool_retired,
            },
            "follow": {
                "windows": self.follow_windows,
                "events": self.follow_events,
            },
        }
