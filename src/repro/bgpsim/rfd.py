"""Route-flap damping (RFD) as a stream transformer.

RAPTOR-style longitudinal exposure assumes every BGP path change reaches
the vantage point, but real routers deploy RFC 2439 route-flap damping:
each (session, prefix) accumulates a penalty per flap, decaying
exponentially with a configured half-life; past the suppress threshold
the route is withheld until the penalty decays below the reuse
threshold.  Heavily-flapping prefixes — exactly the ones driving the
paper's Figure 3 growth — are therefore *under*-observed, and the
exposed-AS curve with RFD enabled bounds how much of the churn survives
a damped deployment (vendor defaults per Mosig et al., TMA 2021).

:class:`RfdFilter` implements the per-(session, prefix) penalty state
machines over a merged :class:`~repro.bgpsim.collector.StreamEvent`
stream: suppression emits one synthetic withdrawal, suppressed updates
are absorbed (counted on ``trace.stream.suppressed``), and release
re-announces the then-current route at the decay-computed reuse time.
Output is invariant to how the stream is windowed — releases are timed
analytically, not on window boundaries — which is what makes resumed
replays bit-identical to uninterrupted ones.

:class:`ExposureConsumer` is the scenario's measuring end: a windowed
:class:`~repro.bgpsim.stream.StreamConsumer` folding the (optionally
RFD-filtered) stream into dwell-qualified exposed-AS growth, sampled at
every window boundary and checkpointable mid-year.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.analysis.exposure import DEFAULT_DWELL_THRESHOLD
from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import SessionId, StreamEvent, UpdateRecord
from repro.core.temporal import DwellTracker

__all__ = [
    "RfdConfig",
    "VENDORS",
    "RfdFilter",
    "ExposureConsumer",
]

_Key = Tuple[SessionId, Prefix]


@dataclass(frozen=True)
class RfdConfig:
    """One vendor's damping parameters (penalties are dimensionless)."""

    vendor: str
    withdrawal_penalty: float = 1000.0
    readvertisement_penalty: float = 0.0
    attribute_penalty: float = 500.0
    suppress_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    #: seconds for the penalty to halve
    half_life: float = 900.0
    #: longest a route may stay suppressed (enforced via the penalty ceiling)
    max_suppress_time: float = 3600.0

    def __post_init__(self) -> None:
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        if not 0 < self.reuse_threshold < self.suppress_threshold:
            raise ValueError("need 0 < reuse_threshold < suppress_threshold")

    @property
    def ceiling(self) -> float:
        """Maximum accumulated penalty.

        Capping here is what enforces ``max_suppress_time``: from the
        ceiling, decay reaches the reuse threshold in exactly that long.
        """
        return self.reuse_threshold * 2.0 ** (self.max_suppress_time / self.half_life)

    def decay(self, penalty: float, dt: float) -> float:
        return penalty * 0.5 ** (dt / self.half_life)

    def reuse_delay(self, penalty: float) -> float:
        """Seconds until ``penalty`` decays to the reuse threshold."""
        if penalty <= self.reuse_threshold:
            return 0.0
        return self.half_life * math.log2(penalty / self.reuse_threshold)


#: Default damping parameters of the two dominant implementations (per the
#: vendor-default survey in Mosig et al.): Juniper additionally penalizes
#: re-advertisements and suppresses at a higher threshold.
VENDORS: Dict[str, RfdConfig] = {
    "cisco": RfdConfig(vendor="cisco"),
    "juniper": RfdConfig(
        vendor="juniper",
        readvertisement_penalty=1000.0,
        suppress_threshold=3000.0,
    ),
}


class _KeyState:
    """Damping state of one (session, prefix)."""

    __slots__ = (
        "penalty", "last", "advertised", "downstream", "suppressed", "generation",
    )

    def __init__(self) -> None:
        self.penalty = 0.0
        self.last = 0.0
        #: the route as the *unfiltered* stream last left it
        self.advertised: Optional[Tuple[int, ...]] = None
        #: the route as the *filtered* stream's consumer last saw it
        self.downstream: Optional[Tuple[int, ...]] = None
        self.suppressed = False
        #: bumps on every release-time change; stale heap entries skip
        self.generation = 0


class RfdFilter:
    """Per-(session, prefix) flap-damping over a merged event stream.

    Drive it with :meth:`feed` per event plus :meth:`flush` up to a
    watermark (what :class:`ExposureConsumer` does per window), or wrap a
    whole iterator with :meth:`transform`.  Output events are
    nondecreasing in time as long as the input is.
    """

    def __init__(self, config: RfdConfig = VENDORS["cisco"]) -> None:
        self.config = config
        self._states: Dict[_Key, _KeyState] = {}
        # (release time, seq, key) with lazy invalidation via generation
        self._releases: List[Tuple[float, int, int, _Key]] = []
        self._seq = 0
        #: total updates absorbed while suppressed
        self.suppressed_records = 0
        #: suppression episodes entered
        self.suppressions = 0

    # -- the state machine ---------------------------------------------------

    def feed(self, event: StreamEvent) -> Iterator[StreamEvent]:
        """Process one event; yields due releases, then the event's output."""
        cfg = self.config
        time = event.time
        yield from self.flush(time)

        key = (event.session, event.record.prefix)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _KeyState()
        record = event.record

        state.penalty = cfg.decay(state.penalty, time - state.last)
        state.last = time
        if record.is_withdrawal:
            if state.advertised is not None:
                state.penalty += cfg.withdrawal_penalty
        elif state.advertised is None:
            state.penalty += cfg.readvertisement_penalty
        elif record.as_path != state.advertised:
            state.penalty += cfg.attribute_penalty
        state.penalty = min(state.penalty, cfg.ceiling)
        state.advertised = record.as_path

        if state.suppressed:
            self.suppressed_records += 1
            obs.add("trace.stream.suppressed")
            self._schedule_release(key, state, time)
            return
        if state.penalty > cfg.suppress_threshold:
            state.suppressed = True
            self.suppressions += 1
            self.suppressed_records += 1
            obs.add("trace.stream.suppressed")
            obs.add("trace.stream.suppressions")
            self._schedule_release(key, state, time)
            if state.downstream is not None:
                state.downstream = None
                yield StreamEvent(event.session, UpdateRecord(time, record.prefix))
            return
        state.downstream = record.as_path
        yield event

    def flush(self, until: float) -> Iterator[StreamEvent]:
        """Yield every release due at or before ``until`` (time order)."""
        cfg = self.config
        releases = self._releases
        while releases and releases[0][0] <= until:
            release_time, _seq, generation, key = heapq.heappop(releases)
            state = self._states.get(key)
            if state is None or not state.suppressed or generation != state.generation:
                continue  # superseded by later flaps
            state.penalty = cfg.decay(state.penalty, release_time - state.last)
            state.last = release_time
            state.suppressed = False
            session, prefix = key
            if state.advertised is not None and state.advertised != state.downstream:
                state.downstream = state.advertised
                yield StreamEvent(
                    session, UpdateRecord(release_time, prefix, state.advertised)
                )

    def transform(
        self, events: Iterable[StreamEvent], *, end: Optional[float] = None
    ) -> Iterator[StreamEvent]:
        """Filter a whole stream, flushing tail releases up to ``end``."""
        for event in events:
            yield from self.feed(event)
        yield from self.flush(end if end is not None else math.inf)

    def _schedule_release(self, key: _Key, state: _KeyState, time: float) -> None:
        state.generation += 1
        release = time + self.config.reuse_delay(state.penalty)
        heapq.heappush(self._releases, (release, self._seq, state.generation, key))
        self._seq += 1

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable damping state (release heap reconstructed)."""
        keys = []
        for (session, prefix), state in sorted(
            self._states.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            keys.append(
                {
                    "session": [session[0], session[1]],
                    "prefix": str(prefix),
                    "penalty": state.penalty,
                    "last": state.last,
                    "advertised": list(state.advertised)
                    if state.advertised is not None
                    else None,
                    "downstream": list(state.downstream)
                    if state.downstream is not None
                    else None,
                    "suppressed": state.suppressed,
                }
            )
        return {
            "vendor": self.config.vendor,
            "suppressed_records": self.suppressed_records,
            "suppressions": self.suppressions,
            "keys": keys,
        }

    def load_state(self, state: dict) -> None:
        if state["vendor"] != self.config.vendor:
            raise ValueError(
                f"checkpointed RFD state is for vendor {state['vendor']!r}, "
                f"filter is configured for {self.config.vendor!r}"
            )
        self._states = {}
        self._releases = []
        self._seq = 0
        self.suppressed_records = int(state["suppressed_records"])
        self.suppressions = int(state["suppressions"])
        for entry in state["keys"]:
            key = (
                (entry["session"][0], int(entry["session"][1])),
                Prefix.parse(entry["prefix"]),
            )
            key_state = _KeyState()
            key_state.penalty = float(entry["penalty"])
            key_state.last = float(entry["last"])
            key_state.advertised = (
                tuple(entry["advertised"]) if entry["advertised"] is not None else None
            )
            key_state.downstream = (
                tuple(entry["downstream"]) if entry["downstream"] is not None else None
            )
            key_state.suppressed = bool(entry["suppressed"])
            self._states[key] = key_state
            if key_state.suppressed:
                self._schedule_release(key, key_state, key_state.last)


class ExposureConsumer:
    """Windowed exposed-AS growth, optionally behind an RFD filter.

    One :class:`~repro.core.temporal.DwellTracker` per (session, prefix)
    accumulates on-path dwell (§4's 5-minute rule); the qualified-AS
    union across all tracked keys is sampled at every window boundary,
    yielding the x(t) growth curve the RFD experiment compares across
    vendors.  Fully checkpointable: ``state``/``restore`` round-trip the
    trackers, the damping state, and the samples, so a resumed year-scale
    replay produces the identical curve.

    A window costs its records plus the *active* trackers: those observed
    in it and those whose path still holds an unqualified AS
    (:meth:`~repro.core.temporal.DwellTracker.pending`).  A tracker whose
    path ASes have all qualified is no longer advanced until its next
    observation; since ``qualified`` only grows, advancing it could change
    only its own frozen ``dwell``/``since``, never ``qualified`` or the
    samples.  Every unqualified AS's dwell is still summed from the same
    per-window spans in the same order, so the samples are exactly those
    of advancing every tracker every window.
    """

    def __init__(
        self,
        prefixes: Iterable[Prefix],
        *,
        dwell_threshold: float = DEFAULT_DWELL_THRESHOLD,
        rfd: Optional[RfdFilter] = None,
    ) -> None:
        self.prefixes: FrozenSet[Prefix] = frozenset(prefixes)
        self.dwell_threshold = dwell_threshold
        self.rfd = rfd
        self.qualified: set = set()
        self._trackers: Dict[_Key, DwellTracker] = {}
        #: trackers advanced at the next window end: those observed since
        #: the last one, plus those still pending after it
        self._active: Dict[_Key, DwellTracker] = {}
        #: (window end, cumulative qualified-AS count) per window
        self.samples: List[Tuple[float, int]] = []
        self.records = 0

    def _tracker(self, key: _Key) -> DwellTracker:
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._trackers[key] = DwellTracker(
                self.dwell_threshold, qualified=self.qualified
            )
        return tracker

    def _observe(self, event: StreamEvent) -> None:
        self.records += 1
        key = (event.session, event.record.prefix)
        tracker = self._tracker(key)
        tracker.observe(event.time, event.record.as_path)
        self._active[key] = tracker

    def consume(self, window) -> None:
        # Per-key damping is independent across keys, so filtering to the
        # measured prefixes *before* the RFD machine changes nothing for
        # the keys we track — and skips the background-prefix churn.
        if self.rfd is not None:
            for event in window.events:
                if event.prefix not in self.prefixes:
                    continue
                for out in self.rfd.feed(event):
                    self._observe(out)
            for out in self.rfd.flush(window.end):
                self._observe(out)
        else:
            for event in window.events:
                if event.prefix in self.prefixes:
                    self._observe(event)
        active = self._active
        for tracker in active.values():
            tracker.advance(window.end)
        # Dropped only after every advance: whether a tracker is pending
        # then depends on the window's final ``qualified``, not on the
        # order the trackers were advanced in.
        self._active = {key: t for key, t in active.items() if t.pending()}
        self.samples.append((window.end, len(self.qualified)))

    # -- checkpointing -------------------------------------------------------

    def state(self) -> dict:
        trackers = []
        for (session, prefix), tracker in sorted(
            self._trackers.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            entry = tracker.state()
            entry["session"] = [session[0], session[1]]
            entry["prefix"] = str(prefix)
            trackers.append(entry)
        return {
            "samples": [[end, count] for end, count in self.samples],
            "records": self.records,
            "qualified": sorted(self.qualified),
            "trackers": trackers,
            "rfd": self.rfd.state_dict() if self.rfd is not None else None,
        }

    def restore(self, state: dict) -> None:
        self.samples = [(float(end), int(count)) for end, count in state["samples"]]
        self.records = int(state["records"])
        self.qualified.clear()
        self.qualified.update(int(asn) for asn in state["qualified"])
        self._trackers = {}
        for entry in state["trackers"]:
            key = (
                (entry["session"][0], int(entry["session"][1])),
                Prefix.parse(entry["prefix"]),
            )
            tracker = DwellTracker(self.dwell_threshold, qualified=self.qualified)
            tracker.restore(entry)
            self._trackers[key] = tracker
        self._active = {key: t for key, t in self._trackers.items() if t.pending()}
        if state["rfd"] is not None:
            if self.rfd is None:
                raise ValueError("checkpoint carries RFD state but consumer has no filter")
            self.rfd.load_state(state["rfd"])
        elif self.rfd is not None:
            raise ValueError("consumer has an RFD filter but checkpoint carries none")
