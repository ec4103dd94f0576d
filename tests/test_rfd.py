"""Tests for the route-flap-damping stream transformer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import StreamEvent, UpdateRecord
from repro.bgpsim.rfd import ExposureConsumer, RfdConfig, RfdFilter, VENDORS
from repro.bgpsim.stream import Window, iter_windows

P = Prefix.parse("10.0.0.0/24")
Q = Prefix.parse("10.1.0.0/24")
SESSION = ("rrc00", 42)


def ev(t, path, prefix=P, session=SESSION):
    return StreamEvent(
        session, UpdateRecord(t, prefix, tuple(path) if path is not None else None)
    )


def flap_burst(n, *, start=0.0, gap=10.0, prefix=P):
    """n announce/withdraw pairs in quick succession."""
    events = []
    t = start
    for i in range(n):
        events.append(ev(t, (42, 7, 1), prefix))
        t += gap
        events.append(ev(t, None, prefix))
        t += gap
    return events


class TestRfdConfig:
    def test_vendor_defaults(self):
        cisco, juniper = VENDORS["cisco"], VENDORS["juniper"]
        assert cisco.suppress_threshold < juniper.suppress_threshold
        assert cisco.readvertisement_penalty == 0.0
        assert juniper.readvertisement_penalty > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RfdConfig(vendor="x", half_life=0.0)
        with pytest.raises(ValueError):
            RfdConfig(vendor="x", reuse_threshold=3000.0, suppress_threshold=2000.0)

    def test_ceiling_enforces_max_suppress_time(self):
        cfg = VENDORS["cisco"]
        assert cfg.reuse_delay(cfg.ceiling) == pytest.approx(cfg.max_suppress_time)

    def test_reuse_delay_zero_below_threshold(self):
        cfg = VENDORS["cisco"]
        assert cfg.reuse_delay(cfg.reuse_threshold / 2) == 0.0


class TestRfdFilter:
    def test_calm_stream_passes_through(self):
        rfd = RfdFilter(VENDORS["cisco"])
        events = [ev(0.0, (42, 7, 1)), ev(7200.0, (42, 9, 1))]
        out = list(rfd.transform(events))
        assert [(e.time, e.record.as_path) for e in out] == [
            (0.0, (42, 7, 1)),
            (7200.0, (42, 9, 1)),
        ]
        assert rfd.suppressions == 0

    def test_flap_burst_suppressed_with_synthetic_withdrawal(self):
        rfd = RfdFilter(VENDORS["cisco"])
        events = flap_burst(4)
        out = list(rfd.transform(events, end=0.0))
        # The burst crosses the suppress threshold on the third withdrawal;
        # the downstream sees one synthetic withdrawal there and the tail of
        # the burst is absorbed entirely.
        assert out[-1].record.is_withdrawal
        assert len(out) < len(events)
        assert rfd.suppressions == 1
        assert rfd.suppressed_records > 0

    def test_release_reannounces_current_route(self):
        rfd = RfdFilter(VENDORS["cisco"])
        events = flap_burst(3)  # ends withdrawn at t=50
        events.append(ev(60.0, (42, 7, 1)))  # re-announce while suppressed
        out = list(rfd.transform(events, end=4 * 3600.0))
        release = out[-1]
        assert not release.record.is_withdrawal
        assert release.record.as_path == (42, 7, 1)
        assert release.time > 60.0
        # released strictly within the vendor's max suppress time
        assert release.time - 60.0 <= VENDORS["cisco"].max_suppress_time + 1e-6

    def test_release_skipped_if_route_withdrawn(self):
        rfd = RfdFilter(VENDORS["cisco"])
        events = flap_burst(3)  # last event is a withdrawal
        out = list(rfd.transform(events, end=4 * 3600.0))
        # downstream already saw the synthetic withdrawal; nothing to re-announce
        assert out[-1].record.is_withdrawal

    def test_keys_damped_independently(self):
        rfd = RfdFilter(VENDORS["cisco"])
        events = sorted(
            flap_burst(3, prefix=P) + [ev(5.0, (42, 9, 2), Q)],
            key=lambda e: e.time,
        )
        out = list(rfd.transform(events, end=0.0))
        q_events = [e for e in out if e.prefix == Q]
        assert len(q_events) == 1  # the calm prefix is untouched

    def test_vendor_defaults_diverge_on_flap_bursts(self):
        events = flap_burst(2)
        cisco = RfdFilter(VENDORS["cisco"])
        juniper = RfdFilter(VENDORS["juniper"])
        list(cisco.transform(events, end=0.0))
        list(juniper.transform(events, end=0.0))
        # Juniper's re-advertisement penalty (1000 vs 0) outweighs its
        # higher suppress threshold on announce/withdraw churn: two flap
        # pairs trip Juniper but leave Cisco just under 2000.
        assert cisco.suppressions == 0
        assert juniper.suppressions == 1

    def test_output_invariant_to_windowing(self):
        events = flap_burst(4) + [ev(300.0, (42, 8, 1)), ev(9000.0, (42, 8, 1))]
        events.sort(key=lambda e: e.time)

        whole = RfdFilter(VENDORS["cisco"])
        expected = list(whole.transform(events, end=10_000.0))

        windowed = RfdFilter(VENDORS["cisco"])
        out = []
        for window in iter_windows(events, window_seconds=500.0, duration=10_000.0):
            for event in window.events:
                out.extend(windowed.feed(event))
            out.extend(windowed.flush(window.end))
        assert [(e.time, e.session, e.record) for e in out] == [
            (e.time, e.session, e.record) for e in expected
        ]

    def test_state_roundtrip_mid_suppression(self):
        events = flap_burst(3)
        rfd = RfdFilter(VENDORS["cisco"])
        out_prefix = []
        for event in events:
            out_prefix.extend(rfd.feed(event))

        clone = RfdFilter(VENDORS["cisco"])
        clone.load_state(rfd.state_dict())

        tail = list(rfd.flush(4 * 3600.0))
        clone_tail = list(clone.flush(4 * 3600.0))
        assert [(e.time, e.record) for e in tail] == [
            (e.time, e.record) for e in clone_tail
        ]

    def test_state_vendor_mismatch_rejected(self):
        rfd = RfdFilter(VENDORS["cisco"])
        with pytest.raises(ValueError, match="vendor"):
            RfdFilter(VENDORS["juniper"]).load_state(rfd.state_dict())


def window_over(events, end, index=0):
    return Window(index=index, start=0.0, end=end, events=events)


class TestExposureConsumer:
    def test_counts_dwell_qualified_ases(self):
        consumer = ExposureConsumer([P], dwell_threshold=300.0)
        events = [ev(0.0, (42, 7, 1)), ev(100.0, (42, 9, 1))]
        consumer.consume(window_over(events, end=3600.0))
        # 42 and 1 dwell the whole hour; 7 only 100s, 9 from t=100 on
        assert consumer.samples == [(3600.0, 3)]
        assert {42, 1, 9} <= consumer.qualified
        assert 7 not in consumer.qualified

    def test_prefix_filter(self):
        consumer = ExposureConsumer([P], dwell_threshold=300.0)
        consumer.consume(window_over([ev(0.0, (42, 9, 2), Q)], end=3600.0))
        assert consumer.records == 0
        assert consumer.samples == [(3600.0, 0)]

    def test_rfd_reduces_observed_churn(self):
        events = flap_burst(4)
        plain = ExposureConsumer([P], dwell_threshold=300.0)
        plain.consume(window_over(list(events), end=3600.0))
        damped = ExposureConsumer(
            [P], dwell_threshold=300.0, rfd=RfdFilter(VENDORS["cisco"])
        )
        damped.consume(window_over(list(events), end=3600.0))
        assert damped.records < plain.records
        assert damped.rfd.suppressed_records > 0

    def test_state_roundtrip(self):
        events = flap_burst(3) + [ev(200.0, (42, 8, 1))]
        events.sort(key=lambda e: e.time)
        consumer = ExposureConsumer(
            [P], dwell_threshold=300.0, rfd=RfdFilter(VENDORS["cisco"])
        )
        consumer.consume(window_over(events, end=1800.0))

        clone = ExposureConsumer(
            [P], dwell_threshold=300.0, rfd=RfdFilter(VENDORS["cisco"])
        )
        clone.restore(consumer.state())
        assert clone.state() == consumer.state()

        tail = window_over([ev(7200.0, (42, 5, 1))], end=10_800.0, index=1)
        consumer.consume(tail)
        clone.consume(window_over([ev(7200.0, (42, 5, 1))], end=10_800.0, index=1))
        assert clone.state() == consumer.state()

    def test_restore_rfd_presence_mismatch(self):
        consumer = ExposureConsumer([P], rfd=RfdFilter(VENDORS["cisco"]))
        consumer.consume(window_over([], end=10.0))
        with pytest.raises(ValueError):
            ExposureConsumer([P]).restore(consumer.state())
        plain = ExposureConsumer([P])
        plain.consume(window_over([], end=10.0))
        with pytest.raises(ValueError):
            ExposureConsumer([P], rfd=RfdFilter(VENDORS["cisco"])).restore(
                plain.state()
            )


class EagerExposureConsumer(ExposureConsumer):
    """Reference consumer: advances every tracker at every window end."""

    def consume(self, window) -> None:
        events = [e for e in window.events if e.prefix in self.prefixes]
        if self.rfd is not None:
            events = [out for e in events for out in self.rfd.feed(e)]
            events.extend(self.rfd.flush(window.end))
        for event in events:
            self._observe(event)
        for tracker in self._trackers.values():
            tracker.advance(window.end)
        self.samples.append((window.end, len(self.qualified)))


#: 300 / 8: event times and window widths are multiples of this binary
#: fraction, so dwell sums land exactly on the 300 s threshold
TICK = 37.5
UNTRACKED = Prefix.parse("10.2.0.0/24")
SESSIONS = (("rrc00", 1), ("rrc00", 2))


@st.composite
def replay_cases(draw):
    widths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    ends, total = [], 0
    for width in widths:
        total += width
        ends.append(total * TICK)
    paths = st.one_of(
        st.none(),
        st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
        # a prepended path: same AS set, different AS-PATH
        st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
            lambda p: tuple(p) + (p[-1],)
        ),
    )
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, total - 1),
                st.sampled_from(SESSIONS),
                st.sampled_from((P, Q, UNTRACKED)),
                paths,
            ),
            max_size=40,
        )
    )
    raw.sort(key=lambda item: item[0])
    events = [ev(tick * TICK, path, prefix, session) for tick, session, prefix, path in raw]
    windows, start, i = [], 0.0, 0
    for index, end in enumerate(ends):
        chunk = []
        while i < len(events) and events[i].time < end:
            chunk.append(events[i])
            i += 1
        windows.append(Window(index=index, start=start, end=end, events=chunk))
        start = end
    return windows, draw(st.booleans()), draw(st.integers(0, len(windows)))


def _consumer(cls, damped):
    return cls(
        [P, Q], dwell_threshold=300.0,
        rfd=RfdFilter(VENDORS["cisco"]) if damped else None,
    )


def _checkpoint(consumer):
    """The consumer state as a checkpoint file would hold it."""
    return json.loads(json.dumps(consumer.state()))


class TestLazyConsumerMatchesEager:
    """Advancing only pending trackers must give the eager loop's samples,
    qualified set and record count, straight or resumed from either
    consumer's checkpoint."""

    @settings(deadline=None, max_examples=200)
    @given(case=replay_cases())
    def test_lazy_equals_eager(self, case):
        windows, damped, cut = case
        lazy = _consumer(ExposureConsumer, damped)
        eager = _consumer(EagerExposureConsumer, damped)
        lazy_at_cut = eager_at_cut = None
        for index, window in enumerate(windows):
            if index == cut:
                lazy_at_cut, eager_at_cut = _checkpoint(lazy), _checkpoint(eager)
            lazy.consume(window)
            eager.consume(window)
            assert lazy.samples == eager.samples
            assert lazy.qualified == eager.qualified
            assert lazy.records == eager.records
        if cut == len(windows):
            lazy_at_cut, eager_at_cut = _checkpoint(lazy), _checkpoint(eager)

        for state in (lazy_at_cut, eager_at_cut):
            resumed = _consumer(ExposureConsumer, damped)
            resumed.restore(state)
            for window in windows[cut:]:
                resumed.consume(window)
            assert resumed.samples == eager.samples
            assert resumed.qualified == eager.qualified
            assert resumed.records == eager.records
            if state is lazy_at_cut:
                assert resumed.state() == lazy.state()

    def test_fully_qualified_tracker_is_not_advanced(self):
        consumer = ExposureConsumer([P], dwell_threshold=300.0)
        consumer.consume(window_over([ev(0.0, (42, 7, 1))], end=3600.0))
        assert consumer.qualified == {42, 7, 1}
        consumer.consume(Window(index=1, start=3600.0, end=7200.0, events=[]))
        (tracker,) = consumer._trackers.values()
        # frozen at the window its ASes qualified in; the sample still moves
        assert tracker.since == 3600.0
        assert consumer.samples == [(3600.0, 3), (7200.0, 3)]
        # a new path re-activates it and credits the frozen span first
        consumer.consume(
            Window(index=2, start=7200.0, end=10_800.0,
                   events=[ev(7200.0, (42, 8, 1))])
        )
        assert tracker.dwell[7] == 7200.0
        assert 8 in consumer.qualified

    def test_drop_is_decided_after_every_advance(self):
        """A tracker whose last unqualified AS another tracker qualifies
        later in the same window is dropped too, whatever the order."""
        a, b = ("rrc00", 1), ("rrc00", 2)
        events = [ev(0.0, (5,), session=a), ev(50.0, (1,), session=b),
                  ev(100.0, (1,), session=a)]
        consumer = ExposureConsumer([P], dwell_threshold=300.0)
        consumer.consume(window_over(events, end=350.0))
        # a credited AS1 for 250 s only; b qualified it with 300 s
        assert consumer.qualified == {1}
        checkpoint = _checkpoint(consumer)
        quiet = Window(index=1, start=350.0, end=700.0, events=[])
        consumer.consume(quiet)
        assert consumer._trackers[(a, P)].since == 350.0
        resumed = ExposureConsumer([P], dwell_threshold=300.0)
        resumed.restore(checkpoint)
        resumed.consume(quiet)
        assert resumed.state() == consumer.state()
