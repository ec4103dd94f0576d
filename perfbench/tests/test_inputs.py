import itertools

import pytest

from qsbench import inputs, world


@pytest.fixture(scope="module")
def small_world():
    from repro.asgraph.engine import RoutingEngine
    from repro.scenario import Scenario, ScenarioConfig

    return Scenario(ScenarioConfig.small(seed=0), engine=RoutingEngine())


def test_unique_stream_never_repeats_and_is_seeded(small_world):
    from repro.serve.api import query_key

    dist = inputs.tor_distributions(small_world)
    first = list(itertools.islice(inputs.unique_stream(dist, 3, salt="t"), 400))
    again = list(itertools.islice(inputs.unique_stream(dist, 3, salt="t"), 400))
    other = list(itertools.islice(inputs.unique_stream(dist, 4, salt="t"), 400))
    assert first == again
    assert first != other
    assert len({query_key(q) for q in first}) == len(first)
    props = inputs.query_properties(first, range(len(first)))
    assert props["repeated_key_share"] == 0.0
    assert set(props["mix"]) == {"PathQuery", "HijackQuery", "ExposureQuery"}


def test_hot_set_fits_the_pool_and_repeats(small_world):
    dist = inputs.tor_distributions(small_world)
    hot = inputs.hot_set(dist, 48)
    assert len(hot) == 48 * 5
    issued = [i % len(hot) for i in range(3 * len(hot))]
    props = inputs.query_properties(hot, issued)
    assert props["distinct_pool_keys"] <= props["pool_cap"] == 256
    assert props["repeated_key_share"] > 0.6
    assert props["mix"]["PathQuery"] == pytest.approx(0.6)


def test_exclusion_follows_down_up_order():
    epochs = [
        [{"op": "down", "link": [1, 2]}, {"op": "down", "link": [3, 4]}],
        [{"op": "up", "link": [1, 2]}],
        [{"op": "down", "link": [2, 1]}, {"op": "up", "link": [4, 3]}],
    ]
    assert inputs.exclusion_after(epochs, 0) == frozenset()
    assert inputs.exclusion_after(epochs, 1) == {frozenset((1, 2)), frozenset((3, 4))}
    assert inputs.exclusion_after(epochs, 2) == {frozenset((3, 4))}
    assert inputs.exclusion_after(epochs, 3) == {frozenset((1, 2))}
    props = inputs.churn_properties(epochs, 3)
    assert props["events_per_epoch"] == pytest.approx(5 / 3, abs=1e-3)


def test_churn_epochs_are_the_follow_windows_of_the_outage_schedule(small_world):
    from repro.bgpsim.stream import DAY
    from repro.bgpsim.trace import TraceEngine
    from repro.serve.follow import link_events

    epochs = inputs.churn_epochs(small_world)
    # one epoch per trace day, quiet days included, as `serve --follow` applies them
    days = small_world.config.trace.duration_days
    assert len(epochs) == int(days / inputs.EPOCH_WINDOW_DAYS)
    prefix = sorted(small_world.tor_prefixes, key=str)[0]
    engine = TraceEngine(
        small_world.graph,
        {prefix: small_world.prefix_origins[prefix]},
        [prefix],
        small_world.config.trace,
        engine=small_world.engine,
    )
    deltas = link_events(engine.open_stream().events)
    assert sum(len(e) for e in epochs) == len(deltas)
    for k, epoch in enumerate(epochs):
        in_window = [d for d in deltas if k * DAY <= d.time < (k + 1) * DAY]
        assert epoch == [{"op": d.op, "link": [d.link[0], d.link[1]]} for d in in_window]
    for ev in (ev for e in epochs for ev in e):
        a, b = ev["link"]
        assert b in small_world.graph.neighbours(a)
    # every outage recovers within the month, so cycling the month is sound
    assert inputs.exclusion_after(epochs, len(epochs)) == frozenset()
    assert epochs == inputs.churn_epochs(small_world)
