"""Speed probes: scaled time follows the program, not the machine's speed."""

import sys
import time

import pytest

from qsbench import speed


class _Machine:
    """A fake clock whose reference loop takes ``loop_s`` of it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.loop_s = speed.REFERENCE_S

    def clock(self) -> float:
        return self.now

    def loop(self) -> None:
        self.now += self.loop_s

    def run(self, seconds: float) -> None:
        self.now += seconds


def _timeline(machine: _Machine) -> speed.Timeline:
    return speed.Timeline(clock=machine.clock, loop=machine.loop)


def test_reference_speed_leaves_wall_time_unchanged():
    m = _Machine()
    tl = _timeline(m)
    tl.probe()
    start = m.now
    m.run(1.5)
    tl.probe()
    assert tl.scaled(start, start + 1.5) == pytest.approx(1.5)


def test_same_work_on_a_slower_machine_scales_to_the_same_time():
    results = []
    for slowdown in (1.0, 1.7):
        m = _Machine()
        m.loop_s = speed.REFERENCE_S * slowdown
        tl = _timeline(m)
        start = m.now
        for _ in range(4):
            tl.probe()
            m.run(0.25 * slowdown)
        tl.probe()
        results.append(tl.scaled(start, m.now))
    # probes are left out: four stretches of 0.25 s at reference speed
    assert results[0] == pytest.approx(1.0)
    assert results[1] == pytest.approx(1.0)


def test_slower_program_shows_in_full():
    times = []
    for work in (0.2, 0.3):
        m = _Machine()
        m.loop_s = speed.REFERENCE_S * 1.3
        tl = _timeline(m)
        tl.probe()
        start = m.now
        m.run(work)
        tl.probe()
        times.append(tl.scaled(start, start + work))
    assert times[1] / times[0] == pytest.approx(1.5)


def test_each_stretch_takes_the_mean_of_its_two_probes():
    m = _Machine()
    tl = _timeline(m)
    m.loop_s = speed.REFERENCE_S / 2  # twice the reference speed
    tl.probe()
    a = m.now
    m.run(1.0)
    m.loop_s = speed.REFERENCE_S  # reference speed
    tl.probe()
    b = m.now
    m.run(1.0)
    # first stretch: mean probe 0.75 x reference; the stretch after the
    # last probe takes that probe's speed
    assert tl.scaled(a, a + 1.0) == pytest.approx(1.0 / 0.75)
    assert tl.scaled(b, b + 1.0) == pytest.approx(1.0)
    # a region across a probe leaves the probe's own time out
    assert tl.scaled(a, b + 1.0) == pytest.approx(1.0 / 0.75 + 1.0)
    assert tl.scaled(b, b) == 0.0


def test_scaled_needs_a_probe():
    with pytest.raises(ValueError):
        speed.Timeline().scaled(0.0, 1.0)


def test_sampling_probes_while_the_body_runs():
    tl = speed.Timeline()
    before = sys.getswitchinterval()
    with tl.sampling(interval=0.05):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    assert sys.getswitchinterval() == before
    # one at start, one at stop, and some while the body held the CPU
    assert len(tl.probes) >= 4
    starts = [p[0] for p in tl.probes]
    assert starts == sorted(starts)
    assert all(p[2] > 0 for p in tl.probes)
    assert tl.cpu_s > 0
