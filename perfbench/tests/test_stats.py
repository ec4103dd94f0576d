import pytest

from qsbench import stats


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10010, 99.9),
        (5000, 99.0),  # p99.9 would leave only 5 samples beyond it
        (1000, 99.0),
        (999, 98.0),
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    if q is not None:
        assert stats.beyond(n, q) >= stats.MIN_BEYOND
        higher = [r for r in stats.TAIL_LADDER if r > q]
        assert all(stats.beyond(n, r) < stats.MIN_BEYOND for r in higher)


def test_summarize_reports_sample_count_and_tail():
    samples = [float(i) for i in range(1, 1011)]
    summary = stats.summarize(samples)
    assert summary["n"] == 1010
    assert summary["p50"] == pytest.approx(505.5)
    assert summary["tail_q"] == 99.0
    assert summary["tail"] == stats.percentile(samples, 99.0)
    assert stats.summarize([1.0, 2.0]) == {"n": 2, "p50": 1.5, "tail_q": None, "tail": None}
