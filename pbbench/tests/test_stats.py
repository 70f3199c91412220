"""The tail rule: the highest ladder percentile with >= 10 samples beyond it."""

import pytest

import stats


def test_twenty_samples_give_the_median_with_ten_beyond():
    tail = stats.tail(range(1, 21))
    assert (tail.percentile, tail.value, tail.beyond, tail.samples) == (50.0, 10.0, 10, 20)


def test_fewer_than_twenty_samples_have_no_tail():
    with pytest.raises(ValueError):
        stats.tail(range(19))


def test_hundred_samples_stop_at_p90():
    # p95 of 1..100 would leave only 5 samples beyond it.
    tail = stats.tail(range(1, 101))
    assert (tail.percentile, tail.value, tail.beyond) == (90.0, 90.0, 10)


def test_four_hundred_samples_reach_p97_5():
    tail = stats.tail(range(1, 401))
    assert (tail.percentile, tail.value, tail.beyond) == (97.5, 390.0, 10)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert stats.tail(values) == stats.tail(sorted(values))


def test_median():
    assert stats.median([3, 1, 2]) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
