import pytest

from stats import MIN_TAIL_SAMPLES, percentile


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 99) == (None, 1)
    assert percentile(values, 90) == (90.0, MIN_TAIL_SAMPLES)
    assert percentile(values, 50) == (50.0, 50)


def test_p99_is_reported_with_its_sample_count_at_1000_samples():
    values = list(range(1000, 0, -1))  # order does not matter
    assert percentile(values, 99) == (990.0, 10)


def test_percentile_rejects_degenerate_inputs():
    assert percentile([], 50) == (None, 0)
    with pytest.raises(ValueError):
        percentile([1.0], 100)
