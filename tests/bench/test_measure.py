"""Measurement methodology tests."""

import pytest

from repro.bench.measure import paper_statistic, reduction_percent
from repro.errors import GraftError


def test_paper_statistic_is_mean_of_five_medians_of_nine():
    # Shuffled 1..9: the middle five are 3, 4, 5, 6, 7 -> mean 5.
    assert paper_statistic([9, 1, 8, 2, 7, 3, 6, 4, 5]) == pytest.approx(5.0)
    assert paper_statistic([1, 2, 3, 4, 5, 6, 7, 8, 900]) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "times, want",
    [
        ([100.0], 100.0),
        ([2.0, 100.0], 51.0),
        ([1.0, 2.0, 100.0], 103.0 / 3),
        ([100.0, 2.0, 1.0], 103.0 / 3),
    ],
)
def test_fewer_times_than_kept_are_all_averaged(times, want):
    value = paper_statistic(times)
    assert value == pytest.approx(want)
    if len(times) > 1:
        assert value != max(times)  # never the slowest run alone


def test_paper_statistic_rejects_no_times():
    with pytest.raises(GraftError, match="at least one"):
        paper_statistic([])


def test_reduction_percent():
    assert reduction_percent(2.0, 1.0) == pytest.approx(50.0)
    assert reduction_percent(2.0, 2.0) == 0.0
    assert reduction_percent(0.0, 1.0) == 0.0


def test_reduction_can_be_negative():
    assert reduction_percent(1.0, 2.0) == pytest.approx(-100.0)
