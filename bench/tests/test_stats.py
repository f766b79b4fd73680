import statistics

import pytest

from bench.stats import (percentile, quartiles, self_time, tail_percentile,
                         union_length)


@pytest.mark.parametrize("n, expected", [
    (19, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (240, 95), (999, 95), (1000, 99),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 75) == 4
    assert percentile([5], 90) == 5
    assert percentile([1, 9], 0) == 1 and percentile([1, 9], 100) == 9


def test_quartiles_are_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_union_counts_overlaps_once():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert union_length([(0, 1), (1, 2)]) == 2


def test_self_time_subtracts_the_union_of_children():
    children = [(1, 3), (2, 5), (8, 12), (20, 30)]
    assert self_time(0, 10, children) == 10 - 4 - 2
    assert self_time(0, 10, []) == 10
