import itertools
import math

import pytest

import benchstats


@pytest.mark.parametrize("n, pct", [
    (1000, 90.0),   # the ladder tops out at p90
    (100, 90.0),
    (99, 80.0),     # p90 would leave only 9 beyond
    (50, 80.0),
    (40, 75.0),
    (20, 50.0),     # the smallest sample that has any tail rung
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(1, n + 1)]
    value, got_pct, got_n = benchstats.tail(values[::-1])
    assert (got_pct, got_n) == (pct, n)
    assert n - value >= benchstats.TAIL_BEYOND
    assert value == math.ceil(pct / 100.0 * n)  # nearest rank


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_with_too_few_samples_is_the_maximum(n):
    values = [3.0] * (n - 1) + [7.0]
    assert benchstats.tail(values) == (7.0, 100.0, n)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        benchstats.tail([])


def test_self_time_subtracts_covered_child_intervals():
    # children overlap each other and one runs past the parent's end
    children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]
    assert benchstats.self_time(0.0, 10.0, children) == pytest.approx(5.0)


def test_self_time_ignores_children_outside_the_span():
    assert benchstats.self_time(0.0, 2.0, [(5.0, 6.0), (-3.0, -1.0)]) == 2.0
    assert benchstats.self_time(0.0, 2.0, [(-1.0, 3.0)]) == 0.0


def test_abba_discards_one_warmup_per_arm_then_alternates():
    seq = list(itertools.islice(benchstats.abba_arms(), 10))
    assert seq[:2] == [("A", True), ("B", True)]
    assert [arm for arm, warm in seq[2:]] == list("ABBAABBA")
    assert not any(warm for _, warm in seq[2:])


def test_abba_balanced_points_give_equal_arm_counts():
    timed = [arm for arm, warm in itertools.islice(benchstats.abba_arms(), 40)
             if not warm]
    for k in range(1, len(timed) + 1):
        if benchstats.balanced(k):
            assert timed[:k].count("A") == timed[:k].count("B")


def test_paired_ratio_pairs_ops_that_ran_next_to_each_other():
    # host load changes every pair; each pair still reads 1.5
    dbg, bare = [], []
    loads = [9, 9] + [1, 1, 4, 4, 2, 2, 7, 7, 3, 3]
    for (arm, warm), load in zip(benchstats.abba_arms(), loads):
        if not warm:
            (dbg if arm == "A" else bare).append(
                (1.5 if arm == "A" else 1.0) * load)
    assert len(dbg) == len(bare) == 5
    assert benchstats.paired_ratio(dbg, bare) == 1.5


def test_paired_ratio_drops_an_unpaired_last_sample():
    assert benchstats.paired_ratio([2.0, 4.0, 9.0], [1.0, 2.0]) == 2.0
