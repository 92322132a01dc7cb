"""The floor estimator on synthetic rounds."""

import pytest

import estimator
import repeat


def test_contaminated_majority_keeps_the_clean_floor():
    clean = [100, 200, 300]
    # Four of five rounds carry interference somewhere; no round is
    # clean everywhere, yet every position was clean twice.
    rounds = [
        [100, 900, 300],
        [700, 200, 950],
        [100, 200, 800],
        [450, 450, 300],
        [999, 999, 999],
    ]
    assert estimator.floors(rounds) == clean
    assert estimator.per_second(estimator.floors(rounds)) == pytest.approx(
        3 * 1e9 / 600
    )
    # The median round took 1300 ns against a 600 ns floor.
    assert estimator.noise_share(rounds) == pytest.approx(
        (1300 - 600) / 600
    )


def test_one_sample_that_is_too_fast_is_spared():
    # A burst of host speed the calibration missed made one sample of
    # each position too small; the floor is the next one up.
    rounds = [[100, 200], [101, 203], [80, 202], [102, 150], [500, 500]]
    assert estimator.floors(rounds) == [100, 200]
    # With fewer than three rounds there is nothing to spare.
    assert estimator.floors(rounds[:2]) == [100, 200]


def test_calibration_rescales_each_round_by_the_speed_around_it():
    # The host ran 20% slower during the last two rounds; the
    # reference kernel saw it, so the calibrated times agree.
    rounds = [[100, 200], [100, 200], [120, 240], [120, 240]]
    reference = [10, 10, 12, 12]
    calibrated = estimator.calibrated(rounds, reference, nominal=10)
    assert calibrated[0] == [100, 200]
    assert calibrated[3] == [100, 200]
    # The window floor is the *fastest* speed seen around a round, so
    # the round next to the change comes out too slow, never too fast.
    assert calibrated[2] == [120, 240]
    assert estimator.floors(calibrated) == [100, 200]
    assert estimator.window_min([5, 3, 4, 9, 9]) == [3, 3, 3, 4, 9]
    with pytest.raises(ValueError):
        estimator.calibrated(rounds, reference[:3], nominal=10)


def test_ties_and_identical_rounds():
    rounds = [[5, 5, 7], [5, 5, 7], [5, 5, 7]]
    assert estimator.floors(rounds) == [5, 5, 7]
    assert estimator.floors([[5, 9], [5, 8], [6, 8]]) == [5, 8]
    assert estimator.noise_share(rounds) == 0.0
    assert estimator.nearest_rank([5, 5, 7], 0.5) == 5


def test_single_round_is_its_own_floor():
    assert estimator.floors([[3, 1, 2]]) == [3, 1, 2]
    assert estimator.noise_share([[3, 1, 2]]) == 0.0
    assert estimator.nearest_rank([42], 0.9) == 42


def test_ragged_or_empty_rounds_are_refused():
    with pytest.raises(ValueError):
        estimator.floors([])
    with pytest.raises(ValueError):
        estimator.floors([[1, 2], [1]])
    with pytest.raises(ValueError):
        estimator.nearest_rank([], 0.5)


def test_p90_of_a_hundred_floors_has_ten_beyond_it():
    values = list(range(100))
    p90 = estimator.nearest_rank(values, 0.9)
    assert sum(value > p90 for value in values) == 10
    assert estimator.nearest_rank(values, 0.5) in (49, 50)


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10.0] * 5 + [11.0] * 5
    assert estimator.spread(values) == pytest.approx(1.0 / 10.5)
    assert estimator.spread([3.0] * 10) == 0.0


METRIC = {"name": "facade_txn_per_s", "bound": 0.05}


def test_judge_accepts_two_steady_sets():
    first = [100.0, 100.5, 99.8, 100.2, 100.1, 99.9, 100.3, 100.0, 99.7, 100.4]
    second = [value + 0.2 for value in first]
    assert repeat.judge(METRIC, first, second) == []


def test_judge_rejects_shifted_medians_and_wide_sets():
    first = [100.0 + 0.1 * k for k in range(10)]
    shifted = [value * 1.07 for value in first]
    assert any(
        "medians" in reason
        for reason in repeat.judge(METRIC, first, shifted)
    )
    wide = [90.0, 110.0] * 5
    reasons = repeat.judge(METRIC, wide, wide)
    assert any("spread" in reason for reason in reasons)
    assert any("range" in reason for reason in reasons)


def test_judge_wants_counts_to_repeat_exactly():
    metric = {"name": "sim_attempts_per_txn", "bound": 0.15}
    first = [2.5 + 0.01 * k for k in range(10)]
    assert repeat.judge(metric, first, list(first)) == []
    second = list(first)
    second[3] += 0.001
    assert repeat.judge(metric, first, second) == [
        "a count differs between runs that share a seed"
    ]
