from bench import stats


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 57))  # 56 samples, as one sign_burst run of old
    percentile, value = stats.tail(values)
    assert value == 46
    assert sum(v > value for v in values) == stats.TAIL_SAMPLES_BEYOND
    assert round(percentile, 1) == 82.1


def test_tail_needs_a_sample_that_puts_it_above_the_median():
    assert stats.tail(list(range(20))) is None
    percentile, value = stats.tail(list(range(21)))
    assert value == 10 and percentile > 50


def test_tail_ignores_input_order():
    assert stats.tail(list(range(30, 0, -1))) == stats.tail(list(range(1, 31)))


def test_quartiles_and_spread():
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0
    assert stats.relative_spread([2.0, 2.0, 2.0]) == 0.0
