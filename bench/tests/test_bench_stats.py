"""The percentile rule and the sample-count rule."""

import statistics

import numpy as np
import pytest

from fedbench.stats import (highest_supported_percentile, percentile,
                            samples_beyond, samples_needed, timing_summary)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 101])
@pytest.mark.parametrize("p", [0, 25, 50, 90, 100])
def test_percentile_matches_numpy_linear_rule(n, p):
    xs = list(np.random.default_rng(n).normal(size=n))
    assert percentile(xs, p) == pytest.approx(np.percentile(xs, p), abs=1e-12)


def test_quartiles_match_statistics_inclusive():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    assert [percentile(xs, p) for p in (25, 50, 75)] == [q1, q2, q3]


def test_percentile_interpolates_between_ranks():
    assert percentile([10.0, 20.0], 50) == 15.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([3.0, 1.0, 2.0], 90) == pytest.approx(2.8)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(35, 90) == 3
    assert samples_beyond(20, 50) == 10


def test_highest_supported_percentile_needs_ten_beyond():
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50
    assert highest_supported_percentile(40) == 75
    assert highest_supported_percentile(99) == 75
    assert highest_supported_percentile(100) == 90
    assert highest_supported_percentile(1000) == 99


@pytest.mark.parametrize("p, n", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_samples_needed_is_the_fewest_with_ten_beyond(p, n):
    assert samples_needed(p) == n
    assert samples_beyond(n, p) >= 10 > samples_beyond(n - 1, p)


def test_timing_summary_scales_and_counts():
    summary = timing_summary([0.001 * k for k in range(1, 101)], 90, scale=1e3)
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)
    assert summary["n"] == 100
    assert summary["beyond_p90"] == 10
    assert summary["highest_supported_percentile"] == 90
    rounds = timing_summary([float(k) for k in range(40)], 75)
    assert rounds["p75"] == pytest.approx(29.25)
    assert rounds["beyond_p75"] == 10
    assert rounds["highest_supported_percentile"] == 75
