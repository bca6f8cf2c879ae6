"""Base-word length statistics: exact walk, closed form, brute force, Monte Carlo."""

import itertools
import json
from fractions import Fraction
from math import comb

import pytest

from goldenl import (
    CapExceededError,
    brute_force_profile,
    count_empty_reductions,
    empty_reduction_probability,
    exact_profile,
    monte_carlo_empty_rate,
)
from goldenl import cli
from goldenl.stats import _exact_profiles


def test_empty_reduction_counts():
    assert count_empty_reductions(0) == 1
    assert count_empty_reductions(2) == 4
    assert count_empty_reductions(4) == 28
    assert count_empty_reductions(6) == 232
    assert count_empty_reductions(1) == 0
    assert count_empty_reductions(5) == 0


def test_empty_reduction_probabilities():
    assert empty_reduction_probability(0) == Fraction(1)
    assert empty_reduction_probability(2) == Fraction(1, 4)
    assert empty_reduction_probability(4) == Fraction(7, 64)
    assert empty_reduction_probability(6) == Fraction(29, 512)


def test_profile_totals_and_parity(capsys):
    # The one recurrence pass behind exact_profile and the CLI table.
    for m, profile in enumerate(itertools.islice(_exact_profiles(), 41)):
        assert profile.word_length == m
        assert list(profile.counts.items()) == list(exact_profile(m).counts.items())
        assert profile.total == 4**m
        for length in profile.counts:
            assert (length - m) % 2 == 0
            assert 0 <= length <= m
    assert cli.main(["stats", "--max-n", "40", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(row["m"], int(row["count"])) for row in rows] == [
        (m, count_empty_reductions(m)) for m in range(0, 81, 2)
    ]


def test_empty_counts_match_closed_form():
    # McKay (1981): closed walks of length 2n on the d-regular tree, here d = 4, number
    # sum_{j=1}^{n} j/(2n-j) * C(2n-j, n) * d^j * (d-1)^(n-j), and 1 for n = 0.
    def closed_form(n):
        total = int(n == 0)
        for j in range(1, n + 1):
            term, remainder = divmod(j * comb(2 * n - j, n) * 4**j * 3 ** (n - j), 2 * n - j)
            assert remainder == 0, (n, j)
            total += term
        return total

    rows = itertools.islice(_exact_profiles(), 0, 401, 2)
    for n, profile in enumerate(rows):
        assert profile.counts.get(0, 0) == closed_form(n), n
    assert n == 200
    assert count_empty_reductions(400) == closed_form(200)


def test_exact_matches_brute_force():
    for m in range(0, 8):
        assert exact_profile(m).counts == brute_force_profile(m).counts


def test_brute_force_limit():
    with pytest.raises(CapExceededError):
        brute_force_profile(11)
    with pytest.raises(CapExceededError):
        brute_force_profile(3, limit=2)


def test_rejects_negative_length():
    with pytest.raises(ValueError):
        exact_profile(-1)
    with pytest.raises(ValueError):
        brute_force_profile(-1)
    with pytest.raises(ValueError):
        monte_carlo_empty_rate(-1, 100)


def test_monte_carlo_deterministic():
    a = monte_carlo_empty_rate(4, 5000, seed=7)
    b = monte_carlo_empty_rate(4, 5000, seed=7)
    assert a.hits == b.hits
    assert a.estimate == b.estimate


def test_monte_carlo_near_exact():
    estimate = monte_carlo_empty_rate(4, 20000, seed=3)
    exact = float(empty_reduction_probability(4))
    assert abs(estimate.estimate - exact) < 4 * max(estimate.stderr, 1e-9)


def test_monte_carlo_trivial_length():
    estimate = monte_carlo_empty_rate(0, 10, seed=0)
    assert estimate.estimate == 1.0
    assert estimate.stderr == 0.0


def test_monte_carlo_rejects_bad_samples():
    with pytest.raises(ValueError):
        monte_carlo_empty_rate(4, 0)
    with pytest.raises(ValueError):
        monte_carlo_empty_rate(4, -5)



def test_rejects_arguments_that_are_not_counts():
    # A bool or a float is not a count, and a negative limit is bad input, not a cap exceeded.
    for call, message in (
        (lambda: exact_profile(True), "word length must be an int, got True"),
        (lambda: monte_carlo_empty_rate(2, True, seed=True), "sample count must be an int, got True"),
        (lambda: monte_carlo_empty_rate(2, 3, seed=True), "seed must be an int, got True"),
        (lambda: monte_carlo_empty_rate(2.0, 3), "word length must be an int, got 2.0"),
        (lambda: brute_force_profile(2, limit=-1), "limit must be nonnegative, got -1"),
    ):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message
