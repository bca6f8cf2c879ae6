"""Combinatorial classification via permutation words."""

import random
from fractions import Fraction

import pytest

from goldenl import (
    Classification,
    GoldenNumber,
    GoldenVector,
    HORIZONTAL_VERDICTS,
    Permutation5,
    classify,
    classify_all,
    classify_vector,
    reduce_word,
    word_permutation,
    word_to_vector,
)


def test_word_21_permutation():
    perm = word_permutation((2, 1))
    assert perm.images == (5, 3, 4, 1, 2)
    assert perm.cycle_string() == "(1 5 2 3 4)"


def test_word_21_report():
    report = classify_all((2, 1))
    assert report.verdicts == {
        1: Classification.SADDLE_CONNECTION,
        2: Classification.LONG,
        3: Classification.LONG,
        4: Classification.SHORT,
        5: Classification.SHORT,
    }
    assert report.to_json_dict() == {
        "word": "21",
        "tau": [5, 3, 4, 1, 2],
        "verdicts": {
            "1": "saddle",
            "2": "long",
            "3": "long",
            "4": "short",
            "5": "short",
        },
    }


def test_reports_do_not_share_verdict_maps():
    # Each report owns its verdicts: clearing one changes no later report, of
    # the same word or of another word with the same product, and clearing
    # the empty word's changes neither its next report nor the horizontal map.
    expected = dict(classify_all((2, 1)).verdicts)
    for word in ((2, 1), (2, 1), (3, 3, 2, 1), (2, 0, 0, 1)):
        report = classify_all(word)
        assert report.tau == word_permutation((2, 1)), word
        assert report.verdicts == expected, word
        report.verdicts.clear()
    assert classify((2, 1), 1) is Classification.SADDLE_CONNECTION
    horizontal = dict(HORIZONTAL_VERDICTS)
    classify_all(()).verdicts.clear()
    assert classify_all(()).verdicts == HORIZONTAL_VERDICTS == horizontal


def test_empty_word_is_horizontal():
    report = classify_all(())
    assert report.verdicts == HORIZONTAL_VERDICTS
    assert word_permutation(()) == Permutation5.identity()


def test_counts_are_always_2_2_1():
    rng = random.Random(7)
    for _ in range(100):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 8)))
        counts = classify_all(word).counts()
        assert counts[Classification.SHORT] == 2
        assert counts[Classification.LONG] == 2
        assert counts[Classification.SADDLE_CONNECTION] == 1


def test_reduction_preserves_verdicts():
    assert classify_all((2, 3, 1, 2, 2, 1)).verdicts == classify_all((2, 3)).verdicts
    rng = random.Random(11)
    for _ in range(100):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 10)))
        assert classify_all(word).verdicts == classify_all(reduce_word(word)).verdicts


def alternating_sum(word):
    return sum(k if i % 2 == 0 else -k for i, k in enumerate(word))


def test_deleting_a_pair_keeps_alternating_sum_and_parity():
    # The permutation depends only on A = k_1 - k_2 + k_3 - ... and the parity
    # of n, and deleting a pair kk changes neither, so reduction keeps verdicts.
    rng = random.Random(23)
    for _ in range(300):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 12)))
        i, k = rng.randint(0, len(word)), rng.randrange(4)
        longer = word[:i] + (k, k) + word[i:]
        assert alternating_sum(longer) == alternating_sum(word)
        assert len(longer) % 2 == len(word) % 2
        assert word_permutation(longer) == word_permutation(word)
        assert word_permutation(word) == word_permutation(reduce_word(longer))


def test_leading_zeros_preserve_verdicts():
    rng = random.Random(13)
    for _ in range(50):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
        assert classify_all((0,) + word).verdicts == classify_all(word).verdicts


def test_classify_single_midpoint():
    assert classify((2, 1), 1) is Classification.SADDLE_CONNECTION
    assert classify((2, 1), 4) is Classification.SHORT
    with pytest.raises(ValueError):
        classify((2, 1), 0)
    with pytest.raises(ValueError):
        classify((2, 1), 6)
    with pytest.raises(ValueError):
        classify((2, 4), 1)


def test_classify_vector_matches_word_classification():
    rng = random.Random(19)
    for _ in range(30):
        length = rng.randint(0, 6)
        word = tuple(rng.randrange(4) for _ in range(length))
        if word and word[0] == 0:
            word = (1,) + word[1:]
        report = classify_vector(word_to_vector(word))
        assert report.verdicts == classify_all(word).verdicts


def test_classify_vector_horizontal():
    report = classify_vector(GoldenVector(GoldenNumber(1), GoldenNumber(0)))
    assert report.word == ()
    assert report.verdicts == HORIZONTAL_VERDICTS


def test_classify_vector_vertical():
    # Any positive multiple of (0, 1) is the vertical direction.
    for y in (GoldenNumber(1), GoldenNumber(Fraction(7, 3))):
        report = classify_vector(GoldenVector(GoldenNumber(0), y))
        assert report.word is None
        assert report.tau is None
        assert report.verdicts == {
            1: Classification.SADDLE_CONNECTION,
            2: Classification.LONG,
            3: Classification.LONG,
            4: Classification.SHORT,
            5: Classification.SHORT,
        }
    with pytest.raises(ValueError, match="^zero vector has no direction$"):
        classify_vector(GoldenVector(GoldenNumber(0), GoldenNumber(0)))
