"""Word algebra: parsing, direction vectors, inversion, and reduction."""

import random
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

import words_reference as reference
from goldenl import (
    CapExceededError,
    GoldenNumber,
    GoldenVector,
    PHI,
    VerticalDirectionError,
    classify,
    classify_all,
    derive_once,
    format_word,
    is_base_word,
    oracle_classify,
    oracle_report,
    parse_word,
    reduce_word,
    render_trajectory,
    trace,
    vector_to_word,
    word_permutation,
    word_to_vector,
)
from goldenl.render import pentagon_svg
from goldenl.words import _direction_pairs, _pairs


def test_parse_and_format():
    assert parse_word("e") == ()
    assert parse_word("0") == (0,)
    assert parse_word("132") == (1, 3, 2)
    assert format_word(()) == "e"
    assert format_word((2, 1)) == "21"
    # Digits other than ASCII 0-3 are not letters, though str.isdigit and int() take them.
    for text in ("", "4", "12x", "E", "\uff101", "\u0661", "1\u0662", "\U0001d7ce"):
        with pytest.raises(ValueError):
            parse_word(text)
    rng = random.Random(20261023)
    for length in list(range(12)) + [rng.randint(12, 1000) for _ in range(40)] + [1000]:
        word = tuple(rng.randrange(4) for _ in range(length))
        assert parse_word(format_word(word)) == word
        assert format_word(word) == ("".join(map(str, word)) or "e")
    # A letter is an int: a bool or an IntEnum member equals one without being one.
    for bad in (5, True, IntEnum("Letter", "ONE TWO")(2)):
        with pytest.raises(ValueError, match="word letter out of range 0-3"):
            format_word((1, bad))


def test_word_to_vector_worked_examples():
    assert word_to_vector(()) == GoldenVector(GoldenNumber(1), GoldenNumber(0))
    assert word_to_vector((1, 3, 2)) == GoldenVector(GoldenNumber(3, 2), GoldenNumber(2, 4))
    assert word_to_vector((2, 1)) == GoldenVector(GoldenNumber(2, 2), GoldenNumber(1, 2))


def test_single_letter_vectors_are_sigma_first_columns():
    assert word_to_vector((0,)) == GoldenVector(GoldenNumber(1), GoldenNumber(0))
    assert word_to_vector((1,)) == GoldenVector(GoldenNumber(0, 1), GoldenNumber(1))
    assert word_to_vector((2,)) == GoldenVector(GoldenNumber(0, 1), GoldenNumber(0, 1))
    assert word_to_vector((3,)) == GoldenVector(GoldenNumber(1), GoldenNumber(0, 1))


def test_word_letters_validated():
    with pytest.raises(ValueError):
        word_to_vector((1, 4))


@pytest.mark.parametrize(
    "bad",
    [4, -1, "1", [1], 1.0, True, Fraction(1)],
    ids=["4", "-1", "str", "unhashable", "float", "bool", "fraction"],
)
def test_letter_errors_name_the_first_bad_letter(bad):
    # The same message from every function that checks letters, whether the
    # word is a tuple, a list or an iterator, and whatever follows the bad letter.
    # A letter must be an int: 1.0, True and Fraction(1) equal one but are not.
    checks = (format_word, word_to_vector, derive_once, reduce_word, is_base_word, word_permutation)
    for word in ((1, bad, 4), [0, bad, 5], (2, bad, [3])):
        for check in checks:
            for given in (word, iter(word)):
                with pytest.raises(ValueError) as caught:
                    check(given)
                assert str(caught.value) == f"word letter out of range 0-3: {bad!r}", (check, word)
    # A string is not a word of digits: its letter "2" is named as a string.
    with pytest.raises(ValueError, match=r"^word letter out of range 0-3: '2'$"):
        classify_all("21")


def test_every_entry_point_reads_the_word_once():
    # A tuple, a list and a one-shot iterator of the same letters give the same
    # answer everywhere a word goes in: no function may use up an iterator in
    # its letter check. The flow and drawing entry points get the short words.
    rng = random.Random(20261020)
    words = [()] + [tuple(rng.randrange(4) for _ in range(rng.randint(1, 127))) for _ in range(24)]
    short = [()] + [tuple(rng.randrange(4) for _ in range(n)) for n in (1, 2, 3, 4)]
    assert format_word(iter(())) == "e"
    calls = [format_word, classify_all, _pairs] + [lambda w, label=label: classify(w, label) for label in range(1, 6)]
    flow_calls = [
        oracle_classify,
        oracle_report,
        lambda w: trace(3, w),
        lambda w: trace(4, (2, 1)).to_json_dict(w),
        lambda w: render_trajectory(w, 2),
        lambda w: pentagon_svg(w, 5),
    ]
    for entry_points, sample in ((calls, words), (flow_calls, short)):
        for call in entry_points:
            for word in sample:
                expected = call(word)
                for given in (list(word), iter(word)):
                    assert call(given) == expected, (call, word)


def test_vector_to_word_known():
    assert vector_to_word(GoldenVector(GoldenNumber(1), GoldenNumber(0))) == ()
    assert vector_to_word(GoldenVector(GoldenNumber(1), GoldenNumber(1))) == (2,)
    assert vector_to_word(GoldenVector(GoldenNumber(3, 2), GoldenNumber(2, 4))) == (1, 3, 2)


def test_round_trip_exhaustive_short():
    for length in range(0, 5):
        for word in product((0, 1, 2, 3), repeat=length):
            if word and word[0] == 0:
                continue
            assert vector_to_word(word_to_vector(word)) == word


def test_round_trip_sampled_long():
    rng = random.Random(17)
    for _ in range(40):
        length = rng.randint(7, 8)
        word = (rng.randint(1, 3),) + tuple(rng.randrange(4) for _ in range(length - 1))
        assert vector_to_word(word_to_vector(word)) == word


# sigma_k row by row, each entry (p, q) meaning p + q*phi. Written out here,
# apart from the library's table, so the reference fold below checks it.
REFERENCE_SIGMA_ROWS = (
    (((1, 0), (0, 1)), ((0, 0), (1, 0))),  # ((1, phi), (0, 1))
    (((0, 1), (0, 1)), ((1, 0), (0, 1))),  # ((phi, phi), (1, phi))
    (((0, 1), (1, 0)), ((0, 1), (0, 1))),  # ((phi, 1), (phi, phi))
    (((1, 0), (0, 0)), ((0, 1), (1, 0))),  # ((1, 0), (phi, 1))
)


def reference_word_to_vector(word):
    """The direction fold on Q[phi] numbers: sigma_k as GoldenNumber matrices applied to (1, 0)."""
    x, y = GoldenNumber(1), GoldenNumber(0)
    for k in word:
        (a, b), (c, d) = ((GoldenNumber(*entry) for entry in row) for row in REFERENCE_SIGMA_ROWS[k])
        x, y = a * x + b * y, c * x + d * y
    return GoldenVector(x, y)


def test_direction_algebra_matches_reference_fold():
    rng = random.Random(20261018)
    words = [w for n in range(6) for w in product((0, 1, 2, 3), repeat=n)]
    words += [tuple(rng.randrange(4) for _ in range(rng.randint(16, 127))) for _ in range(64)]
    for word in words:
        v = word_to_vector(word)
        assert v == reference_word_to_vector(word), word
        # Non-integral multiples name the same direction, so the same word.
        stripped = word[next((i for i, k in enumerate(word) if k), len(word)):]
        assert vector_to_word(v.scaled(Fraction(7, 3))) == stripped, word
        assert vector_to_word(v.scaled(Fraction(1, 2))) == stripped, word


def test_pairs_equal_the_cleared_vector():
    # The oracle reads a word's integer pairs straight from the letter loop;
    # they are the pairs its vector clears back to, checked in the quadrant.
    rng = random.Random(20261021)
    words = [w for n in range(7) for w in product((0, 1, 2, 3), repeat=n)]
    words += [tuple(rng.randrange(4) for _ in range(rng.randint(16, 1024))) for _ in range(48)]
    for word in words:
        assert _pairs(word) == _direction_pairs(word_to_vector(word)), word


def _stripped(word):
    """The word without its leading zeros, which sigma_0 ignores."""
    return word[next((i for i, k in enumerate(word) if k), len(word)):]


def _same_error(library, reference_path, *args):
    with pytest.raises((ValueError, CapExceededError, VerticalDirectionError)) as expected:
        reference_path(*args)
    with pytest.raises(expected.type) as caught:
        library(*args)
    assert str(caught.value) == str(expected.value), args


def test_word_path_matches_reference():
    # Every word of length <= 7, then long seeded words and non-integral
    # multiples. A valid direction has one word, the word without its leading
    # zeros; the reference peel is also run on the long words.
    rng = random.Random(20261019)
    long_words = [tuple(rng.randrange(4) for _ in range(rng.randint(16, 400))) for _ in range(64)]
    for word in [w for n in range(8) for w in product((0, 1, 2, 3), repeat=n)] + long_words:
        v = word_to_vector(word)
        assert v == reference.word_to_vector(word), word
        assert vector_to_word(v) == _stripped(word), word
        tau = word_permutation(word)
        assert tau == reference.word_permutation(word), word
        # A list or a one-shot iterator of the same letters names the same direction.
        for make in (list, iter):
            assert (word_to_vector(make(word)), word_permutation(make(word))) == (v, tau), word
    for word in long_words:
        v = word_to_vector(word)
        for w in (v, v.scaled(Fraction(7, 3)), v.scaled(Fraction(1, 2))):
            assert vector_to_word(w) == reference.vector_to_word(w) == _stripped(word), word
    # The same errors with the same messages: the cap, vertical input, bad input.
    for word in [(1, 2, 3), (2, 0, 3, 1, 1, 2)] + long_words[:8]:
        v = word_to_vector(word)
        for cap in (0, len(_stripped(word)) - 1):
            _same_error(vector_to_word, reference.vector_to_word, v, cap)
    for y in (GoldenNumber(1), GoldenNumber(3, 2), GoldenNumber(0, Fraction(7, 3))):
        for cap in (0, 5):
            _same_error(vector_to_word, reference.vector_to_word, GoldenVector(GoldenNumber(0), y), cap)
    one, minus_one, zero = GoldenNumber(1), GoldenNumber(-1), GoldenNumber(0)
    for x, y in ((zero, zero), (-PHI, one), (one, minus_one), (PHI - 2, one)):
        _same_error(vector_to_word, reference.vector_to_word, GoldenVector(x, y))
    _same_error(word_to_vector, reference.word_to_vector, (1, 2, 4))
    _same_error(word_permutation, reference.word_permutation, (0, -1))


def test_cone_edge_words_match_reference():
    # Runs of one letter and alternations sit on or near the cone edges the
    # peel's sign tests tell apart; seeded long words mix every cone.
    rng = random.Random(20261020)
    words = [
        word
        for n in (500, 2000)
        for word in ((3,) * n, (1,) + (0,) * (n - 1), (2,) * n, (1,) * n, (1, 2) * (n // 2), (1, 3) * (n // 2))
    ]
    words += [tuple(rng.randrange(4) for _ in range(rng.randint(1000, 2000))) for _ in range(8)]
    for word in words:
        v = word_to_vector(word)
        assert v == reference.word_to_vector(word), word[:8]
        assert vector_to_word(v) == reference.vector_to_word(v) == _stripped(word), word[:8]
    # The cap is the largest number of letters allowed, at these lengths too.
    for word in words[:6:2] + words[-2:]:
        v = word_to_vector(word)
        n = len(_stripped(word))
        assert vector_to_word(v, n) == _stripped(word), word[:8]
        _same_error(vector_to_word, reference.vector_to_word, v, n - 1)


def test_leading_zeros_collapse():
    # sigma_0 fixes (1, 0), so leading zeros do not change the direction.
    assert word_to_vector((0, 2, 1)) == word_to_vector((2, 1))
    assert vector_to_word(word_to_vector((0, 0, 2, 1))) == (2, 1)
    assert vector_to_word(word_to_vector((0,))) == ()


def test_vector_to_word_never_emits_leading_zero():
    rng = random.Random(91)
    for _ in range(60):
        length = rng.randint(0, 6)
        word = tuple(rng.randrange(4) for _ in range(length))
        recovered = vector_to_word(word_to_vector(word))
        assert recovered == () or recovered[0] != 0


def test_vertical_direction_has_no_word():
    with pytest.raises(VerticalDirectionError):
        vector_to_word(GoldenVector(GoldenNumber(0), GoldenNumber(1)))


def test_inversion_cap():
    v = word_to_vector((1, 2, 3))
    with pytest.raises(CapExceededError):
        vector_to_word(v, cap=2)
    # The cap is the largest number of letters allowed.
    assert vector_to_word(word_to_vector(()), cap=0) == ()
    with pytest.raises(ValueError, match=r"^cap must be nonnegative, got -1$"):
        vector_to_word(word_to_vector(()), cap=-1)
    # A cap that is not an int is an input error too: a bool or a float.
    for cap, shown in ((True, "True"), (2.0, r"2\.0")):
        with pytest.raises(ValueError, match=rf"^cap must be an int, got {shown}$"):
            vector_to_word(word_to_vector((1, 2, 3)), cap=cap)
    for word in ((1, 3, 2), (2, 1), (3,), (1, 2, 3), (2, 0, 3, 1, 1, 2)):
        v = word_to_vector(word)
        assert vector_to_word(v, cap=len(word)) == word
        with pytest.raises(CapExceededError):
            vector_to_word(v, cap=len(word) - 1)


def test_reduce_worked_example():
    assert reduce_word((2, 3, 1, 2, 2, 1)) == (2, 3)


def test_reduce_basics():
    assert reduce_word(()) == ()
    assert reduce_word((1, 1)) == ()
    assert reduce_word((1, 2, 2, 1)) == ()
    assert reduce_word((0, 1, 2, 3)) == (0, 1, 2, 3)


def test_derive_once_single_pass():
    assert derive_once((1, 1, 1)) == (1,)
    assert derive_once((1, 2, 2, 1)) == (1, 1)
    assert derive_once(()) == ()


def test_reduce_is_derive_fixpoint():
    rng = random.Random(29)
    for _ in range(300):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 14)))
        current = word
        while True:
            step = derive_once(current)
            if step == current:
                break
            current = step
        assert current == reduce_word(word)
        for make in (list, iter):
            assert (reduce_word(make(word)), derive_once(make(word))) == (current, derive_once(word)), word


def test_reduce_preserves_length_parity():
    rng = random.Random(31)
    for _ in range(200):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 13)))
        assert (len(word) - len(reduce_word(word))) % 2 == 0


def test_reduce_idempotent_and_base():
    rng = random.Random(37)
    for _ in range(200):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 12)))
        base = reduce_word(word)
        assert reduce_word(base) == base
        assert is_base_word(base)


def test_is_base_word():
    for make in (tuple, list, iter):
        assert is_base_word(make(()))
        assert is_base_word(make((1, 2, 1)))
        assert not is_base_word(make((1, 1)))
        assert not is_base_word(make((2, 3, 3, 1)))
