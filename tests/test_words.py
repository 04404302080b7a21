import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from palsym import (
    InvalidLetterError,
    LengthBudgetExceeded,
    SymmetryClass,
    Word,
    all_words,
    complement_letter,
    parse_word,
)
from palsym.deletions import _check_lane
from palsym.words import _delete, _is_canonical, _is_symmetric, _reverse_bits

word_texts = st.text(alphabet="ab", max_size=14)


def test_parse_examples():
    assert parse_word("") == Word(0, 0)
    assert parse_word("aab") == Word(3, 0b001)
    assert str(parse_word("aab")) == "aab"


def test_parse_rejects_bad_letter():
    with pytest.raises(InvalidLetterError) as exc:
        parse_word("axb")
    assert exc.value.position == 2
    assert exc.value.char == "x"


def test_parse_digit_aliases():
    assert str(parse_word("0101", allow_digits=True)) == "abab"
    with pytest.raises(InvalidLetterError):
        parse_word("0101")


def test_parse_length_guard():
    """``parse_word`` takes words of any length and checks their letters;
    the 63-letter limit belongs to the 64-bit lanes (``_check_lane``)."""
    for text in ("a" * 64, "b" * 64, "ab" * 32 + "b", "ba" * 50):
        for digits in (False, True):
            w = parse_word(text, allow_digits=digits)
            assert (str(w), len(w)) == (text, len(text))
    assert str(parse_word("01" * 40, allow_digits=True)) == "ab" * 40
    for text, position in (("x" * 64, 1), ("ab" * 31 + "a1", 64)):
        with pytest.raises(InvalidLetterError) as exc:
            parse_word(text)
        assert exc.value.position == position
    _check_lane(63)
    for n in (64, 100):
        with pytest.raises(LengthBudgetExceeded) as exc:
            _check_lane(n)
        assert str(exc.value) == f"word of length {n} exceeds the 63-letter limit"


def test_text_round_trip_exhaustive():
    """Text form and parsing agree with the letter-by-letter rule on every
    word of 0..14 letters, with letters and with digit aliases."""
    for n in range(15):
        for w in all_words(n):
            text = "".join("ab"[(w.bits >> (n - i)) & 1] for i in range(1, n + 1))
            assert str(w) == text
            assert parse_word(text) == w
            digits = text.translate(str.maketrans("ab", "01"))
            assert parse_word(digits, allow_digits=True) == w


@pytest.mark.parametrize(
    "digits, bad",
    [(False, c) for c in "xA2 _+é01"] + [(True, c) for c in "xA2 _+é"],
)
def test_invalid_letter_at_each_position(digits, bad):
    """The first character outside the alphabet is named with its 1-based
    position, wherever it sits and whatever follows it."""
    for n in (1, 2, 9, 63):
        base = "ab" * 31 + "b"
        for position in range(1, n + 1):
            text = base[: position - 1] + bad + base[position:n]
            for tail in ("", "x"):
                if len(text + tail) > 63:
                    continue
                with pytest.raises(InvalidLetterError) as exc:
                    parse_word(text + tail, allow_digits=digits)
                assert (exc.value.position, exc.value.char) == (position, bad)
                message = f"invalid letter {bad!r} at position {position}"
                assert str(exc.value) == message


@given(word_texts)
def test_parse_render_round_trip(text):
    assert str(parse_word(text)) == text


def test_reverse_examples():
    assert str(parse_word("aab").reverse()) == "baa"
    assert str(parse_word("").reverse()) == ""
    assert str(parse_word("ab").reverse()) == "ba"


def test_complement_examples():
    assert str(parse_word("aab").complement()) == "bba"
    assert str(parse_word("abab").complement()) == "baba"
    assert str(parse_word("").complement()) == ""


def test_complement_letter_swaps():
    assert complement_letter("a") == "b"
    assert complement_letter("b") == "a"
    with pytest.raises(InvalidLetterError):
        complement_letter("x")


def test_transform_group_exhaustive():
    """Reversal and complement are commuting involutions (all words <= 12)."""
    for n in range(13):
        for w in all_words(n):
            assert w.reverse().reverse() == w
            assert w.complement().complement() == w
            assert w.reverse().complement() == w.complement().reverse()


def test_symmetry_class_examples():
    assert parse_word("abba").symmetry_class() is SymmetryClass.PALINDROME
    assert parse_word("aabb").symmetry_class() is SymmetryClass.ANTIPALINDROME
    assert parse_word("aab").symmetry_class() is SymmetryClass.NEITHER
    assert parse_word("").symmetry_class() is SymmetryClass.BOTH


def test_symmetry_class_matches_fixed_points():
    """Palindromes are reversal fixed points, antipalindromes are
    complemented-reversal fixed points (all words <= 12)."""
    for n in range(13):
        for w in all_words(n):
            cls = w.symmetry_class()
            assert (cls in (SymmetryClass.PALINDROME, SymmetryClass.BOTH)) == (
                w == w.reverse()
            )
            assert (
                cls in (SymmetryClass.ANTIPALINDROME, SymmetryClass.BOTH)
            ) == (w == w.reverse().complement())


def test_no_odd_antipalindrome():
    for n in range(1, 13, 2):
        for w in all_words(n):
            assert w.symmetry_class() in (
                SymmetryClass.PALINDROME,
                SymmetryClass.NEITHER,
            )


def test_both_only_for_empty():
    assert parse_word("").symmetry_class() is SymmetryClass.BOTH
    for n in range(1, 11):
        assert all(
            w.symmetry_class() is not SymmetryClass.BOTH for w in all_words(n)
        )


def test_orbit_examples():
    assert {str(w) for w in parse_word("aab").orbit()} == {
        "aab",
        "baa",
        "bba",
        "abb",
    }
    assert {str(w) for w in parse_word("ab").orbit()} == {"ab", "ba"}
    assert {str(w) for w in parse_word("aa").orbit()} == {"aa", "bb"}


def test_canonical_examples():
    assert str(parse_word("baa").canonical()) == "aab"
    assert str(parse_word("ab").canonical()) == "ab"
    assert str(parse_word("bb").canonical()) == "aa"


def test_canonical_constant_and_idempotent_exhaustive():
    """canonical() is orbit-constant and idempotent (all words <= 12)."""
    for n in range(13):
        for w in all_words(n):
            c = w.canonical()
            assert c.canonical() == c
            assert all(v.canonical() == c for v in w.orbit())
            assert w.is_canonical() == (c == w)


@given(word_texts)
def test_canonical_is_orbit_minimum(text):
    w = parse_word(text)
    assert w.canonical().bits == min(v.bits for v in w.orbit())


def _check_packed_transforms(n, ws):
    """_reverse_bits and _is_canonical on the words ws of length n, each as
    an int and all as one int64 array, against text reversal and the orbit
    minimum."""
    rev = [parse_word(str(w)[::-1]).bits for w in ws]
    canon = [w.canonical() == w for w in ws]
    arr = np.array([w.bits for w in ws], dtype=np.int64)
    assert [_reverse_bits(w.bits, n) for w in ws] == rev
    assert _reverse_bits(arr, n).tolist() == rev
    assert [_is_canonical(w.bits, n) for w in ws] == canon
    assert _is_canonical(arr, n).tolist() == canon


def test_packed_transforms_exhaustive():
    """Every packed word of 0..14 letters."""
    for n in range(15):
        _check_packed_transforms(n, list(all_words(n)))


@given(st.integers(15, 63), st.data())
def test_packed_transforms_sampled(n, data):
    """Samples at 15..63 letters; above 32 letters the swaps can set the
    sign bit of an int64 array word."""
    bits = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1))
    _check_packed_transforms(n, [Word(n, b) for b in bits])


def _check_packed_symmetry_and_deletion(n, ws):
    """_is_symmetric and _delete on the words ws of length n, each as an
    int and all as one int64 array, against the symmetry class and the
    text with one letter removed; the array deletion also takes every
    position at once as an array of bits."""
    symmetric = [w.symmetry_class() is not SymmetryClass.NEITHER for w in ws]
    arr = np.array([w.bits for w in ws], dtype=np.int64)
    assert [_is_symmetric(w.bits, n) for w in ws] == symmetric
    assert [w.is_symmetric() for w in ws] == symmetric
    assert _is_symmetric(arr, n).tolist() == symmetric
    texts = [str(w) for w in ws]
    every = _delete(arr[:, None], np.arange(n - 1, -1, -1, dtype=np.int64))
    for pos in range(1, n + 1):
        kept = [parse_word(t[: pos - 1] + t[pos:]).bits for t in texts]
        assert [_delete(w.bits, n - pos) for w in ws] == kept
        assert _delete(arr, n - pos).tolist() == kept
        assert every[:, pos - 1].tolist() == kept


def test_packed_symmetry_and_deletion_exhaustive():
    """Every packed word of 0..14 letters, at every position."""
    for n in range(15):
        _check_packed_symmetry_and_deletion(n, list(all_words(n)))


@given(st.integers(15, 63), st.data())
def test_packed_symmetry_and_deletion_sampled(n, data):
    """Samples at 15..63 letters, with a palindrome and an antipalindrome
    built from each sampled left half."""
    half = n // 2
    bits = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1))
    ws = [Word(n, b) for b in bits]
    for w in ws[:4]:
        left = str(w)[:half]
        mirrored = left[::-1]
        ws.append(parse_word(left + str(w)[half : n - half] + mirrored))
        if n % 2 == 0:
            ws.append(parse_word(left + mirrored.translate(str.maketrans("ab", "ba"))))
    _check_packed_symmetry_and_deletion(n, ws)


def test_delete_positions():
    w = parse_word("aabab")
    assert str(w.delete(1)) == "abab"
    assert str(w.delete(3)) == "aaab"
    assert str(w.delete(5)) == "aaba"
    with pytest.raises(IndexError):
        w.delete(0)
    with pytest.raises(IndexError):
        w.delete(6)


@given(word_texts.filter(lambda t: len(t) > 0), st.data())
def test_delete_matches_text_slicing(text, data):
    pos = data.draw(st.integers(1, len(text)))
    assert str(parse_word(text).delete(pos)) == text[: pos - 1] + text[pos:]


def test_letter_at():
    w = parse_word("ab")
    assert w.letter_at(1) == "a"
    assert w.letter_at(2) == "b"
    with pytest.raises(IndexError):
        w.letter_at(3)


def test_word_validation():
    """A word has any length of 0 or more, and bits only below it."""
    with pytest.raises(ValueError):
        Word(2, 0b100)
    with pytest.raises(ValueError):
        Word(-1, 0)
    with pytest.raises(ValueError):
        Word(3, -1)
    assert str(Word(64, 0)) == "a" * 64
    long = Word(200, (1 << 199) | 1)
    assert long.reverse() == long and long.is_symmetric()
    assert long.delete(1) == Word(199, 1)
