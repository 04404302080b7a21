"""Binary words over the two-letter alphabet {a, b}.

A word is stored bit-packed in a single integer: the leftmost letter is the
most significant bit, a is 0 and b is 1.  Equal-length words therefore
compare lexicographically as plain integers, and the two symmetry
transforms (reversal and letter complement) are cheap bit operations.
``_reverse_bits``, the canonical test ``_is_canonical``, the palindrome or
antipalindrome test ``_is_symmetric`` and the one-letter deletion
``_delete`` are written with integer operators only, like
``deletions._mirror_lcs``, so the same code serves a Python ``int``
(``Word``) and an ``int64`` numpy array of packed words (the scan filter of
``search``, the symmetric words and the subsequence lattice of ``game``).
A ``Word`` may have any length; ``deletions.MAX_LENGTH`` limits lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidLetterError

LETTERS = ("a", "b")
_COMPLEMENT = {"a": "b", "b": "a"}
_TO_LETTERS = str.maketrans("01", "ab")
# Text to binary digits, without and with the digit aliases.  Without them
# a literal 0 or 1 becomes "-", which ``parse_word`` rejects like any other
# character outside the alphabet.
_TO_BINARY = str.maketrans("ab01", "01--")
_ALIASES_TO_BINARY = str.maketrans("ab", "01")


def complement_letter(letter: str) -> str:
    """The other letter of the alphabet."""
    try:
        return _COMPLEMENT[letter]
    except KeyError:
        raise InvalidLetterError(1, letter) from None


class SymmetryClass(Enum):
    """How a word relates to its mirror image."""

    PALINDROME = "palindrome"
    ANTIPALINDROME = "antipalindrome"
    BOTH = "both"  # empty word only
    NEITHER = "neither"


def _mask(n: int) -> int:
    return (1 << n) - 1


def _reverse_bits(bits, n: int):
    """Reversal of the low n bits of a packed word.

    ``bits`` is a Python ``int`` or an ``int64`` array of packed words.
    Blocks of half, a quarter, ... down to one bit of the smallest power of
    two width >= n swap places, and the reversed width is shifted down to n
    bits.  Above 32 letters the swaps can set the sign bit of an array
    word, which that arithmetic shift copies down; the final mask clears
    the copies.
    """
    width = 1
    while width < n:
        width <<= 1
    step = width >> 1
    low = (1 << step) - 1  # the low half of every 2*step-bit block
    while step:
        bits = ((bits >> step) & low) | ((bits & low) << step)
        step >>= 1
        low ^= low << step
    return (bits >> (width - n)) & _mask(n)


def _is_canonical(bits, n: int):
    """Whether each packed word is the least of its reversal/complement
    orbit; a ``bool`` for an ``int``, a boolean array for an array."""
    mask = _mask(n)
    rev = _reverse_bits(bits, n)
    return (bits <= rev) & (bits <= bits ^ mask) & (bits <= rev ^ mask)


def _is_symmetric(bits, n: int):
    """Whether each packed word of length n is a palindrome or an
    antipalindrome; a ``bool`` for an ``int``, a boolean array for an
    array."""
    rev = _reverse_bits(bits, n)
    return (bits == rev) | (bits == rev ^ _mask(n))


def _delete(bits, low):
    """Packed words left by deleting the letter at bit ``low`` (position
    n - low of an n-letter word): the bits above it shift down by one.
    ``low`` is an ``int`` or an array that broadcasts against ``bits``."""
    return ((bits >> (low + 1)) << low) | (bits & ((1 << low) - 1))


@dataclass(frozen=True, slots=True)
class Word:
    """Immutable bit-packed word.

    ``bits`` holds the letter at 1-based position i (from the left) in bit
    ``length - i``; bits above ``length`` are always zero.
    """

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("length must be >= 0 and bits in [0, 2^length)")

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        # The sentinel bit above the word keeps its leading a's (and gives
        # the empty word an empty string).
        return format(self.bits | 1 << self.length, "b")[1:].translate(_TO_LETTERS)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def letter_at(self, position: int) -> str:
        """Letter at a 1-based position counted from the left."""
        if not 1 <= position <= self.length:
            raise IndexError(f"position {position} not in 1..{self.length}")
        return LETTERS[(self.bits >> (self.length - position)) & 1]

    def delete(self, position: int) -> Word:
        """A copy with the letter at a 1-based position removed."""
        if not 1 <= position <= self.length:
            raise IndexError(f"position {position} not in 1..{self.length}")
        return Word(self.length - 1, _delete(self.bits, self.length - position))

    def reverse(self) -> Word:
        return Word(self.length, _reverse_bits(self.bits, self.length))

    def complement(self) -> Word:
        return Word(self.length, self.bits ^ _mask(self.length))

    def orbit(self) -> frozenset[Word]:
        """Words reachable by reversal and complement; at most four."""
        rev = self.reverse()
        return frozenset((self, rev, self.complement(), rev.complement()))

    def canonical(self) -> Word:
        """The orbit element with the smallest packed encoding."""
        return min(self.orbit(), key=lambda w: w.bits)

    def is_canonical(self) -> bool:
        return _is_canonical(self.bits, self.length)

    def symmetry_class(self) -> SymmetryClass:
        if self.length == 0:
            return SymmetryClass.BOTH
        rev = _reverse_bits(self.bits, self.length)
        if self.bits == rev:
            return SymmetryClass.PALINDROME
        if self.bits == rev ^ _mask(self.length):
            return SymmetryClass.ANTIPALINDROME
        return SymmetryClass.NEITHER

    def is_symmetric(self) -> bool:
        """Palindrome or antipalindrome."""
        return _is_symmetric(self.bits, self.length)


def _parse_bits(text: str, allow_digits: bool = False) -> int:
    """The packed bits of a word's text (see ``parse_word``)."""
    digits = text.translate(_ALIASES_TO_BINARY if allow_digits else _TO_BINARY)
    if digits.strip("01"):  # some character is neither 0 nor 1
        valid = "ab01" if allow_digits else "ab"
        position = next(p for p, c in enumerate(text, start=1) if c not in valid)
        raise InvalidLetterError(position, text[position - 1])
    return int(digits, 2) if digits else 0


def parse_word(text: str, allow_digits: bool = False) -> Word:
    """Parse a word from its text form.

    Letters are 'a' and 'b'; with ``allow_digits`` the aliases '0' (for a)
    and '1' (for b) are accepted as well.
    """
    return Word(len(text), _parse_bits(text, allow_digits))


def all_words(n: int):
    """All 2^n words of length n in ascending packed order."""
    for bits in range(1 << n):
        yield Word(n, bits)
