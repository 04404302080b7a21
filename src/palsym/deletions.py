"""Minimal number of deletions that leave a palindrome or antipalindrome.

``sd(w)`` equals the length of ``w`` minus the length of its longest
symmetric subsequence.  The longest palindromic subsequence is
LPS(w) = LCS(w, rev w) and the longest antipalindromic one is
LAS(w) = LCS(w, comp rev w).  ``_mirror_lcs`` computes both with the
bit-parallel LCS update of Allison & Dix (IPL 1986) and Hyyrö (2004): n
steps of a few word operations each.  It is written with integer operators
only, so the same code runs on a Python ``int`` (``sd``, ``lps_length``,
``las_length``), on a numpy array of packed words (``search.sd_batch``:
``uint32`` lanes up to 32 letters, ``int64`` lanes above), and on many
words of different lengths packed as 64-bit lanes of one Python ``int``
("SIMD within a register"; ``sd_words``).  There each lane has its own
length mask, and a lane joins the pass at the step of its word's first
letter, so one pass answers a whole chunk of words; ``int.bit_count`` then
counts each lane's bits.  Only the witness tables build arrays, so only
``_tables`` and ``sd_witnesses`` import numpy.

The classic interval recurrence for the longest palindromic (P) or
antipalindromic (A) subsequence of w_i..w_j is

    T(i, j) = T(i+1, j-1) + 2                if the end pair counts,
    T(i, j) = max(T(i+1, j), T(i, j-1))      otherwise,

with P(i, i) = 1 and A(i, i) = 0.  An end pair counts for P when
w_i == w_j and for A when w_i != w_j; keeping such a pair is always
optimal.  ``_tables`` fills T for many words at once, each for its own
target, as one numpy array of right-aligned words in which row i is a
running maximum over row i + 1.  ``sd_witnesses`` builds the table of each
word's target in one such array and backtracks through it with fixed
tie-breaks so the witness is reproducible; ``sd_witness`` is the same for
one word.  ``brute_force_sd`` serves as an independent oracle for the
kernel and the tables: with no DP, it walks the distinct subsequences of w
level by level, each level one letter shorter, until a level holds a
palindrome or an antipalindrome.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import LengthBudgetExceeded
from .words import SymmetryClass, Word, parse_word

if TYPE_CHECKING:
    import numpy as np

# The oracle's length guard, and so the top of `verify --suite oracle
# --max-n`, whose range stays 1..22.  At 22 letters the walk takes about
# 10 ms on a word of maximum sd and 0.36 s over 200 random words (2-vCPU
# Xeon VM, Python 3.11.7).
ORACLE_MAX_LENGTH = 22

_SWAP = str.maketrans("ab", "ba")
# Bits per lane of a packed chunk (``_pack``): a word of up to 63 letters
# and the bit its sums may carry into.
_LANE = 64


@dataclass(frozen=True, slots=True)
class SdResult:
    """Deletion distance together with the two subsequence lengths."""

    value: int
    lps: int
    las: int


@dataclass(frozen=True, slots=True)
class DeletionWitness:
    """A concrete minimal deletion set and what it leaves behind.

    ``deleted_positions`` are strictly increasing 1-based indices into the
    original word; ``target`` is PALINDROME or ANTIPALINDROME; ``result``
    is the word's ``sd`` result, from which the target was chosen.
    """

    deleted_positions: tuple[int, ...]
    target: SymmetryClass
    residual: Word
    result: SdResult


def _tables(bits: np.ndarray, n: int, pal: np.ndarray) -> np.ndarray:
    """Interval tables of many words at once, each for its own target.

    ``bits`` holds packed words of at most ``n`` letters, read right-aligned
    in n places: a word of m letters fills places n - m .. n - 1, so entry
    ``[k, i, j]`` is the longest palindromic (``pal[k]``) or antipalindromic
    subsequence of letters i..j of word k, and its own table is the
    bottom-right m by m corner of slice k.  Rows fill from the bottom; past
    the diagonal, row i is the running maximum over j of ``T(i+1, j-1) + 2``
    where the end pair (i, j) counts and of ``T(i+1, j)`` where it does not.
    That equals the recurrence because T(i, j) never decreases in j and a
    counting end pair never loses to ``T(i, j-1)``, which is at most
    ``T(i+1, j-1) + 2``.  Entries below the diagonal stay 0, the empty
    interval, so ``T(i+1, i)`` reads 0.
    """
    import numpy as np

    letters = (bits[:, None] >> np.arange(n - 1, -1, -1)) & 1
    match = letters[:, :, None] == letters[:, None, :]
    np.equal(match, pal[:, None, None], out=match)  # where end pairs count
    t = np.zeros((len(bits), n, n), np.int8)
    diagonal = np.arange(n)
    t[:, diagonal, diagonal] = pal[:, None]
    for i in range(n - 2, -1, -1):
        below = t[:, i + 1]
        np.maximum.accumulate(
            np.where(match[:, i, i + 1 :], below[:, i:-1] + 2, below[:, i + 1 :]),
            axis=1,
            out=t[:, i, i + 1 :],
        )
    return t


def _mirror_lcs(bits, n: int, starts=None):
    """LCS state vectors of w against rev w and against comp rev w.

    ``bits`` is a packed word of length ``n`` (a Python ``int``) or an
    integer array of them whose lanes hold n bits: ``uint32`` for n <= 32,
    ``int64`` for n <= 63.  A sum ``vp + u`` may carry out of bit n - 1: off
    the top of a ``uint32`` lane at n = 32, where it is lost, or into the
    sign bit of an ``int64`` lane at n = 63, which the mask clears; bits
    0..n-1 are exact either way.  Bit i of each vector stands for the letter i
    places from the right end of w.  The number of clear bits is the LCS
    length, so LPS = n - popcount(vp) and LAS = n - popcount(va).

    With ``starts``, ``bits`` is a Python ``int`` of 64-bit lanes (see
    ``_pack``), each holding one word of at most ``n`` letters in its low
    bits, and ``starts[k]`` has ones over the letters of every lane whose
    word has k + 1 letters.  Step k reads bit k of every lane, so such a
    lane joins at step k, the step of its first letter; before that its
    bits and matches are zero and its vectors rest at all ones.  A lane's
    sum carries at most into bit 63 of its own lane, which the mask clears.
    """
    fill = (1 << n) - 1
    if starts is None:
        starts = {n - 1: fill}
    mask = 0
    for lanes in starts.values():
        mask |= lanes
    ones = mask & ~(mask << 1)  # bit 0 of every lane
    comp = bits ^ mask
    vp = va = bits | comp  # all ones, with the type and shape of bits
    live = 0
    for k in range(n - 1, -1, -1):  # letters of w from the left end
        if k in starts:  # always at k = n - 1, the longest word's start
            live |= starts[k]
            b, c = bits & live, comp & live
        # all ones across each live lane whose letter is b: its match set
        # against rev w is then bits, else comp, and against comp rev w
        # the other one
        s = ((bits >> k) & ones) * fill
        u = vp & (c ^ s)
        vp = ((vp + u) | (vp - u)) & mask
        u = va & (b ^ s)
        va = ((va + u) | (va - u)) & mask
    return vp, va


def _pack(ws: Sequence[Word]) -> tuple[int, int, dict[int, int]]:
    """The words as lanes of one ``int`` for ``_mirror_lcs``: word k in
    bits 64k .. 64k + 63, with the longest length and the lanes by length."""
    bits, longest, starts = 0, 0, {}
    for lane, w in enumerate(ws):
        shift = lane * _LANE
        bits |= w.bits << shift
        if w.length:
            k = w.length - 1
            starts[k] = starts.get(k, 0) | ((1 << w.length) - 1) << shift
            longest = max(longest, w.length)
    return bits, longest, starts


def _lane_counts(vector: int, lanes: int) -> list[int]:
    """Set bits in each 64-bit lane of ``vector``.  A popcount does not
    depend on the order of a lane's bytes, so the native-order cast is
    exact on any host."""
    lane_view = memoryview(vector.to_bytes(8 * lanes, "little")).cast("Q")
    return [x.bit_count() for x in lane_view]


def sd_words(ws: Sequence[Word]) -> list[SdResult]:
    """``sd`` of every word, from one kernel pass over their packed lanes."""
    vp, va = _mirror_lcs(*_pack(ws))
    results = []
    for w, p, a in zip(ws, _lane_counts(vp, len(ws)), _lane_counts(va, len(ws))):
        lps, las = w.length - p, w.length - a
        results.append(SdResult(w.length - max(lps, las), lps, las))
    return results


def lps_length(w: Word) -> int:
    """Length of the longest palindromic subsequence."""
    return sd(w).lps


def las_length(w: Word) -> int:
    """Length of the longest antipalindromic subsequence; always even."""
    return sd(w).las


def sd(w: Word) -> SdResult:
    """Minimal deletions taking ``w`` to a palindrome or antipalindrome."""
    n = len(w)
    vp, va = _mirror_lcs(w.bits, n)
    lps, las = n - vp.bit_count(), n - va.bit_count()
    return SdResult(n - max(lps, las), lps, las)


def sd_witnesses(ws: Sequence[Word]) -> list[DeletionWitness]:
    """``sd_witness`` of every word: one kernel pass gives their ``sd``
    and targets, one batched interval table holds the table of each word's
    target, and each word is backtracked through its own table."""
    import numpy as np

    results = sd_words(ws)
    targets = [r.lps >= r.las for r in results]  # palindrome, else anti
    n = max((w.length for w in ws), default=0)
    bits = np.array([w.bits for w in ws], np.int64)
    t = memoryview(_tables(bits, n, np.array(targets, bool)))
    pal, anti = SymmetryClass.PALINDROME, SymmetryClass.ANTIPALINDROME
    witnesses = []
    for k, (w, result, want_pal) in enumerate(zip(ws, results, targets)):
        s = str(w)
        m = len(s)
        o = n - m  # the word's table starts at row and column o
        kept: list[int] = []
        i, j = 0, m - 1
        while i < j:
            if (s[i] == s[j]) == want_pal:
                kept += (i, j)
                i += 1
                j -= 1
            elif t[k, o + i, o + j] == t[k, o + i, o + j - 1]:
                j -= 1
            else:
                i += 1
        if i == j and want_pal:
            kept.append(i)

        kept.sort()
        kept_set = set(kept)
        deleted = tuple(p + 1 for p in range(m) if p not in kept_set)
        residual = parse_word("".join(s[p] for p in kept))
        target = pal if want_pal else anti
        witnesses.append(DeletionWitness(deleted, target, residual, result))
    return witnesses


def sd_witness(w: Word) -> DeletionWitness:
    """A minimal deletion set, deterministic under fixed tie-breaks.

    The witness targets a palindrome when ``sd`` gives lps >= las, else
    an antipalindrome, and backtracks through the table of that target
    only.  A pairing end pair is always kept (it is always optimal); when
    one end must go, the right end is dropped if that keeps the value.
    """
    return sd_witnesses([w])[0]


def _is_symmetric_text(t: str) -> bool:
    r = t[::-1]
    return t == r or t == r.translate(_SWAP)


def brute_force_sd(w: Word) -> int:
    """Independent oracle: walk the distinct subsequences by length.

    Level k holds the texts that k deletions reach, deduplicated; level
    k + 1 holds every one-letter deletion of a level-k text.  Returns the
    first k whose level holds a palindrome or antipalindrome.  Guarded to
    ``ORACLE_MAX_LENGTH`` letters.
    """
    n = len(w)
    if n > ORACLE_MAX_LENGTH:
        raise LengthBudgetExceeded(
            f"oracle supports at most {ORACLE_MAX_LENGTH} letters, got {n}"
        )
    level = {str(w)}
    for k in range(n + 1):
        if any(_is_symmetric_text(t) for t in level):
            return k
        level = {t[:i] + t[i + 1 :] for t in level for i in range(len(t))}
    raise AssertionError("unreachable: the empty word is symmetric")
