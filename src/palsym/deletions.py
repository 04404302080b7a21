"""Minimal number of deletions that leave a palindrome or antipalindrome.

``sd(w)`` equals the length of ``w`` minus the length of its longest
symmetric subsequence.  The longest palindromic subsequence is
LPS(w) = LCS(w, rev w) and the longest antipalindromic one is
LAS(w) = LCS(w, comp rev w).  ``_mirror_lcs`` computes both with the
bit-parallel LCS update of Allison & Dix (IPL 1986) and Hyyrö (2004): n
steps of four word operations each, over one match set a step
(``_advance``).  The update is written with integer operators only, so the
same loop runs on a Python ``int`` of any length (``sd``, ``lps_length``,
``las_length``), on a numpy array of packed words (``search.sd_batch`` and
the scan), and on many words of different lengths packed as 64-bit lanes
of one Python ``int`` ("SIMD within a register"), each of at most
``MAX_LENGTH`` letters.  An array builds the match sets of every step at
once, one slice of ``_SLICE`` words at a time, so a step costs four numpy
calls whatever the batch, and masks its vectors once at the end; an
``int`` builds its sets one step at a time.  Only packed lanes are masked
every step, each lane with its own length mask, and a lane joins the pass
at the step of its word's first letter, so one pass answers a whole chunk
of words; ``int.bit_count`` then counts each lane's bits.
``_target_deletions`` takes the chunk as packed bits and lengths, as
``palsym sd`` reads them from its input lines, and builds no object per
word.  Only the witness tables build arrays, so only ``_tables`` and
``_witnesses`` import numpy, and ``_mirror_lcs`` when it is given one.

The classic interval recurrence for the longest palindromic (P) or
antipalindromic (A) subsequence of w_i..w_j is

    T(i, j) = T(i+1, j-1) + 2                if the end pair counts,
    T(i, j) = max(T(i+1, j), T(i, j-1))      otherwise,

with P(i, i) = 1 and A(i, i) = 0.  An end pair counts for P when
w_i == w_j and for A when w_i != w_j; keeping such a pair is always
optimal.  ``_tables`` fills T for many words at once, each for its own
target, as one numpy array read from the words' text padded on the right:
each word's table is the top-left corner of its slice, and row i is a
running maximum over row i + 1.  ``_witnesses`` builds the table of each
word's target in one such array and backtracks through it on the word's
own text with fixed tie-breaks, so the witness is reproducible;
``palsym sd --witness`` runs it on a chunk of lines, and ``sd_witness``
on one ``Word``.  ``brute_force_sd`` serves as an independent oracle for the
kernel and the tables: with no DP, it walks the distinct subsequences of w
level by level, each level one letter shorter, until a level holds a
palindrome or an antipalindrome.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from operator import not_
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
# Bits per lane of a packed chunk (``_pack``), and the longest word of a
# lane, whose top bit takes what the word's sums carry: the limit of a
# ``palsym sd`` line, of ``sd_witness`` and of ``search.sd_batch``.
_LANE = 64
MAX_LENGTH = _LANE - 1
# Words of an array whose match sets ``_mirror_lcs`` builds at once: n rows
# of this many lanes, 2 MB at n = 32 on ``uint32`` lanes.
_SLICE = 1 << 14


def _check_lane(n: int) -> None:
    """Refuse a word of n letters if it does not fit in a lane."""
    if n > MAX_LENGTH:
        raise LengthBudgetExceeded(
            f"word of length {n} exceeds the {MAX_LENGTH}-letter limit"
        )


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


def _tables(texts: Sequence[str], pal: np.ndarray) -> np.ndarray:
    """Interval tables of many words at once, each for its own target.

    The texts are padded on the right to the longest, of n letters, so
    entry ``[k, i, j]`` is the longest palindromic (``pal[k]``) or
    antipalindromic subsequence of letters i..j of word k, and the table of
    a word of m letters is the top-left m by m corner of slice k, which
    never reads the padding.  Rows fill from the bottom; past the diagonal,
    row i is the running maximum over j of ``T(i+1, j-1) + 2`` where the
    end pair (i, j) counts and of ``T(i+1, j)``.  That equals the
    recurrence because T(i, j) never decreases in j, and neither
    ``T(i+1, j)`` nor ``T(i, j-1)`` beats a counting end pair: each is at
    most ``T(i+1, j-1) + 2``.  Entries below the diagonal stay 0, the empty
    interval, so ``T(i+1, i)`` reads 0.
    """
    import numpy as np

    n = max(map(len, texts), default=0)
    padded = "".join(s.ljust(n) for s in texts).encode()
    letters = np.frombuffer(padded, np.uint8).reshape(len(texts), n)
    match = letters[:, :, None] == letters[:, None, :]
    np.equal(match, pal[:, None, None], out=match)  # where end pairs count
    pair = match.view(np.int8)
    np.negative(pair, out=pair)  # all ones where an end pair counts, else 0
    t = np.zeros((len(texts), n, n), np.int8)
    diagonal = np.arange(n)
    t[:, diagonal, diagonal] = pal[:, None]
    for i in range(n - 2, -1, -1):
        below = t[:, i + 1]
        row = below[:, i:-1] + 2
        row &= pair[:, i, i + 1 :]
        np.maximum(row, below[:, i + 1 :], out=row)
        np.maximum.accumulate(row, axis=1, out=t[:, i, i + 1 :])
    return t


def _advance(v, matches, lanes=None):
    """The bit-parallel LCS update of the vector ``v`` over one match set a
    step, ``u = v & M; v = (v + u) | (v - u)``: in place on an array and a
    new binding on an ``int``.  A match set has no bit at or above its
    word's length, so neither has u, and a sum carries only upward: bits
    0..n-1 stay exact with no mask.  Packed ``lanes`` are masked every
    step, since a carry past a lane's top bit would enter the next word."""
    for m in matches:
        u = m & v
        t = v - u
        v += u
        v |= t
        if lanes is not None:
            v &= lanes
    return v


def _mirror_lcs(bits, n: int, starts=None, pal: bool = True, anti: bool = True):
    """LCS state vectors of w against rev w (``vp``, if ``pal``) and
    against comp rev w (``va``, if ``anti``), as ``(vp, va)`` with
    ``None`` for a vector not asked for.

    ``bits`` is a packed word of length ``n`` (a Python ``int``) or an
    integer array of them whose lanes hold n bits: ``uint32`` for n <= 32,
    ``int64`` for n <= 63.  Bit i of each vector stands for the letter i
    places from the right end of w.  The number of clear bits is the LCS
    length, so LPS = n - popcount(vp) and LAS = n - popcount(va).  At step
    k, letter k of w from the left, the match set against rev w is
    ``bits`` where the letter is b and ``comp`` where it is a, and against
    comp rev w the other one; each vector runs ``_advance`` over its sets.
    An array builds the sets of all n steps at once, ``_SLICE`` words at a
    time, with one broadcast shift and three operations in place, and
    masks its vectors to n bits once at the end: a sum may carry out of
    bit n - 1, off the top of a ``uint32`` lane at n = 32 or into the sign
    bit of an ``int64`` lane at n = 63, and bits 0..n-1 are exact either
    way.  An ``int`` builds the same sets one step at a time.

    With ``starts``, ``bits`` is a Python ``int`` of 64-bit lanes (see
    ``_pack``), each holding one word of at most ``n`` letters in its low
    bits, and ``starts[k]`` has ones over the letters of every lane whose
    word has k + 1 letters.  Step k reads bit k of every lane, so such a
    lane joins at step k, the step of its first letter; before that its
    match sets are zero and its vectors rest at all ones.  Only these
    vectors are masked every step, to their lanes' letters.
    """
    fill = (1 << n) - 1
    if starts is None and not isinstance(bits, int):
        import numpy as np

        flat = bits.reshape(-1)
        shifts = np.arange(n - 1, -1, -1, dtype=flat.dtype)[:, None]
        vp, va = (np.full_like(flat, fill) if want else None for want in (pal, anti))
        sets = np.empty((n, min(flat.size, _SLICE)), flat.dtype)
        for lo in range(0, flat.size, _SLICE):
            b = flat[lo : lo + _SLICE]
            # row i: letter i of each word from the left, n - 1 - i from the right
            m = np.right_shift(b, shifts, out=sets[:, : b.size])
            m &= 1
            m *= fill
            m ^= b ^ fill  # against rev w: bits where the letter is b, else comp
            if pal:
                _advance(vp[lo : lo + _SLICE], m)
            if anti:
                m ^= fill  # against comp rev w: the other one
                _advance(va[lo : lo + _SLICE], m)
        for v in (vp, va):
            if v is not None:
                v &= fill
        return tuple(v if v is None else v.reshape(bits.shape) for v in (vp, va))
    packed = starts is not None
    if not packed:
        starts = {n - 1: fill}
    mask = 0
    for lanes in starts.values():
        mask |= lanes
    lanes = mask if packed else None
    ones = mask & ~(mask << 1)  # bit 0 of every lane
    comp = bits ^ mask
    pal_sets, anti_sets, live = [], [], 0
    for k in range(n - 1, -1, -1):  # letters of w from the left end
        if k in starts:  # always at k = n - 1, the longest word's start
            live |= starts[k]
            b, c = bits & live, comp & live
        # all ones across each live lane whose letter is b
        s = (bits >> k) & ones
        s *= fill
        pal_sets.append(c ^ s)
        anti_sets.append(b ^ s)
    vp = _advance(mask, pal_sets, lanes) & mask if pal else None
    va = _advance(mask, anti_sets, lanes) & mask if anti else None
    return vp, va


def _pack(
    bits: Sequence[int], lengths: Sequence[int]
) -> tuple[int, int, dict[int, int]]:
    """Packed words as lanes of one ``int`` for ``_mirror_lcs``: word k,
    of ``lengths[k]`` letters, in bits 64k .. 64k + 63, with the longest
    length and the lanes by length."""
    _check_lane(max(lengths, default=0))
    packed, starts, shift = 0, {}, 0
    for b, m in zip(bits, lengths):
        packed |= b << shift
        if m:
            starts[m - 1] = starts.get(m - 1, 0) | ((1 << m) - 1) << shift
        shift += _LANE
    return packed, max(lengths, default=0), starts


def _lane_counts(vector: int, lanes: int) -> list[int]:
    """Set bits in each 64-bit lane of ``vector``.  A popcount does not
    depend on the order of a lane's bytes, so the native-order cast is
    exact on any host."""
    lane_view = memoryview(vector.to_bytes(8 * lanes, "little")).cast("Q")
    return [x.bit_count() for x in lane_view]


def _target_deletions(
    bits: Sequence[int], lengths: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The fewest deletions that leave each packed word a palindrome
    (n - lps) and an antipalindrome (n - las): the set bits of its lane of
    each vector of one kernel pass."""
    vp, va = _mirror_lcs(*_pack(bits, lengths))
    return _lane_counts(vp, len(lengths)), _lane_counts(va, len(lengths))


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


def _witnesses(
    texts: Sequence[str], pal: Sequence[int], anti: Sequence[int]
) -> list[tuple[tuple[int, ...], bool, str]]:
    """Each word's deleted positions, target (True for a palindrome) and
    residual text, from its letters and its deletions to each target as
    ``_target_deletions`` gives them.  The word targets a palindrome iff
    ``pal <= anti`` (lps >= las); one batched interval table holds the
    table of each word's target, and each word is backtracked through its
    own table on its own text."""
    import numpy as np

    targets = [p <= a for p, a in zip(pal, anti)]
    t = memoryview(_tables(texts, np.array(targets, bool)))
    witnesses = []
    for k, (s, want_pal) in enumerate(zip(texts, targets)):
        m = len(s)
        kept = [False] * m
        i, j = 0, m - 1
        while i < j:
            if (s[i] == s[j]) == want_pal:
                kept[i] = kept[j] = True
                i += 1
                j -= 1
            elif t[k, i, j] == t[k, i, j - 1]:
                j -= 1
            else:
                i += 1
        if i == j:
            kept[i] = want_pal
        deleted = tuple(compress(range(1, m + 1), map(not_, kept)))
        residual = "".join(compress(s, kept))
        witnesses.append((deleted, want_pal, residual))
    return witnesses


def sd_witness(w: Word) -> DeletionWitness:
    """A minimal deletion set, deterministic under fixed tie-breaks.

    The witness targets a palindrome when ``sd`` gives lps >= las, else
    an antipalindrome, and backtracks through the table of that target
    only.  A pairing end pair is always kept (it is always optimal); when
    one end must go, the right end is dropped if that keeps the value.
    """
    n = len(w)
    [p], [a] = _target_deletions([w.bits], [n])
    [(deleted, want_pal, residual)] = _witnesses([str(w)], [p], [a])
    target = SymmetryClass.PALINDROME if want_pal else SymmetryClass.ANTIPALINDROME
    return DeletionWitness(
        deleted, target, parse_word(residual), SdResult(min(p, a), n - p, n - a)
    )


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
