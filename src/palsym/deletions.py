"""Minimal number of deletions that leave a palindrome or antipalindrome.

``sd(w)`` equals the length of ``w`` minus the length of its longest
symmetric subsequence.  The longest palindromic subsequence is
LPS(w) = LCS(w, rev w) and the longest antipalindromic one is
LAS(w) = LCS(w, comp rev w).  ``_mirror_lcs`` computes both with the
bit-parallel LCS update of Allison & Dix (IPL 1986) and Hyyrö (2004): n
steps of a few word operations each.  It is written with integer operators
only, so the same code runs on a Python ``int`` (``sd``, ``lps_length``,
``las_length``) and on a numpy array of packed words (``search.sd_batch``:
``uint32`` lanes up to 32 letters, ``int64`` lanes above).

The classic interval recurrence for the longest palindromic (P) or
antipalindromic (A) subsequence of w_i..w_j is

    T(i, j) = T(i+1, j-1) + 2                if the end pair counts,
    T(i, j) = max(T(i+1, j), T(i, j-1))      otherwise,

with P(i, i) = 1 and A(i, i) = 0.  An end pair counts for P when
w_i == w_j and for A when w_i != w_j; keeping such a pair is always
optimal.  ``_table`` fills T for either target and has two uses:
``sd_witness`` builds the table of its target alone and backtracks through
it with fixed tie-breaks so the witness is reproducible, and the tests use
both tables as the reference for the kernel.  ``brute_force_sd`` serves
as an independent oracle for both: with no DP, it walks the distinct
subsequences of w level by level, each level one letter shorter, until a
level holds a palindrome or an antipalindrome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthBudgetExceeded
from .words import SymmetryClass, Word, parse_word

# The oracle's length guard, and so the top of `verify --suite oracle
# --max-n`, whose range stays 1..22.  At 22 letters the walk takes about
# 10 ms on a word of maximum sd and 0.36 s over 200 random words (2-vCPU
# Xeon VM, Python 3.11.7).
ORACLE_MAX_LENGTH = 22

_SWAP = str.maketrans("ab", "ba")


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


def _table(s: str, pal: bool) -> list[list[int]]:
    """Interval table of palindromic (``pal``) or antipalindromic lengths.

    ``t[i][j]`` is the longest such subsequence inside ``s[i..j]``; used by
    ``sd_witness`` and as the kernel's test reference.  Rows fill from the
    right end, and an end pair counts when ``mirror[j] == s[i]``.
    """
    n = len(s)
    mirror = s if pal else s.translate(_SWAP)
    t = [[0] * n for _ in range(n)]
    below_row: list[int] = []  # row i + 1; the last row reads none of it
    for i in range(n - 1, -1, -1):
        row, c = t[i], s[i]
        prev = row[i] = 1 if pal else 0
        diag = 0
        for j in range(i + 1, n):
            below = below_row[j]
            if mirror[j] == c:
                prev = diag + 2
            elif below > prev:
                prev = below
            row[j] = prev
            diag = below
        below_row = row
    return t


def _mirror_lcs(bits, n: int):
    """LCS state vectors of w against rev w and against comp rev w.

    ``bits`` is a packed word of length ``n`` (a Python ``int``) or an
    integer array of them whose lanes hold n bits: ``uint32`` for n <= 32,
    ``int64`` for n <= 63.  A sum ``vp + u`` may carry out of bit n - 1: off
    the top of a ``uint32`` lane at n = 32, where it is lost, or into the
    sign bit of an ``int64`` lane at n = 63, which the mask clears; bits
    0..n-1 are exact either way.  Bit i of each vector stands for the letter i
    places from the right end of w.  The number of clear bits is the LCS
    length, so LPS = n - popcount(vp) and LAS = n - popcount(va).
    """
    mask = (1 << n) - 1
    comp = bits ^ mask
    vp = va = bits | comp  # all ones, with the type and shape of bits
    for k in range(n - 1, -1, -1):  # letters of w from the left end
        sel = -((bits >> k) & 1)
        # positions of w equal to this letter; their complement is the
        # match set against comp rev w
        match = (bits & sel) | (comp & ~sel)
        u = vp & match
        vp = ((vp + u) | (vp - u)) & mask
        u = va & (match ^ mask)
        va = ((va + u) | (va - u)) & mask
    return vp, va


def lps_length(w: Word) -> int:
    """Length of the longest palindromic subsequence."""
    vp, _ = _mirror_lcs(w.bits, len(w))
    return len(w) - vp.bit_count()


def las_length(w: Word) -> int:
    """Length of the longest antipalindromic subsequence; always even."""
    _, va = _mirror_lcs(w.bits, len(w))
    return len(w) - va.bit_count()


def sd(w: Word) -> SdResult:
    """Minimal deletions taking ``w`` to a palindrome or antipalindrome."""
    n = len(w)
    vp, va = _mirror_lcs(w.bits, n)
    lps, las = n - vp.bit_count(), n - va.bit_count()
    return SdResult(n - max(lps, las), lps, las)


def sd_witness(w: Word) -> DeletionWitness:
    """A minimal deletion set, deterministic under fixed tie-breaks.

    The witness targets a palindrome when ``sd`` gives lps >= las, else
    an antipalindrome, and backtracks through the table of that target
    only.  A pairing end pair is always kept (it is always optimal); when
    one end must go, the right end is dropped if that keeps the value.
    """
    n = len(w)
    result = sd(w)
    want_pal = result.lps >= result.las
    s = str(w)
    t = _table(s, want_pal)

    kept: list[int] = []
    i, j = 0, n - 1
    while i < j:
        if (s[i] == s[j]) == want_pal:
            kept += (i, j)
            i += 1
            j -= 1
        elif t[i][j] == t[i][j - 1]:
            j -= 1
        else:
            i += 1
    if i == j and want_pal:
        kept.append(i)

    kept.sort()
    kept_set = set(kept)
    deleted = tuple(p + 1 for p in range(n) if p not in kept_set)
    residual = parse_word("".join(s[p] for p in kept))
    pal, anti = SymmetryClass.PALINDROME, SymmetryClass.ANTIPALINDROME
    return DeletionWitness(deleted, pal if want_pal else anti, residual, result)


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
