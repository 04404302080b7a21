"""Minimal number of deletions that leave a palindrome or antipalindrome.

``sd(w)`` equals the length of ``w`` minus the length of its longest
symmetric subsequence.  The longest palindromic subsequence is
LPS(w) = LCS(w, rev w) and the longest antipalindromic one is
LAS(w) = LCS(w, comp rev w).  ``_mirror_lcs`` computes both with the
bit-parallel LCS update of Allison & Dix (IPL 1986) and Hyyrö (2004): n
steps of a few word operations each.  It is written with integer operators
only, so the same code runs on a Python ``int`` (``sd``, ``lps_length``,
``las_length``) and on an ``int64`` numpy array (``search.sd_batch``).

The classic interval recurrences over palindromic (P) and antipalindromic
(A) subsequences

    P(i, i) = 1                       A(i, i) = 0
    P(i, j) = max(P(i+1, j), P(i, j-1), [w_i == w_j] * (P(i+1, j-1) + 2))
    A(i, j) = max(A(i+1, j), A(i, j-1), [w_i != w_j] * (A(i+1, j-1) + 2))

remain in ``_tables`` for two uses: ``sd_witness`` backtracks through them
with fixed tie-breaks so the witness is reproducible, and the tests use
them as the reference for the kernel.  ``brute_force_sd`` enumerates
deletion sets outright and serves as an independent oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthBudgetExceeded
from .words import SymmetryClass, Word, parse_word

# 2^22 deletion subsets is the practical edge for the oracle.
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
    original word; ``target`` is PALINDROME or ANTIPALINDROME.
    """

    deleted_positions: tuple[int, ...]
    target: SymmetryClass
    residual: Word


def _tables(s: str) -> tuple[list[list[int]], list[list[int]]]:
    """Interval tables for palindromic and antipalindromic subsequences.

    ``pal[i][j]`` and ``anti[i][j]`` are the longest lengths inside
    ``s[i..j]``; used by ``sd_witness`` and as the kernel's test reference.
    """
    n = len(s)
    pal = [[0] * n for _ in range(n)]
    anti = [[0] * n for _ in range(n)]
    for i in range(n):
        pal[i][i] = 1
    for gap in range(1, n):
        for i in range(n - gap):
            j = i + gap
            row_i, row_i1 = pal[i], pal[i + 1]
            p_skip = row_i1[j] if row_i1[j] >= row_i[j - 1] else row_i[j - 1]
            a_row_i, a_row_i1 = anti[i], anti[i + 1]
            a_skip = a_row_i1[j] if a_row_i1[j] >= a_row_i[j - 1] else a_row_i[j - 1]
            if s[i] == s[j]:
                take = row_i1[j - 1] + 2
                row_i[j] = take if take > p_skip else p_skip
                a_row_i[j] = a_skip
            else:
                take = a_row_i1[j - 1] + 2
                a_row_i[j] = take if take > a_skip else a_skip
                row_i[j] = p_skip
    return pal, anti


def _mirror_lcs(bits, n: int):
    """LCS state vectors of w against rev w and against comp rev w.

    ``bits`` is a packed word of length ``n`` (a Python ``int``) or an
    ``int64`` array of them.  Bit i of each vector stands for the letter i
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

    The witness targets a palindrome when lps >= las, else an
    antipalindrome.  Backtracking prefers keeping a matching end pair and,
    when single drops tie, drops the right end before the left.
    """
    n = len(w)
    if n == 0:
        return DeletionWitness((), SymmetryClass.PALINDROME, w)
    s = str(w)
    pal, anti = _tables(s)
    lps, las = pal[0][n - 1], anti[0][n - 1]
    if lps >= las:
        target, table, want_pal = SymmetryClass.PALINDROME, pal, True
    else:
        target, table, want_pal = SymmetryClass.ANTIPALINDROME, anti, False

    kept: list[int] = []
    i, j = 0, n - 1
    while i <= j:
        if i == j:
            if want_pal:
                kept.append(i)
            break
        pair_ok = (s[i] == s[j]) if want_pal else (s[i] != s[j])
        inner = table[i + 1][j - 1] if i + 1 <= j - 1 else 0
        if pair_ok and table[i][j] == inner + 2:
            kept.append(i)
            kept.append(j)
            i += 1
            j -= 1
        elif table[i][j] == table[i][j - 1]:
            j -= 1
        else:
            i += 1

    kept_set = set(kept)
    deleted = tuple(p + 1 for p in range(n) if p not in kept_set)
    residual = parse_word("".join(s[p] for p in sorted(kept_set)))
    return DeletionWitness(deleted, target, residual)


def _is_symmetric_text(t: str) -> bool:
    r = t[::-1]
    return t == r or t == r.translate(_SWAP)


def _without(s: str, positions: tuple[int, ...]) -> str:
    parts = []
    prev = 0
    for p in positions:
        parts.append(s[prev:p])
        prev = p + 1
    parts.append(s[prev:])
    return "".join(parts)


def brute_force_sd(w: Word) -> int:
    """Independent oracle: enumerate deletion sets by increasing size.

    Breadth-first over deletion counts; returns the first count at which
    some deletion set leaves a palindrome or antipalindrome.  Guarded to
    ``ORACLE_MAX_LENGTH`` letters.
    """
    from itertools import combinations

    n = len(w)
    if n > ORACLE_MAX_LENGTH:
        raise LengthBudgetExceeded(
            f"oracle supports at most {ORACLE_MAX_LENGTH} letters, got {n}"
        )
    s = str(w)
    for k in range(n + 1):
        for dropped in combinations(range(n), k):
            if _is_symmetric_text(_without(s, dropped)):
                return k
    raise AssertionError("unreachable: the empty word is symmetric")
