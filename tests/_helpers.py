"""Reference implementations shared by the tests.

The brute-force helpers work on plain text so they stay independent of the
package's bit-packed representation and interval tables.
``table_lengths`` reads the interval tables, which are the reference for
the bit-parallel kernel behind ``sd`` and ``sd_batch``.
"""

import itertools

from palsym.deletions import _tables

SWAP = str.maketrans("ab", "ba")


def is_pal(t: str) -> bool:
    return t == t[::-1]


def is_anti(t: str) -> bool:
    return t == t[::-1].translate(SWAP)


def is_symmetric_text(t: str) -> bool:
    return is_pal(t) or is_anti(t)


def subsequences(s: str):
    for mask in range(1 << len(s)):
        yield "".join(c for i, c in enumerate(s) if (mask >> i) & 1)


def brute_lps(s: str) -> int:
    """Longest palindromic subsequence by full subset scan (small s only)."""
    return max(len(t) for t in subsequences(s) if is_pal(t))


def brute_las(s: str) -> int:
    """Longest antipalindromic subsequence by full subset scan."""
    return max(len(t) for t in subsequences(s) if is_anti(t))


def all_texts(n: int):
    for combo in itertools.product("ab", repeat=n):
        yield "".join(combo)


def table_lengths(s: str) -> tuple[int, int]:
    """(lps, las) of ``s`` from the interval tables."""
    if not s:
        return 0, 0
    pal, anti = _tables(s)
    return pal[0][-1], anti[0][-1]
