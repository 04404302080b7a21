"""Exhaustive search for the most asymmetric words of each length.

``sd_max(n)`` keeps one word per reversal/complement orbit, the canonical
(smallest) one; sd is constant on orbits, so the maximum is unaffected.
A canonical word never starts with b (its complement would be smaller), so
only the a-half [0, 2^(n-1)) of the packed words is scanned.

The scan is a branch and bound (Land & Doig 1960).  Row n is cut into
blocks that fix the first k and the last k letters (u, v) and let the
middle of r = n - 2k letters vary.  ``_block_bounds`` bounds sd over a
block from above by

    n - max(max over i, j of 2 LCS(u[:i], rev(v)[:j]) + ceil((n - i - j) / 2),
            2 LCS(u, comp rev v)),

the paired ends of a palindrome around the majority letter of the rest, or
the paired ends of an antipalindrome.  That is n - max(P + n // 2, L),
where the palindrome term P depends only on k and the parity of n and the
antipalindrome term L only on k.  So ``_block_terms`` builds P for both
parities and L once a process for each k, in one pass over a prefix tree,
along with the parts of a row's blocks that n does not change, and a row
makes its table from them with an add, a max, a subtraction and the -1
mask of the blocks that are not all canonical.  The terms of k take
8.4 MB at k = 11, 2.1 MB at 10, 0.53 MB at 9 and 0.18 MB for all k up to
8 together.  They stay until the process ends, except that a row that
opens a pool drops them all first, so that its forked workers do not
inherit them.

The threshold T is the exact sd of the family word of length n
(``bounds.build_word``), so the row's maximum is at least T and T needs no
lemma.  Only blocks whose bound reaches the threshold, T or more (see
below), are evaluated; every word of sd at or above it is among them, so
the maximum, its achievers and their order are those of the full scan.

A word u m v starts with u, its reversal with x = rev v and its reversed
complement with comp x (its complement starts with b), so every word of a
block is canonical when u < x < comp u, and none is when u is above x or
comp x.  Each prefix u has two tie blocks, whose middles decide: v = rev u,
canonical where m <= rev m, and v = comp rev u, where m <= comp rev m.  So
a head's canonical tie words are read from a table over its middle
(``_tie_middles``), and only those whose tie bound reaches the threshold
are built: the kernel sees only canonical words.  ``words_scanned`` counts
the canonical words of every block, evaluated or not: the number of orbits,
2^(n-2) + 2^(n // 2 - 1) (Burnside's lemma; OEIS A005418).  k depends on n
alone (``_block_letters``): min(n // 2 - 2, 11), and 0 for n <= 5, where
one tie block holds the a-half, its middle is the whole word and the table
is ``words._is_canonical``.

The a-half is cut into heads: a prefix u and a middle m, whose 2^k words
u m v share the table row of u.  A row runs its heads in ascending order, in
chunks of at most two kernel calls each, and keeps an incumbent (Land &
Doig's): the best value found, which starts at T since the family word
reaches it, and its least canonical achievers, up to ``extremal_limit`` of
them.  Each chunk is cut at the threshold in force: the incumbent's value
while its list is short, one above it once the list is full, for from then
on only a word of larger sd can change the row (a later achiever of the
same value is larger than every listed word).  The threshold only rises;
with an extremal limit of 0 the list is full from the start.  The block
tables give, at a threshold, the words each head counts (``_row_words``:
the words of its row's kept all-canonical blocks and both its tie words,
which bound those it sends to the kernel), and ``_cut`` closes a chunk once
its words reach its budget: ``_FIRST_BUDGET`` for the first chunk and four
times the one before for each later chunk, up to ``_BUDGET``, so that the
early chunks are small and the threshold rises close to where the list
fills.

A row's workers are those asked for, capped at the machine's CPUs and at
the chunks its counted words could fill.  A row runs in this process when
that leaves one worker or its counted words are below ``_POOL_WORDS``; else
on a process pool of that many workers, which the row opens and shuts down
itself, and to which it submits its chunks in order with at most two a
worker in flight.  A chunk cut before the threshold rose evaluates a
superset of the words the new threshold keeps, so its result still holds.  A
chunk is sent its threshold and the block table rows of its heads, builds
the words of its kept blocks and runs the bit-parallel LCS kernel of
``deletions`` on them in two calls: the palindrome vector on all of them,
and the antipalindrome vector on those whose deletions to a palindrome
reach the threshold, since sd is the smaller of the two counts.  A chunk
none of whose words reaches its threshold returns -1, which no merge keeps.
The parent merges chunk results in chunk order and prints progress after
each, so the row is identical for any worker count; only the words
evaluated and the chunks they were cut into can differ.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .bounds import (
    VALID_PAIRS,
    ConstructionParams,
    build_word,
    lower_bound,
    upper_bound,
)
from .deletions import MAX_LENGTH, _mirror_lcs, sd
from .errors import LengthBudgetExceeded
from .words import Word, _is_canonical, _reverse_bits

# Row 32 takes 1.8 to 2.2 s on two cores (`table --from 32 --to 32 --jobs
# 2` as a process on a 2-vCPU Xeon VM loaded by other tenants, 5 runs,
# median 1.95 s); each row below it takes less.
MAX_SEARCH_LENGTH = 32

# Counted kernel words that close a row's first chunk, and the most that
# close any later chunk, whose budget is four times the one before.  Whole
# `table --from 29 --to 32 --jobs 2` processes, medians of 5 alternating
# runs: a first chunk of 2^11, 2^12, 2^13 and 2^14 words took 3.79, 3.71,
# 3.88 and 4.16 s (cap 2^16), and in another sweep a cap of 2^15, 2^16 and
# 2^17 took 4.80, 4.48 and 4.94 s (first chunk 2^12).  Rows 25..28 (medians
# of 7) and warm compute_table(1, 22) (medians of 61) moved by less than
# their spread with either; 2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6.
_FIRST_BUDGET = 1 << 12
_BUDGET = 1 << 16

# Counted kernel words from which a row goes to a process pool, when two or
# more workers remain after the chunk and CPU caps.  sd_max on one worker
# against its own 2-worker pool (2-vCPU Xeon VM, medians of 7 to 11 fresh
# processes): row 22 (186 k words) 0.040 against 0.069 s, row 23 (210 k)
# 0.042 against 0.058 s, row 25 (316 k) 0.084 against 0.080 s and row 26
# (779 k) 0.24 against 0.19 s; starting and stopping the pool takes about
# 12 ms of that.
_POOL_WORDS = 1 << 18

# Chunks a pooled row keeps in flight for each worker.  A chunk cut before
# the threshold rises runs at the old one, so a wider window evaluates more
# words, but one chunk a worker leaves a worker idle while the parent waits
# on an older chunk.  Whole `table --from 29 --to 32 --jobs 2` processes,
# medians of 7 alternating runs: a window of 1, 2 and 3 chunks a worker took
# 4.93, 4.08 and 3.77 s (1 against 2 in one sweep, 2 against 3 in another,
# where 2 took 3.95 s), and in a third sweep 2, 3 and 4 took 3.79, 3.68 and
# 3.59 s, within the 0.4 s between the quartiles of 2; rows 25..28 (medians
# of 9) took 0.72, 0.76, 0.77 and 0.76 s with 1 to 4.  2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6.
_WINDOW = 2

# Cells of a bound table level that ``_gather`` takes at once.  Taking
# row 32's 2^21-cell top level whole copies 16 MB of indices: ``_blocks(32)``
# alone in a process peaked at 64.4 MB, against 47.1 MB in pieces and
# 46.9 MB with plain indexing.
_TAKE = 1 << 15


def __getattr__(name: str):
    # The pool class is read as ``search.ProcessPoolExecutor`` when a pool
    # opens, so that tests and tracers can replace it; the pool machinery
    # (multiprocessing) is imported on that first read.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sd_batch(words, n: int) -> np.ndarray:
    """Vectorized sd over same-length words given as packed integers.

    Runs the bit-parallel kernel of ``deletions.sd`` across the whole batch
    at once, one lane per word: ``uint32`` lanes for n <= 32, which run
    about twice as fast, and ``int64`` lanes up to 63 letters.  Raises
    ``ValueError`` for n outside 0..63, a word outside [0, 2^n) or a word
    that is not an integer, which a cast would truncate or parse.
    """
    if not 0 <= n <= MAX_LENGTH:
        raise ValueError(f"n must be in 0..{MAX_LENGTH}, got {n}")
    out_of_range = f"every word of length {n} must be in [0, 2^{n})"
    arr = np.asarray(words)
    # an empty list comes as float64, a Python int of 64 bits or more as object
    integral = (int, np.integer)
    if not (arr.dtype.kind in "iu" or all(isinstance(x, integral) for x in arr.flat)):
        raise ValueError(f"{out_of_range} as an integer, not {arr.dtype}")
    try:
        arr = np.ascontiguousarray(arr, dtype=np.int64)
    except OverflowError:  # a Python int of 64 bits or more
        raise ValueError(out_of_range) from None
    # checked before the narrowing cast, which would wrap a word silently
    if arr.size and (arr.min() < 0 or arr.max() >> n):
        raise ValueError(out_of_range)
    vp, va = _mirror_lcs(arr.astype(np.uint32) if n <= 32 else arr, n)
    return np.minimum(np.bitwise_count(vp), np.bitwise_count(va)).astype(np.int64)


def _block_letters(n: int) -> int:
    """Letters k fixed at each end of a block of row n.

    min(n // 2 - 2, 11), the fastest of the sizes measured on rows 16..28:
    it leaves a middle of at least 4 letters and caps the bound table at
    2^21 blocks.  The terms of k = 11 (``_block_terms``) take 8.4 MB and
    20 to 40 ms to build, and a row's table 2 MB and about 0.7 ms to make
    from them.  0 for n <= 5.
    """
    return max(0, min(n // 2 - 2, 11))


def _threshold(n: int) -> int:
    """sd of the family word of length n, a value the row reaches; 0 for
    n < 3, where every word has sd 0."""
    if n < 3:
        return 0
    p, s = divmod(n - 3, 7)
    alpha, beta = next(pair for pair in VALID_PAIRS if sum(pair) == s)
    return sd(build_word(ConstructionParams(p, alpha, beta))).value


def _next_level(v: np.ndarray, match: np.ndarray, mask: int) -> np.ndarray:
    """The LCS vectors ``v`` of a level of prefixes, each against every x,
    one letter on, where ``match`` holds the positions of x that hold each
    letter: the bit-parallel update of ``_mirror_lcs``, one row for each
    prefix and letter.  It is made in place in one new array, and no other
    array of the level's size outlives the call."""
    t = v & match
    s = v - t
    t += v
    t |= s
    t &= mask
    return t


def _mapped(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An empty array in an anonymous memory map of its own, which goes
    back to the system when the array is freed.  The allocator keeps
    freed blocks of a few MB for reuse instead, and a pool's forked
    workers inherit them with the parent's other pages.  Where the system
    can (Linux), the map's pages are made in one call instead of one fault
    each: 8 MB took 3.5 against 8.2 ms to make and fill."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if hasattr(mmap, "MAP_POPULATE"):
        memory = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)
    else:
        memory = mmap.mmap(-1, size)
    return np.frombuffer(memory, dtype).reshape(shape)


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` in a new mapped array (``_mapped``), taken
    ``_TAKE`` cells at a time: ``np.take`` runs about 2.5 times as fast as
    indexing the int16 pair table by int16 cells (0.15 against 0.38 ms on
    row 22's 2^17-cell top level), but first copies its indices as intp,
    eight bytes a cell.  Every index is in the table, so clipping changes
    none, and unlike the default mode it writes straight to ``out``."""
    out = _mapped(index.shape, table.dtype)
    cells, flat = index.reshape(-1), out.reshape(-1)
    for lo in range(0, cells.size, _TAKE):
        np.take(table, cells[lo : lo + _TAKE], out=flat[lo : lo + _TAKE], mode="clip")
    return out


class _Terms(NamedTuple):
    """The parts of the blocks of k letters that no row's length changes.

    A block's bound (``_block_bounds``) is n - max(P + n // 2, L): ``pal``
    holds P for each parity of n and ``anti`` holds L, both indexed by the
    packed prefix u (a-prefixed) and the packed suffix v.  ``masked`` is -1
    on the blocks that are not all canonical and 0 elsewhere, so that OR-ing
    it into a row's table sets their bounds to -1, and ``all_canonical``
    counts each prefix's other blocks.  ``suffixes`` holds each prefix's
    tie suffixes (``_tie_suffixes``), and ``tie_pal`` and ``tie_anti`` the
    terms of its tie blocks.  Every array is read-only.
    """

    pal: np.ndarray
    anti: np.ndarray
    masked: np.ndarray
    all_canonical: np.ndarray
    suffixes: np.ndarray
    tie_pal: np.ndarray
    tie_anti: np.ndarray


def _prefix_terms(k: int) -> tuple[np.ndarray, np.ndarray]:
    """P for both parities of n and L, the terms of the blocks of k letters,
    in one pass over a prefix tree, each in a mapped array (``_mapped``).

    Any middle m gives u m v a palindromic subsequence of
    2 LCS(u[:i], x[:j]) + ceil((n - i - j) / 2) letters for every i, j,
    with x = rev v: the matched ends around the majority letter of the
    rest.  With n = 2h + p, that is h plus 2 LCS(u[:i], x[:j]) +
    (p + 1 - i - j) // 2, whose maximum over i and j is P.  The LCS rows
    come from the bit-parallel update of ``_mirror_lcs`` against every x
    at once (bit j of x is bit j of v), one letter of u per level of a
    prefix tree, so each prefix is updated once.  A row's best j depends
    only on its LCS vector and the parity of p - i, and both parities'
    terms are read in one gather from a table of int8 pairs over the 2^k
    vectors.  u m v also has an antipalindromic subsequence of
    L = 2 LCS(u, comp x) letters, and the LCS vector of u against comp x
    is that against x read at x ^ mask: the last level read backwards.
    """
    mask = (1 << k) - 1
    v = np.arange(1 << k, dtype=np.int16)
    # best_j[e][V]: max over j of 2 LCS(., x[:j]) + (e + 1 - j) // 2 for
    # the LCS vector V; with e = (p - i) % 2, adding (p - i) // 2 gives
    # the term of row i of P
    lcs = np.zeros(1 << k, np.int8)
    best_j = [np.full(1 << k, (e + 1) // 2, np.int8) for e in (0, 1)]
    for j in range(1, k + 1):
        lcs += 1 - ((v >> (j - 1)) & 1).astype(np.int8)
        for e in (0, 1):
            np.maximum(best_j[e], 2 * lcs + (e + 1 - j) // 2, out=best_j[e])
    # match[c]: the positions of x holding letter c
    match = np.stack([~v & mask, v])[None]
    vp = np.full((1, 1, v.size), mask, np.int16)
    # the empty prefix's terms, (p - 0) // 2 + best_j[p][mask], for p = 0, 1
    best = np.arange(2, dtype=np.int8).reshape(1, 1, 1, 2)
    for i in range(1, k + 1):
        # prefixes of i letters, each its parent's row and a last letter;
        # every prefix starts with a
        vp = _next_level(vp, match[:, :1] if i == 1 else match, mask)
        # the terms of row i for p = 0 and 1 side by side, one int16 a vector
        pairs = np.stack([best_j[(p - i) % 2] + (p - i) // 2 for p in (0, 1)], axis=1)
        row = _gather(pairs.view(np.int16)[:, 0], vp).view(np.int8)
        row = row.reshape(*vp.shape, 2)
        best = np.maximum(best, row, out=row)
        vp, best = vp.reshape(-1, 1, v.size), best.reshape(-1, 1, v.size, 2)
    shape = (1 << max(k - 1, 0), v.size)
    # made after the levels: their pages are made at once (``_mapped``),
    # and made first they lifted row 32's peak from 41 to 50 MB
    anti = _mapped(shape, np.int8)
    np.bitwise_count(vp[:, 0, ::-1], out=anti)
    np.multiply(anti, -2, out=anti)
    anti += 2 * k
    del vp  # before pal, which would otherwise raise the peak
    pal = _mapped((2, *shape), np.int8)
    np.copyto(pal, np.moveaxis(best.reshape(*shape, 2), -1, 0))
    return pal, anti


@cache
def _block_terms(k: int) -> _Terms:
    """The terms of the blocks of k letters (``_prefix_terms``) and the rest
    of their blocks that no row's length changes, built once a process for
    each k; a row that opens a pool drops them first."""
    # the large arrays are mapped, like the gathered levels, so that what
    # they and the levels free goes back to the system: with the
    # allocator's memory for both, `table --from 26 --to 32 --jobs 2`
    # opened the pools of rows 27..32 at 51.6 MB instead of 43.7 MB, and
    # with it for the levels alone, row 26's at 38.5 MB instead of 35.1 MB
    pal, anti = _prefix_terms(k)
    masked = _mapped(anti.shape, np.int8)
    u = np.arange(anti.shape[0], dtype=np.int64)
    # every word u m v is canonical where u < x < comp u, x = rev v, that
    # is where u < min(x, comp x); int16 holds both and compares faster
    x = _reverse_bits(np.arange(1 << k, dtype=np.int64), k)
    low = np.minimum(x, x ^ ((1 << k) - 1)).astype(np.int16)
    np.greater_equal(u.astype(np.int16)[:, None], low, out=masked)
    np.negative(masked, out=masked)
    suffixes = _tie_suffixes(u, k)
    terms = _Terms(
        pal,
        anti,
        masked,
        anti.shape[1] - np.count_nonzero(masked, axis=1),
        suffixes,
        np.take_along_axis(pal, suffixes[None], axis=2),
        np.take_along_axis(anti, suffixes, axis=1),
    )
    for array in terms:
        array.flags.writeable = False
    return terms


def _bound(pal: np.ndarray, anti: np.ndarray, n: int) -> np.ndarray:
    """n - max(pal + n // 2, anti), cell by cell, in one new int8 array."""
    out = np.add(pal, n // 2)
    np.maximum(out, anti, out=out)
    return np.subtract(n, out, out=out)


def _block_bounds(n: int, k: int) -> np.ndarray:
    """Upper bound on sd over each block of row n: a new int8 array indexed
    by the packed prefix u (a-prefixed) and the packed suffix v, made from
    the terms of k (``_block_terms``) as n - max(P + n // 2, L), where P
    is the palindrome term of n's parity and L the antipalindrome term."""
    terms = _block_terms(k)
    return _bound(terms.pal[n % 2], terms.anti, n)


class _Blocks(NamedTuple):
    """Row n cut into blocks: the first and last k letters fixed.

    ``bounds[u - first, v]`` bounds the sd of the words u m v from above
    where all of them are canonical, and is -1, which no threshold keeps,
    elsewhere, and ``all_canonical[u - first]`` counts the blocks of u
    with a bound, one canonical word each for every head of u.
    ``suffixes[u - first]`` holds the suffixes of u's tie blocks
    (``_tie_suffixes``) and ``ties[u - first]`` their bounds, and
    ``middles[m]`` says for each of them whether its words u m v are
    canonical.  A block is evaluated at a threshold its bound reaches.
    """

    k: int
    bounds: np.ndarray
    all_canonical: np.ndarray
    suffixes: np.ndarray
    ties: np.ndarray
    middles: np.ndarray
    first: int = 0

    def rows(self, n: int, heads: range) -> _Blocks:
        """The rows that ``heads`` read, a chunk's share."""
        shift = n - self.k
        rows = slice(heads[0] >> shift, (heads[-1] >> shift) + 1)
        return self._replace(
            bounds=self.bounds[rows],
            all_canonical=self.all_canonical[rows],
            suffixes=self.suffixes[rows],
            ties=self.ties[rows],
            first=rows.start,
        )


def _tie_suffixes(prefixes: np.ndarray, k: int) -> np.ndarray:
    """The suffixes of each prefix u's tie blocks, one row a prefix:
    v = rev u, whose words u m v are canonical where m <= rev m, and
    v = comp rev u, where m <= comp rev m; at k = 0 the empty suffix."""
    rev = _reverse_bits(prefixes, k)
    return np.stack((rev, rev ^ ((1 << k) - 1)), axis=1)[:, : 1 + (k > 0)]


@cache
def _tie_middles(n: int, k: int) -> np.ndarray:
    """Whether the words u m v of each tie block of row n are canonical,
    one row a middle m of n - 2k letters, in the order of ``_tie_suffixes``:
    m <= rev m, and m <= comp rev m; at k = 0, where m is the whole word,
    the canonical test.  Built once a process for each row, read-only."""
    r = n - 2 * k
    m = np.arange(1 << r, dtype=np.int64)
    if not k:
        middles = _is_canonical(m, n)[:, None]
    else:
        rev = _reverse_bits(m, r)
        middles = np.stack((m <= rev, m <= rev ^ ((1 << r) - 1)), axis=1)
    middles.flags.writeable = False
    return middles


def _blocks(n: int) -> _Blocks:
    """The blocks of row n, the bound tables new and the rest shared with
    every row of its k."""
    k = _block_letters(n)
    terms = _block_terms(k)
    bounds = _block_bounds(n, k)
    bounds |= terms.masked
    ties = _bound(terms.tie_pal[n % 2], terms.tie_anti, n)
    return _Blocks(
        k, bounds, terms.all_canonical, terms.suffixes, ties, _tie_middles(n, k)
    )


def _spread(heads: np.ndarray, rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``head | v`` for each head and each suffix v that ``mask`` marks in
    the head's row, in ascending order."""
    per_row = np.count_nonzero(mask, axis=1)
    counts = per_row[rows]
    _, cols = np.nonzero(mask)  # row by row, each row ascending
    # word j of a head takes the v at j + (its row's first v in cols - the
    # head's first word)
    shift = (np.cumsum(per_row) - per_row)[rows] - (np.cumsum(counts) - counts)
    index = np.arange(counts.sum())
    index += np.repeat(shift, counts)
    words = cols[index]
    words |= np.repeat(heads, counts)
    return words


def _heads(n: int, k: int) -> range:
    """The heads of row n in ascending order, each a prefix and a middle
    (v = 0): the a-half [0, 2^(n-1)) in steps of 2^k words."""
    return range(0, 1 << (n - 1), 1 << k)


def _row_words(blocks: _Blocks, threshold: int) -> np.ndarray:
    """The words one head of each table row counts at ``threshold``: every
    word of the row's all-canonical blocks whose bound reaches it, and both
    of its tie words; these bound the words the head sends to the kernel.
    A tie word counts whether or not it is canonical or built, which caps
    a chunk's heads once few blocks are kept: row 31's chunks above its
    threshold spanned up to 197 k heads without the tie words, and a
    worker's peak RSS rose from 33 to 54 MB.  The row's heads share one
    table row 2^(n - 2k) at a time."""
    return np.count_nonzero(blocks.bounds >= threshold, axis=1) + blocks.ties.shape[1]


def _budget(chunk: int) -> int:
    """The counted words that close a row's chunk of index ``chunk``."""
    return min(_FIRST_BUDGET << 2 * chunk, _BUDGET)


def _totals(row_words: np.ndarray, span: int) -> np.ndarray:
    """The counted words of a row's heads before each table row, and of all
    of them last, where ``row_words`` gives one head's words for each table
    row, which ``span`` heads in a row share."""
    total = np.zeros(row_words.size + 1, np.int64)
    np.cumsum(row_words * span, out=total[1:])
    return total


def _cut(total: np.ndarray, span: int, start: int, budget: int) -> int:
    """The end of the chunk that starts at head ``start``: the first head
    that brings the chunk's counted words to ``budget``, or the row's last
    head.  ``total`` gives the words before each table row (``_totals``),
    whose ``span`` heads count the same words each."""
    row, col = divmod(start, span)
    target = total[row] + col * ((total[row + 1] - total[row]) // span) + budget
    # the chunk ends in the first table row whose words reach the target
    row = int(np.searchsorted(total, target)) - 1
    if row == total.size - 1:
        return row * span
    words = (total[row + 1] - total[row]) // span  # one head's, nonzero here
    return row * span + int(-(-(target - total[row]) // words))


def _most_chunks(counted: int) -> int:
    """The most chunks a row of ``counted`` words can be cut into: every
    chunk but the last holds at least its budget, at any threshold."""
    chunks = filled = 0
    while filled + _budget(chunks) <= counted:
        filled += _budget(chunks)
        chunks += 1
    return chunks + 1


def _scan_chunk(
    n: int, limit: int, threshold: int, heads: range, blocks: _Blocks
) -> tuple[int, list[int], int, int]:
    """Scan the words of ``heads``: the best sd evaluated if it reaches
    ``threshold`` (else -1), up to ``limit`` of its canonical achievers in
    ascending order, the number of canonical words and the number
    evaluated.

    The words are the heads joined to each suffix v.  Each head's canonical
    tie words are counted from its middle (``_Blocks.middles``); those
    whose tie bound reaches ``threshold`` are built and join the words of
    the all-canonical blocks whose bound reaches it, so every word
    evaluated is canonical.  The kernel runs the palindrome vector on all
    of them and the antipalindrome vector only on those whose deletions to
    a palindrome reach ``threshold``, since sd is the smaller of the two
    counts; a chunk with no words makes no kernel call.
    """
    k, middles = blocks.k, blocks.middles
    heads = np.arange(heads.start, heads.stop, heads.step, dtype=np.int64)
    rows = (heads >> (n - k)) - blocks.first
    canonical = middles[(heads >> k) & (len(middles) - 1)]
    count = blocks.all_canonical[rows].sum() + canonical.sum()
    head, tie = np.nonzero(canonical & (blocks.ties[rows] >= threshold))
    words = np.concatenate((
        _spread(heads, rows, blocks.bounds >= threshold),
        heads[head] | blocks.suffixes[rows[head], tie],
    ))
    best, hits = -1, []
    if words.size:
        lanes = words.astype(np.uint32) if n <= 32 else words
        pal = np.bitwise_count(_mirror_lcs(lanes, n, anti=False)[0])
        near = np.flatnonzero(pal >= threshold)
        if near.size:
            anti = np.bitwise_count(_mirror_lcs(lanes[near], n, pal=False)[1])
            values = np.minimum(pal[near], anti)
            best = int(values.max())
            hits = np.sort(words[near[values == best]])[:limit].tolist()
    if best < threshold:
        best, hits = -1, []
    return best, hits, int(count), words.size


@dataclass
class SearchConfig:
    """Knobs for the exhaustive scan.

    A row's maximum and ``words_scanned`` are the same for any setting.
    ``extremal_limit`` caps how many extremal words the row keeps (the
    least ones, in ascending order); for a given limit they are the same
    for any worker count or progress interval.
    """

    worker_count: int = field(default_factory=lambda: os.cpu_count() or 1)
    extremal_limit: int = 8
    progress_interval: float | None = None

    def __post_init__(self) -> None:
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.extremal_limit < 0:
            raise ValueError("extremal_limit must be >= 0")
        interval = self.progress_interval
        if interval is not None and not 0 <= interval < math.inf:
            raise ValueError(
                f"progress_interval must be finite and >= 0, got {interval}"
            )


@dataclass(frozen=True)
class SdTableRow:
    """Exact maximum sd at length n with bounds and sample extremal words.

    The fields after ``words_scanned`` say how the scan ran:
    ``words_evaluated`` counts the words sent to the kernel, and
    ``blocks_pruned`` the blocks holding canonical words that the bound
    skipped in every head: those below the threshold in force when the
    chunk holding their prefix's first head was cut (the threshold only
    rises along a row, so no later head evaluates them).  ``chunks`` and
    ``pooled`` say how the row was dispatched.
    """

    n: int
    sd: int
    lower: int
    upper: int
    extremal: tuple[Word, ...]
    words_scanned: int
    # How the scan ran, not what it found: rows compare equal without them.
    elapsed_s: float = field(default=0.0, compare=False)
    words_evaluated: int = field(default=0, compare=False)
    blocks_pruned: int = field(default=0, compare=False)
    chunks: int = field(default=0, compare=False)
    pooled: bool = field(default=False, compare=False)


class TableMismatch(NamedTuple):
    n: int
    computed: int
    expected: int


def sd_max(n: int, config: SearchConfig | None = None) -> SdTableRow:
    """Exact maximum of sd over all 2^n words of length n.

    Only canonical orbit representatives in blocks whose bound reaches the
    threshold are evaluated, and only the a-half [0, 2^(n-1)) is scanned,
    since every canonical word starts with a; ``extremal`` holds the least
    canonical achievers.

    The scan runs over the row's heads in ascending order, in chunks of at
    most two kernel calls each, cut at the threshold in force (``_cut``): the
    incumbent value, which starts at T, or one above it once the incumbent
    holds ``extremal_limit`` achievers.  The workers asked for are capped
    at the machine's CPUs and at the chunks the row's counted words could
    fill.  The row runs in this process when that leaves one worker or its
    counted words are below ``_POOL_WORDS``; else on a process pool of that
    many workers, opened for this row and shut down before it returns,
    with at most two chunks a worker in flight.  Results are merged one
    per chunk in chunk order, so the row, including the extremal words and
    their order, is the same for any worker count;
    ``config.progress_interval`` prints scan totals and the incumbent value
    to stderr, checked after each chunk.  ``words_evaluated``,
    ``blocks_pruned``, ``chunks`` and ``pooled`` say how the row ran (see
    ``SdTableRow``); a pooled row cuts the chunks in flight when the
    threshold rises at the old one, so they can differ between worker
    counts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_SEARCH_LENGTH:
        raise LengthBudgetExceeded(
            f"n = {n} beyond the search guard {MAX_SEARCH_LENGTH}"
        )
    config = config if config is not None else SearchConfig()
    limit = config.extremal_limit
    began = time.perf_counter()

    blocks = _blocks(n)
    heads = _heads(n, blocks.k)
    span = len(heads) // blocks.bounds.shape[0]  # heads per table row
    task = partial(_scan_chunk, n, limit)
    # the incumbent: the family word reaches T, and no achiever is listed
    best, merged = _threshold(n), []
    threshold = best + (limit == 0)
    total = _totals(_row_words(blocks, threshold), span)
    counted = int(total[-1])
    # fork starts every worker at the first submit, so the pool has no more
    # workers than the machine has CPUs or the row's counted words at T can
    # fill chunks; one worker gains nothing from a pool.  The chunk cap is a
    # bound: a row whose threshold rises cuts fewer (rows 26, 27 and 28 cut
    # 5, 7 and 24 chunks in process against caps of 15, 18 and 52), so with
    # more CPUs than chunks some workers get none.
    workers = min(config.worker_count, _most_chunks(counted), os.cpu_count() or 1)
    pooled = workers > 1 and counted >= _POOL_WORDS
    window = _WINDOW * workers if pooled else 1

    start = chunks = scanned = evaluated = pruned = 0
    pending = deque()  # each chunk in flight, as a call that returns its result
    last_report = time.monotonic()
    if pooled:
        # the pool's workers would inherit the cached terms, 8 MB at k = 11
        _block_terms.cache_clear()
    # the class is read through the module (see ``__getattr__``)
    pool = (
        sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
        if pooled
        else nullcontext()
    )
    with pool:
        while start < len(heads) or pending:
            while start < len(heads) and len(pending) < window:
                stop = _cut(total, span, start, _budget(chunks))
                chunk = heads[start:stop]
                args = (threshold, chunk, blocks.rows(n, chunk))
                pending.append(
                    pool.submit(task, *args).result if pooled else partial(task, *args)
                )
                # the blocks of the prefixes whose first head is in the chunk
                first = slice(-(-start // span), -(-stop // span))
                bounds, ties = blocks.bounds[first], blocks.ties[first]
                pruned += np.count_nonzero((bounds >= 0) & (bounds < threshold))
                pruned += np.count_nonzero(ties < threshold)
                start, chunks = stop, chunks + 1
            chunk_best, hits, canonical, count = pending.popleft()()
            scanned += canonical
            evaluated += count
            if chunk_best > best:
                best, merged = chunk_best, []
            if chunk_best == best:
                merged.extend(hits[: limit - len(merged)])
            if best + (len(merged) == limit) > threshold:
                threshold = best + (len(merged) == limit)
                total = _totals(_row_words(blocks, threshold), span)
            if config.progress_interval is not None:
                now = time.monotonic()
                if now - last_report >= config.progress_interval:
                    print(
                        f"n={n}: scanned {scanned} words, current max {best}",
                        file=sys.stderr,
                    )
                    last_report = now

    return SdTableRow(
        n=n,
        sd=best,
        lower=lower_bound(n) if n >= 2 else 0,
        upper=upper_bound(n),
        extremal=tuple(Word(n, bits) for bits in merged),
        words_scanned=scanned,
        elapsed_s=time.perf_counter() - began,
        words_evaluated=evaluated,
        blocks_pruned=int(pruned),
        chunks=chunks,
        pooled=pooled,
    )


def compute_table(
    n_min: int,
    n_max: int,
    config: SearchConfig | None = None,
) -> list[SdTableRow]:
    """Rows of the exact maximum-sd table for n_min..n_max inclusive, one
    ``sd_max`` call per row, after the whole range is checked; each row
    decides for itself whether it runs on a pool."""
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"bad range {n_min}..{n_max}")
    if n_max > MAX_SEARCH_LENGTH:
        raise LengthBudgetExceeded(
            f"n = {n_max} beyond the search guard {MAX_SEARCH_LENGTH}"
        )
    return [sd_max(n, config) for n in range(n_min, n_max + 1)]


# Independently recomputed reference values for n <= 20; the scan must
# reproduce them exactly.
KNOWN_MAX_SD = {
    1: 0,
    2: 0,
    3: 1,
    4: 1,
    5: 1,
    6: 2,
    7: 2,
    8: 2,
    9: 3,
    10: 4,
    11: 4,
    12: 4,
    13: 5,
    14: 5,
    15: 5,
    16: 6,
    17: 7,
    18: 7,
    19: 7,
    20: 8,
}


def compare_with_known(rows: list[SdTableRow]) -> list[TableMismatch]:
    """Mismatches between computed rows and the reference table.

    Rows outside the reference range are ignored; an empty list means
    every comparable row agrees.
    """
    out = []
    for row in rows:
        expected = KNOWN_MAX_SD.get(row.n)
        if expected is not None and row.sd != expected:
            out.append(TableMismatch(row.n, row.sd, expected))
    return out


CSV_HEADER = "n,sd,lower,upper,extremal"


def row_to_json(row: SdTableRow) -> str:
    return json.dumps(
        {
            "n": row.n,
            "sd": row.sd,
            "lower": row.lower,
            "upper": row.upper,
            "extremal": [str(w) for w in row.extremal],
        }
    )


def row_to_csv(row: SdTableRow) -> str:
    words = ";".join(str(w) for w in row.extremal)
    return f"{row.n},{row.sd},{row.lower},{row.upper},{words}"
