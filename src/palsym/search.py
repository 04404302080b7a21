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
the paired ends of an antipalindrome.  The threshold T is the exact sd of
the family word of length n (``bounds.build_word``), so the row's maximum
is at least T and T needs no lemma.  Only blocks whose bound reaches the
threshold, T or more (see below), are evaluated; every word of sd at or
above it is among them, so the maximum, its achievers and their order are
those of the full scan.

Each block also has a class, from comparing u with rev v and comp rev v:
none of its words is canonical (u above either), all are (u below both),
or some are (a tie: u equals one of them, about 2 blocks in 2^k).  Each
word of a tie block takes ``words._is_canonical`` once, so the kernel
sees only canonical words.  ``words_scanned`` counts the canonical words of
every block, evaluated or not: the number of orbits.
k depends on n alone (``_block_letters``): min(n // 2 - 2, 11), and 0 for
n <= 5, where one tie block holds the a-half and every word takes the
canonical test.

The a-half is cut into heads: a prefix u and a middle m, whose 2^k words
u m v share the table row of u.  A row runs its heads in ascending order,
in chunks of one kernel call each, and keeps an incumbent (Land & Doig's):
the best value found, which starts at T since the family word reaches it,
and its least canonical achievers, up to ``extremal_limit`` of them.  Each
chunk is cut at the threshold in force: the incumbent's value while its
list is short, one above it once the list is full, for from then on only a
word of larger sd can change the row (a later achiever of the same value
is larger than every listed word).  The threshold only rises; with an
extremal limit of 0 the list is full from the start.  The block tables
give, at a threshold, the words each head builds (``_row_words``: the
words of its row's kept blocks that hold canonical words, which bound
those it sends to the kernel, and of its tie blocks, which all take the
canonical test), and ``_cut`` closes a chunk once its words reach its
budget: ``_FIRST_BUDGET`` for the first chunk and four times the one
before for each later chunk, up to ``_BUDGET``, so that the early chunks
are small and the threshold rises close to where the list fills.

A row's workers are those asked for, capped at the machine's CPUs and at
the chunks its counted words could fill.  A row runs in this process when
that leaves one worker or its counted words are below ``_POOL_WORDS``;
else on a process pool of that many workers, which the row opens and shuts
down itself, and to which it submits its chunks in order with at most two
a worker in flight.  A chunk cut before the threshold rose evaluates a
superset of the words the new threshold keeps, so its result still holds.
A chunk is sent its threshold and the block table rows of its heads,
builds the words of its kept blocks and runs the bit-parallel LCS kernel
of ``deletions`` on them in one call.  The parent merges chunk results in
chunk order and prints progress after each, so the row is identical for
any worker count; only the words evaluated and the chunks they were cut
into can differ.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
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

# Row 32 takes 2.7 to 3.0 s on two cores (`table --from 32 --to 32 --jobs
# 2` as a process on a 2-vCPU Xeon VM, 5 runs, median 2.95 s); each row
# below it takes less.
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


def __getattr__(name: str):
    # The pool class is read as ``search.ProcessPoolExecutor`` when a pool
    # opens, so that tests and tracers can replace it; the pool machinery
    # (multiprocessing) is imported on that first read.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Block classes: whether no word, every word or only some words of a block
# are canonical.
_NONE, _ALL, _TIE = 0, 1, 2


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
    2^21 blocks (about 50 ms and 30 MB to build).  0 for n <= 5.
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


def _block_bounds(n: int, k: int) -> np.ndarray:
    """Upper bound on sd over each block of row n: an int8 array indexed by
    the packed prefix u (a-prefixed) and the packed suffix v.

    Any middle m gives u m v a palindromic subsequence of
    2 LCS(u[:i], x[:j]) + ceil((n - i - j) / 2) letters for every i, j,
    with x = rev v: the matched ends around the majority letter of the
    rest.  It also has an antipalindromic one of 2 LCS(u, comp x) letters.
    The LCS rows come from the bit-parallel update of ``_mirror_lcs``
    against every x at once (bit j of x is bit j of v), one letter of u
    per level of a prefix tree, so each prefix is updated once.  A row's
    best j depends only on its LCS vector and the parity of n - i, and is
    read from the table ``best_j`` over the 2^k vectors.
    """
    mask = (1 << k) - 1
    v = np.arange(1 << k, dtype=np.int16)
    # best_j[e][V]: max over j of 2 LCS(., x[:j]) + (e + 1 - j) // 2 for
    # the LCS vector V; with e = (n - i) % 2, adding (n - i) // 2 gives
    # the term of row i.
    lcs = np.zeros(1 << k, np.int8)
    best_j = [np.full(1 << k, (e + 1) // 2, np.int8) for e in (0, 1)]
    for j in range(1, k + 1):
        lcs += 1 - ((v >> (j - 1)) & 1).astype(np.int8)
        for e in (0, 1):
            np.maximum(best_j[e], 2 * lcs + (e + 1 - j) // 2, out=best_j[e])
    # match[c]: the positions of x holding letter c
    match = np.stack([~v & mask, v])[None]
    vp = va = np.full((1, 1, v.size), mask, np.int16)
    best = np.full((1, 1, v.size), n // 2 + best_j[n % 2][mask], np.int8)
    for i in range(1, k + 1):
        # prefixes of i letters, each its parent's row and a last letter;
        # every prefix starts with a
        letter = match[:, :1] if i == 1 else match
        t = vp & letter
        vp = ((vp + t) | (vp - t)) & mask
        t = va & (letter ^ mask)
        va = ((va + t) | (va - t)) & mask
        row = best_j[(n - i) % 2][vp]
        row += (n - i) // 2
        best = np.maximum(best, row, out=row)
        vp, va, best = (a.reshape(-1, 1, v.size) for a in (vp, va, best))
    las = 2 * (k - np.bitwise_count(va[:, 0]).astype(np.int8))
    return n - np.maximum(best[:, 0], las)


class _Blocks(NamedTuple):
    """Row n cut into blocks: the first and last k letters fixed.

    ``classes[u - first, v]`` says whether none, all or some of the words
    u m v are canonical, and ``bounds[u - first, v]`` bounds their sd from
    above: the block is evaluated at a threshold its bound reaches.
    """

    k: int
    classes: np.ndarray
    bounds: np.ndarray
    first: int = 0

    def rows(self, n: int, heads: range) -> _Blocks:
        """The rows that ``heads`` read, a chunk's share."""
        shift = n - self.k
        lo, hi = heads[0] >> shift, (heads[-1] >> shift) + 1
        return self._replace(
            classes=self.classes[lo:hi], bounds=self.bounds[lo:hi], first=lo
        )


def _blocks(n: int) -> _Blocks:
    """The blocks of row n; with k = 0 one tie block holds the a-half and
    every word takes the canonical test."""
    k = _block_letters(n)
    if k == 0:
        return _Blocks(0, np.full((1, 1), _TIE, np.int8), _block_bounds(n, 0))
    mask = (1 << k) - 1
    u = np.arange(1 << (k - 1), dtype=np.int64)[:, None]
    rev = _reverse_bits(np.arange(1 << k, dtype=np.int64), k)
    # w = u m v starts with u, rev w with rev v and comp rev w with
    # rev v ^ mask: u below both makes every word of the block canonical,
    # u above either none, and a tie leaves it to the middle.
    some = (u <= rev) & (u <= rev ^ mask)
    tie = (u == rev) | (u == rev ^ mask)
    classes = some.astype(np.int8) + (some & tie)  # _NONE, _ALL or _TIE
    # a copy, made while the table sits above the build's freed temporaries,
    # lets the heap give them back before the pool forks: the row-28 parent
    # held 58 MB when its pool opened without it and 40 MB with it
    return _Blocks(k, classes, _block_bounds(n, k).copy())


def _spread(heads: np.ndarray, rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``head | v`` for each head and each suffix v that ``mask`` marks in
    the head's row, in ascending order."""
    per_row = np.count_nonzero(mask, axis=1)
    counts = per_row[rows]
    _, cols = np.nonzero(mask)  # row by row, each row ascending
    # a word's v sits at its row's first v in cols plus its place in the row
    first = np.repeat((np.cumsum(per_row) - per_row)[rows], counts)
    place = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(heads, counts) | cols[first + place]


def _heads(n: int, k: int) -> range:
    """The heads of row n in ascending order, each a prefix and a middle
    (v = 0): the a-half [0, 2^(n-1)) in steps of 2^k words."""
    return range(0, 1 << (n - 1), 1 << k)


def _row_words(blocks: _Blocks, threshold: int) -> np.ndarray:
    """The words one head of each table row builds at ``threshold``: every
    word of the row's blocks that hold canonical words and whose bound
    reaches it, which bound the words the head sends to the kernel, and of
    its tie blocks, which all take the canonical test.  Counting the tie
    words caps a chunk's heads once few blocks are kept: row 31's chunks
    above its threshold spanned up to 197 k heads without them, and a
    worker's peak RSS rose from 33 to 54 MB.  The row's heads share one
    table row 2^(n - 2k) at a time."""
    kept = (blocks.bounds >= threshold) & (blocks.classes != _NONE)
    return np.count_nonzero(kept | (blocks.classes == _TIE), axis=1)


def _budget(chunk: int) -> int:
    """The counted words that close a row's chunk of index ``chunk``."""
    return min(_FIRST_BUDGET << 2 * chunk, _BUDGET)


def _cut(row_words: np.ndarray, span: int, start: int, budget: int) -> int:
    """The end of the chunk that starts at head ``start``: the first head
    that brings the chunk's counted words to ``budget``, or the row's last
    head.  ``row_words`` gives one head's words for each table row, which
    ``span`` heads in a row share."""
    total = np.zeros(row_words.size + 1, np.int64)
    np.cumsum(row_words * span, out=total[1:])
    row, col = divmod(start, span)
    target = total[row] + col * row_words[row] + budget
    # the chunk ends in the first table row whose words reach the target
    row = int(np.searchsorted(total, target)) - 1
    if row == row_words.size:
        return row * span
    return row * span + int(-(-(target - total[row]) // row_words[row]))


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
    """Scan the words of ``heads``: the best sd evaluated (-1 if none), up
    to ``limit`` of its canonical achievers in ascending order, the number
    of canonical words and the number evaluated.

    The words are the heads joined to each suffix v.  Each tie word takes
    ``_is_canonical`` once; the canonical ones are counted and, in blocks
    whose bound reaches ``threshold``, join the words of such _ALL blocks in
    one kernel call, so every word evaluated is canonical.
    """
    k, classes, bounds, first = blocks
    kept = bounds >= threshold
    heads = np.arange(heads.start, heads.stop, heads.step, dtype=np.int64)
    rows = (heads >> (n - k)) - first
    ties = _spread(heads, rows, classes == _TIE)
    ties = ties[_is_canonical(ties, n)]
    canonical = np.count_nonzero(classes == _ALL, axis=1)[rows].sum() + ties.size
    ties = ties[kept[(ties >> (n - k)) - first, ties & ((1 << k) - 1)]]
    words = np.concatenate((_spread(heads, rows, kept & (classes == _ALL)), ties))
    values = sd_batch(words, n)
    best = int(values.max(initial=-1))
    hits = np.sort(words[values == best])[:limit]
    return best, hits.tolist(), int(canonical), words.size


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

    The scan runs over the row's heads in ascending order, in chunks of
    one kernel call each, cut at the threshold in force (``_cut``): the
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
    span = len(heads) // blocks.classes.shape[0]  # heads per table row
    task = partial(_scan_chunk, n, limit)
    # the incumbent: the family word reaches T, and no achiever is listed
    best, merged = _threshold(n), []
    threshold = best + (limit == 0)
    row_words = _row_words(blocks, threshold)
    counted = int(row_words.sum()) * span
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
    # the class is read through the module (see ``__getattr__``)
    pool = (
        sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
        if pooled
        else nullcontext()
    )
    with pool:
        while start < len(heads) or pending:
            while start < len(heads) and len(pending) < window:
                stop = _cut(row_words, span, start, _budget(chunks))
                chunk = heads[start:stop]
                args = (threshold, chunk, blocks.rows(n, chunk))
                pending.append(
                    pool.submit(task, *args).result if pooled else partial(task, *args)
                )
                # the blocks of the prefixes whose first head is in the chunk
                first = slice(-(-start // span), -(-stop // span))
                skipped = blocks.bounds[first] < threshold
                pruned += np.count_nonzero(skipped & (blocks.classes[first] != _NONE))
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
                row_words = _row_words(blocks, threshold)
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
