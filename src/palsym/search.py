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
is at least T and T needs no lemma.  Only blocks whose bound reaches T are
evaluated; every word of sd >= T is among them, so the maximum, its
achievers and their order are those of the full scan.

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
u m v share the table row of u.  The block tables give, before anything
runs, the words each head will send to the kernel at most (``_head_words``:
the words of its row's kept blocks that hold canonical words), and
``_chunk_plan`` cuts a row's heads into chunks by that count: a chunk
closes once its words reach ``_BUDGET``.  The same plan serves every
worker count.  A row's workers are those asked for, capped at its chunks
and the machine's CPUs.  A row runs in this process when that leaves one
worker or its counted words are below ``_POOL_WORDS``; else it goes to a
process pool of that many workers, which the row opens and shuts down
itself.  A chunk is sent the block table rows of its heads, builds the
words of its kept blocks and runs the bit-parallel LCS kernel of
``deletions`` on them in one call.  The parent merges chunk results in
chunk order and prints progress after each, so the outcome is identical
for any worker count.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
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

# Row 32 takes 6.5 to 8.2 s on two cores (`table --from 32 --to 32 --jobs
# 2` as a process on a 2-vCPU Xeon VM, 9 runs, median 7.1 s); each row
# below it takes less.
MAX_SEARCH_LENGTH = 32

# Counted kernel words that close a chunk, which makes one kernel call.
# compute_table(1, 22) in process at a budget of 2^14, 2^15, 2^16 and 2^17
# words: 40, 30, 25 and 23 kernel calls, 0.048, 0.042, 0.051 and 0.053 s
# warm (medians of 11), peak RSS 31.8, 32.1, 33.5 and 36.7 MB (medians of
# 7 fresh processes; 2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6).
_BUDGET = 1 << 16

# Counted kernel words from which a row goes to a process pool, when two or
# more workers remain after the chunk and CPU caps.  sd_max on one worker
# against its own 2-worker pool (2-vCPU Xeon VM, medians of 7 to 11 fresh
# processes): row 22 (186 k words) 0.040 against 0.069 s, row 23 (210 k)
# 0.042 against 0.058 s, row 25 (316 k) 0.084 against 0.080 s and row 26
# (779 k) 0.24 against 0.19 s; starting and stopping the pool takes about
# 12 ms of that.
_POOL_WORDS = 1 << 18


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
    """sd of the family word of length n (n >= 3), a value the row reaches."""
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
    u m v are canonical, and ``kept[u - first, v]`` whether the block is
    evaluated.
    """

    k: int
    classes: np.ndarray
    kept: np.ndarray
    first: int = 0

    def rows(self, n: int, heads: range) -> _Blocks:
        """The rows that ``heads`` read, a chunk's share."""
        shift = n - self.k
        lo, hi = heads[0] >> shift, (heads[-1] >> shift) + 1
        return self._replace(
            classes=self.classes[lo:hi], kept=self.kept[lo:hi], first=lo
        )


def _blocks(n: int) -> _Blocks:
    """The blocks of row n; with k = 0 one tie block holds the a-half and
    every word takes the canonical test."""
    k = _block_letters(n)
    if k == 0:
        return _Blocks(0, np.full((1, 1), _TIE, np.int8), np.ones((1, 1), bool))
    mask = (1 << k) - 1
    u = np.arange(1 << (k - 1), dtype=np.int64)[:, None]
    rev = _reverse_bits(np.arange(1 << k, dtype=np.int64), k)
    # w = u m v starts with u, rev w with rev v and comp rev w with
    # rev v ^ mask: u below both makes every word of the block canonical,
    # u above either none, and a tie leaves it to the middle.
    some = (u <= rev) & (u <= rev ^ mask)
    tie = (u == rev) | (u == rev ^ mask)
    classes = some.astype(np.int8) + (some & tie)  # _NONE, _ALL or _TIE
    return _Blocks(k, classes, _block_bounds(n, k) >= _threshold(n))


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


def _head_words(n: int, blocks: _Blocks) -> np.ndarray:
    """The words each head of row n sends to the kernel at most: every word
    of its row's kept blocks that hold canonical words, the non-canonical
    words of tie blocks included (2^20 heads at n = 32)."""
    per_row = np.count_nonzero(blocks.kept & (blocks.classes != _NONE), axis=1)
    return np.repeat(per_row, len(_heads(n, blocks.k)) // per_row.size)


def _chunk_plan(words: np.ndarray) -> list[int]:
    """Cut points of a row's heads, 0 first and the head count last, given
    each head's counted words: a chunk closes once its words reach
    ``_BUDGET``."""
    total = np.zeros(len(words) + 1, np.int64)
    np.cumsum(words, out=total[1:])
    cuts = [0]
    while cuts[-1] < len(words):
        full = int(np.searchsorted(total, total[cuts[-1]] + _BUDGET))
        cuts.append(min(full, len(words)))
    return cuts


def _scan_chunk(
    n: int, limit: int, heads: range, blocks: _Blocks
) -> tuple[int, list[int], int, int]:
    """Scan the words of ``heads``: the best sd evaluated (-1 if none), up
    to ``limit`` of its canonical achievers in ascending order, the number
    of canonical words and the number evaluated.

    The words are the heads joined to each suffix v.  Each tie word takes
    ``_is_canonical`` once; the canonical ones are counted and, in kept
    blocks, join the words of kept _ALL blocks in one kernel call, so every
    word evaluated is canonical.
    """
    k, classes, kept, first = blocks
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
    """Exact maximum sd at length n with bounds and sample extremal words."""

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

    The scan runs over the row's heads in ascending order, cut into chunks
    by the words each head sends to the kernel (``_chunk_plan``), one
    kernel call per chunk.  The workers asked for are capped at the row's
    chunks and the machine's CPUs.  The row runs in this process when that
    leaves one worker or its counted words are below ``_POOL_WORDS``; else
    on a process pool of that many workers, opened for this row and shut
    down before it returns.  Results come back one per chunk in chunk
    order, so the row, including the extremal words and their order, is
    the same for any worker count; ``config.progress_interval`` prints
    scan totals to stderr, checked after each chunk.  ``words_evaluated``
    counts the words sent to the kernel, ``blocks_pruned`` the blocks with
    canonical words that the bound skipped, and ``chunks`` and ``pooled``
    how the row was dispatched.
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
    task = partial(_scan_chunk, n, limit)
    words = _head_words(n, blocks)
    cuts, counted = _chunk_plan(words), int(words.sum())
    del words  # 8 MB at n = 32, which every forked worker would map
    chunks = [heads[i:j] for i, j in zip(cuts, cuts[1:])]
    tables = [blocks.rows(n, c) for c in chunks]
    # fork starts every worker at the first submit, so the pool has no more
    # workers than the row has chunks or the machine has CPUs; one worker
    # gains nothing from a pool
    workers = min(config.worker_count, len(chunks), os.cpu_count() or 1)
    pooled = workers > 1 and counted >= _POOL_WORDS

    best, merged, scanned, evaluated = -1, [], 0, 0
    last_report = time.monotonic()
    # the class is read through the module (see ``__getattr__``)
    pool = (
        sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
        if pooled
        else nullcontext()
    )
    with pool:
        run = pool.map if pooled else map
        for chunk_best, hits, canonical, count in run(task, chunks, tables):
            scanned += canonical
            evaluated += count
            if chunk_best > best:
                best, merged = chunk_best, []
            if chunk_best == best:
                merged.extend(hits[: limit - len(merged)])
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
        blocks_pruned=int(np.count_nonzero(~blocks.kept & (blocks.classes != _NONE))),
        chunks=len(chunks),
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
