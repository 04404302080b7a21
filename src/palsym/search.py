"""Exhaustive search for the most asymmetric words of each length.

``sd_max(n)`` keeps one word per reversal/complement orbit, the canonical
(smallest) one; sd is constant on orbits, so the maximum is unaffected.
A canonical word never starts with b (its complement would be smaller), so
only the a-half [0, 2^(n-1)) of the packed words is scanned.  That range is
cut into fixed-size tasks; each task filters its block to canonical words
with ``words._is_canonical`` and evaluates them in one numpy batch with the
bit-parallel LCS kernel of ``deletions``.  The parent consumes task results
in task order, merging them and printing progress, so the outcome is
identical for any worker count.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .bounds import lower_bound, upper_bound
from .deletions import _mirror_lcs
from .errors import LengthBudgetExceeded
from .words import Word, _is_canonical

# 2^28 words is the practical desk-scale edge.
MAX_SEARCH_LENGTH = 28

# Words per scan task.  A row whose scan fits in one task runs in-process,
# so this also caps the arrays the parent allocates.
_TASK = 1 << 14


def sd_batch(words, n: int) -> np.ndarray:
    """Vectorized sd over same-length words given as packed integers.

    Runs the bit-parallel kernel of ``deletions.sd`` across the whole batch
    at once, one ``int64`` lane per word.
    """
    arr = np.ascontiguousarray(words, dtype=np.int64)
    vp, va = _mirror_lcs(arr, n)
    return np.minimum(np.bitwise_count(vp), np.bitwise_count(va)).astype(np.int64)


def _scan_task(
    n: int, size: int, limit: int, prune: bool, lo: int
) -> tuple[int, list[int], int]:
    """Best sd over the packed words in [lo, lo + size) (-1 if none is
    evaluated), up to ``limit`` of its achievers in ascending order, and
    the number of words evaluated."""
    arr = np.arange(lo, lo + size, dtype=np.int64)
    if prune:
        arr = arr[_is_canonical(arr, n)]
    values = sd_batch(arr, n)
    best = int(values.max(initial=-1))
    hits = arr[np.flatnonzero(values == best)[:limit]]
    return best, hits.tolist(), int(arr.size)


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


class TableMismatch(NamedTuple):
    n: int
    computed: int
    expected: int


def sd_max(
    n: int,
    config: SearchConfig | None = None,
    prune: bool = True,
) -> SdTableRow:
    """Exact maximum of sd over all 2^n words of length n.

    With ``prune`` (the default) only canonical orbit representatives are
    evaluated, and only the a-half [0, 2^(n-1)) is scanned, since every
    canonical word starts with a; ``prune=False`` scans every word and
    exists to demonstrate that the pruned maximum is the true one.

    The scan runs as tasks of ``_TASK`` words in ascending order, in this
    process when one worker is asked for or one task covers the range, else
    on a process pool.  Results are merged in task order, so the row,
    including the extremal words and their order, is the same for any
    worker count; ``config.progress_interval`` prints scan totals to stderr.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_SEARCH_LENGTH:
        raise LengthBudgetExceeded(
            f"n = {n} beyond the search guard {MAX_SEARCH_LENGTH}"
        )
    config = config if config is not None else SearchConfig()
    limit = config.extremal_limit

    total = 1 << (n - 1) if prune else 1 << n
    size = min(total, _TASK)
    task = partial(_scan_task, n, size, limit, prune)
    starts = range(0, total, size)

    best, merged, scanned = -1, [], 0
    last_report = time.monotonic()
    with ExitStack() as stack:
        if config.worker_count == 1 or total <= _TASK:
            results = map(task, starts)
        else:
            # fork starts every worker at the first submit, so ask for no
            # more than there are tasks
            workers = min(config.worker_count, len(starts))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(task, starts)
        for task_best, hits, count in results:
            scanned += count
            if task_best > best:
                best, merged = task_best, []
            if task_best == best:
                merged.extend(hits[: limit - len(merged)])
            if config.progress_interval is not None:
                now = time.monotonic()
                if now - last_report >= config.progress_interval:
                    print(
                        f"n={n}: scanned {scanned} words, current max {best}",
                        file=sys.stderr,
                    )
                    last_report = now

    if prune:
        extremal = tuple(Word(n, bits) for bits in merged)
    else:
        canon = {Word(n, bits).canonical() for bits in merged}
        extremal = tuple(sorted(canon, key=lambda w: w.bits))[:limit]

    return SdTableRow(
        n=n,
        sd=best,
        lower=lower_bound(n) if n >= 2 else 0,
        upper=upper_bound(n),
        extremal=extremal,
        words_scanned=scanned,
    )


def compute_table(
    n_min: int,
    n_max: int,
    config: SearchConfig | None = None,
) -> list[SdTableRow]:
    """Rows of the exact maximum-sd table for n_min..n_max inclusive."""
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


def known_values() -> dict[int, int]:
    """The reference table of maximum sd values for 1 <= n <= 20."""
    return dict(KNOWN_MAX_SD)


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
