"""Exhaustive search for the most asymmetric words of each length.

``sd_max(n)`` keeps one word per reversal/complement orbit, the canonical
(smallest) one; sd is constant on orbits, so the maximum is unaffected.
A canonical word never starts with b (its complement would be smaller), so
only the a-half [0, 2^(n-1)) of the packed words is scanned.  That range is
cut into fixed-size tasks; each task filters its block to canonical words
with ``words._is_canonical`` and evaluates them in one numpy batch with the
bit-parallel LCS kernel of ``deletions``.  With more than one worker the
tasks go to a process pool in chunks of several tasks, a quarter of the
row's tasks per worker at most, to spread each dispatch's inter-process
cost over several tasks.  ``compute_table`` opens one pool for the whole
table and lends it to every row.  The parent consumes task results one per
task, in task order, merging them and printing progress, so the outcome is
identical for any worker count.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
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
    # How the scan ran, not what it found: rows compare equal without them.
    tasks: int = field(default=0, compare=False)
    elapsed_s: float = field(default=0.0, compare=False)


class TableMismatch(NamedTuple):
    n: int
    computed: int
    expected: int


def _task_starts(n: int, prune: bool = True) -> range:
    """First packed word of each scan task of row n, in ascending order."""
    total = 1 << (n - 1) if prune else 1 << n
    return range(0, total, min(total, _TASK))


def _open_pool(config: SearchConfig, tasks: int):
    """A process pool for ``tasks`` scan tasks, or a null context when the
    scan runs in this process (one worker or one task)."""
    if config.worker_count == 1 or tasks == 1:
        return nullcontext()
    # fork starts every worker at the first submit, so ask for no more than
    # there are tasks
    return ProcessPoolExecutor(max_workers=min(config.worker_count, tasks))


def sd_max(
    n: int,
    config: SearchConfig | None = None,
    prune: bool = True,
    *,
    pool: Executor | None = None,
) -> SdTableRow:
    """Exact maximum of sd over all 2^n words of length n.

    With ``prune`` (the default) only canonical orbit representatives are
    evaluated, and only the a-half [0, 2^(n-1)) is scanned, since every
    canonical word starts with a; ``prune=False`` scans every word and
    exists to demonstrate that the pruned maximum is the true one.

    The scan runs as tasks of ``_TASK`` words in ascending order, in this
    process when one worker is asked for or one task covers the range, else
    on ``pool``: the one ``compute_table`` opened for its table, or, when
    none is given, a pool of its own for this row.  Tasks go to the pool in
    chunks of ``tasks // (4 * workers)`` (at least one), and results come
    back one per task in task order, so the row, including the extremal
    words and their order, is the same for any worker count;
    ``config.progress_interval`` prints scan totals to stderr.
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

    starts = _task_starts(n, prune)
    task = partial(_scan_task, n, starts.step, limit, prune)

    best, merged, scanned = -1, [], 0
    last_report = time.monotonic()
    with ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(_open_pool(config, len(starts)))
        if pool is None or len(starts) == 1:
            results = map(task, starts)
        else:
            workers = min(config.worker_count, len(starts))
            chunk = max(1, len(starts) // (4 * workers))
            results = pool.map(task, starts, chunksize=chunk)
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
        tasks=len(starts),
        elapsed_s=time.perf_counter() - began,
    )


def compute_table(
    n_min: int,
    n_max: int,
    config: SearchConfig | None = None,
) -> list[SdTableRow]:
    """Rows of the exact maximum-sd table for n_min..n_max inclusive.

    One process pool, sized by the task count of row ``n_max``, serves
    every row, so the table pays one pool start-up rather than one per row.
    """
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"bad range {n_min}..{n_max}")
    if n_max > MAX_SEARCH_LENGTH:
        raise LengthBudgetExceeded(
            f"n = {n_max} beyond the search guard {MAX_SEARCH_LENGTH}"
        )
    config = config if config is not None else SearchConfig()
    with _open_pool(config, len(_task_starts(n_max))) as pool:
        return [sd_max(n, config, pool=pool) for n in range(n_min, n_max + 1)]


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
