import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palsym import (
    KNOWN_MAX_SD,
    MAX_SEARCH_LENGTH,
    LengthBudgetExceeded,
    SdTableRow,
    SearchConfig,
    Word,
    all_words,
    compare_with_known,
    compute_table,
    lower_bound,
    parse_word,
    row_to_csv,
    row_to_json,
    sd,
    sd_batch,
    sd_max,
)
from palsym import search
from palsym.deletions import MAX_LENGTH
from palsym.words import _is_canonical

from _helpers import (
    batched_table_lengths,
    plain_canonical_scan,
    reference_block_bounds,
    reference_blocks,
    reference_scan_chunk,
    table_lengths,
)

ONE = SearchConfig(worker_count=1)


def test_batch_matches_tables_exhaustive():
    """The batch kernel equals the interval tables (all words <= 16)."""
    for n in range(17):
        values = sd_batch(np.arange(1 << n, dtype=np.int64), n)
        assert values.dtype == np.int64
        lps, las = batched_table_lengths(n)
        for bits, value in enumerate(values):
            assert value == n - max(lps[bits], las[bits])


@st.composite
def _batches(draw):
    n = draw(st.integers(1, MAX_SEARCH_LENGTH))
    picks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    return n, picks


@given(_batches())
@settings(max_examples=60, deadline=None)
def test_batch_matches_tables_sampled(batch):
    n, picks = batch
    values = sd_batch(np.array(picks, dtype=np.int64), n)
    for bits, value in zip(picks, values):
        assert value == n - max(table_lengths(str(Word(n, bits))))


def test_batch_empty():
    values = sd_batch(np.array([], dtype=np.int64), 12)
    assert values.shape == (0,)
    assert values.dtype == np.int64


@pytest.mark.parametrize(
    "lengths",
    [st.sampled_from((31, 32, 33)), st.integers(15, MAX_LENGTH)],
    ids=["lane-switch", "15-63"],
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_matches_scalar_sd_sampled(lengths, data):
    """Both lane widths agree with scalar sd: uint32 lanes up to 32 letters,
    int64 above.  The all-b word makes the first kernel step carry out of
    the top letter, past bit 31 at n = 32."""
    n = data.draw(lengths)
    top = (1 << n) - 1
    picks = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=20))
    picks += [0, top, 1 << (n - 1)]
    values = sd_batch(np.array(picks, dtype=np.int64), n)
    assert values.tolist() == [sd(Word(n, bits)).value for bits in picks]


@pytest.mark.parametrize(
    "words, n",
    [
        ([0b111], 2),
        ([-1], 3),
        ([5], 0),
        ([1], 64),
        ([1], -1),
        ([1 << 32], 32),
        ([1 << 63], 63),
        (np.array([1 << 63], dtype=np.uint64), 63),
        ([1.5, 6.9], 3),
        ([1, 2.0], 3),
        (["6"], 3),
        ([True], 1),
        (np.array([1.0]), 3),
    ],
)
def test_batch_rejects_what_it_cannot_compute(words, n):
    """A length outside 0..63, a word outside [0, 2^n) or a word that is not
    an integer raises; 2^32 at n = 32 would wrap to 0 on a uint32 lane, and
    a cast to int64 would truncate 1.5 and parse "6"."""
    with pytest.raises(ValueError, match=r"must be in"):
        sd_batch(words, n)


def test_batch_edges_of_the_guard():
    assert sd_batch([0], 0).tolist() == [0]
    top = [(1 << 32) - 1, (1 << 63) - 1]
    assert sd_batch(top[:1], 32).tolist() == [0]
    assert sd_batch(top[1:], 63).tolist() == [0]


def test_sd_max_small_values():
    assert sd_max(1, ONE).sd == 0
    assert sd_max(2, ONE).sd == 0
    row = sd_max(3, ONE)
    assert row.sd == 1
    assert [str(w) for w in row.extremal] == ["aab"]


def test_sd_max_matches_scalar_max():
    for n in range(1, 11):
        expected = max(sd(w).value for w in all_words(n))
        assert sd_max(n, ONE).sd == expected


def test_conjectured_third_fails_at_10():
    assert sd_max(10, ONE).sd == 4
    assert 4 > 10 / 3


def test_rows_match_reference_prefix():
    rows = compute_table(1, 12, ONE)
    assert [r.sd for r in rows] == [KNOWN_MAX_SD[n] for n in range(1, 13)]
    assert compare_with_known(rows) == []


def test_compare_detects_forged_row():
    forged = SdTableRow(10, 5, 4, 5, (), 0)
    mismatches = compare_with_known([forged])
    assert len(mismatches) == 1
    assert mismatches[0] == (10, 5, 4)


def test_compare_ignores_rows_outside_reference():
    rows = [SdTableRow(21, 8, 8, 10, (), 0), SdTableRow(24, 9, 9, 12, (), 0)]
    assert compare_with_known(rows) == []


def test_row_invariants():
    for row in compute_table(2, 12, ONE):
        assert row.lower <= row.sd <= row.upper
        for w in row.extremal:
            assert len(w) == row.n
            assert w.is_canonical()
            assert sd(w).value == row.sd


def _orbit_count(n):
    """Reversal/complement orbits of length-n words, by Burnside's lemma:
    the identity fixes 2^n words, reversal 2^ceil(n/2), complement none and
    reversal-complement 2^(n/2) at even n."""
    fixed = (1 << n) + (1 << (n + 1) // 2) + (1 << n // 2 if n % 2 == 0 else 0)
    return fixed // 4


def test_rows_above_acceptance_range():
    """Rows 23 and 24 meet the lower bound, and every row up to 24 counts
    one canonical word per orbit, pruned blocks included."""
    rows = compute_table(1, 24, SearchConfig(worker_count=2))
    assert [row.sd for row in rows[22:]] == [9, 10]
    assert [row.sd for row in rows[22:]] == [lower_bound(23), lower_bound(24)]
    assert [row.words_scanned for row in rows[22:]] == [2_098_176, 4_196_352]
    assert [_orbit_count(23), _orbit_count(24)] == [2_098_176, 4_196_352]
    assert [row.words_scanned for row in rows] == [
        _orbit_count(n) for n in range(1, 25)
    ]
    assert all(row.words_evaluated < row.words_scanned for row in rows[15:])


def test_pruned_equals_unpruned():
    """The scan finds the maximum of every word and reports the least
    canonical achievers of the plain scan, also where the limit is below
    the row's count of all achievers: rows 9 and 12 have 15 and 59
    canonical ones, among more than 16 and 64 achievers."""
    for limit in (1, 8, 16, 64):
        config = SearchConfig(worker_count=1, extremal_limit=limit)
        for n in range(1, 15):
            best, hits, _ = _plain_scan(n, limit)
            row = sd_max(n, config)
            assert row.sd == best, (n, limit)
            assert [w.bits for w in row.extremal] == hits, (n, limit)


def _counted_words(n, threshold=None):
    """The counted kernel words of each head of row n at ``threshold``,
    the row's own threshold T by default."""
    blocks = search._blocks(n)
    threshold = search._threshold(n) if threshold is None else threshold
    span = len(search._heads(n, blocks.k)) // blocks.bounds.shape[0]
    return np.repeat(search._row_words(blocks, threshold), span)


@pytest.fixture
def plans(monkeypatch):
    """The chunks of each row that the test scans, one list per row of
    (threshold, start, stop): the threshold the chunk was cut at and the
    range of the row's heads it holds."""
    plans, thresholds = [], []
    scan, row_words, cut = search.sd_max, search._row_words, search._cut

    def sd_max_recorded(*args, **kwargs):
        plans.append([])
        return scan(*args, **kwargs)

    def row_words_recorded(b, threshold):
        thresholds.append(threshold)
        return row_words(b, threshold)

    def cut_recorded(total, span, start, budget):
        stop = cut(total, span, start, budget)
        plans[-1].append((thresholds[-1], start, stop))
        return stop

    monkeypatch.setattr(search, "sd_max", sd_max_recorded)
    monkeypatch.setattr(search, "_row_words", row_words_recorded)
    monkeypatch.setattr(search, "_cut", cut_recorded)
    return plans


def _chunks_of(n, plan, words):
    """The indices of the chunks of row n's ``plan`` that hold ``words``."""
    ends = np.array([stop for _, _, stop in plan]) << search._block_letters(n)
    bits = [w.bits for w in words]
    return set(np.searchsorted(ends, bits, side="right").tolist())


def _thresholds(plan):
    """The threshold of each chunk of a plan, in order."""
    return [threshold for threshold, _, _ in plan]


@pytest.fixture
def pool_every_row(monkeypatch):
    """Send every row to a pool, however little kernel work it counts, and
    close every chunk at 2^12 counted words, so that rows 14..23 have
    chunks enough for workers."""
    monkeypatch.setattr(search, "_POOL_WORDS", 0)
    monkeypatch.setattr(search, "_BUDGET", 1 << 12)


@pytest.fixture
def recorded(monkeypatch):
    """The events of every pool the test opens: ("open", workers asked
    for), ("submit", row n) for a row's chunks and ("shutdown",), on a
    machine that reports eight CPUs."""
    events = []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)

    class RecordingPool(search.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            events.append(("open", max_workers))
            # never start more than two processes, whatever is asked for
            super().__init__(max_workers=min(max_workers, 2), **kwargs)

        def submit(self, fn, *args, **kwargs):
            if events[-1] != ("submit", fn.args[0]):
                events.append(("submit", fn.args[0]))
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            events.append(("shutdown",))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    return events


def test_worker_determinism(pool_every_row, plans):
    """n = 19 scans its chunks on a pool; its first 90 extremal words come
    from three of them, and the limit cuts the last one's list.  The list
    is full there, at the row's value 7, so in this process the next chunk
    is cut at 8.  Two workers keep four chunks in flight: the three cut at
    7 after the one that fills the list still run at 7, and the rows are
    the same."""
    rows = [
        search.sd_max(19, SearchConfig(worker_count=jobs, extremal_limit=90))
        for jobs in (1, 2, 3)
    ]
    assert [row.pooled for row in rows] == [False, True, True]
    assert len(rows[0].extremal) == 90
    assert _chunks_of(19, plans[0], rows[0].extremal) == {1, 2, 3}
    assert _thresholds(plans[0]) == [7, 7, 7, 7, 8, 8]
    assert _thresholds(plans[1]) == [7] * 7 + [8]
    wider = search.sd_max(19, SearchConfig(worker_count=1, extremal_limit=91))
    assert _chunks_of(19, plans[3], wider.extremal[90:]) == {3}
    assert rows[1] == rows[0]
    assert rows[2] == rows[0]


def _row_pools(workers):
    """The events of rows that each open, use and shut down their own pool:
    row n asks for ``workers[n]`` workers."""
    return [
        event
        for n, w in workers.items()
        for event in (("open", w), ("submit", n), ("shutdown",))
    ]


def test_pool_capped_at_chunk_count(monkeypatch, recorded, plans):
    """At the real budgets row 22's counted words fill at most five
    chunks, so eight requested workers on eight CPUs start a pool of five.
    Its window holds ten chunks, so all five are cut at T before the first
    result returns: the row cuts one chunk per worker and evaluates every
    word whose block reaches T.  In process its list fills in the second
    chunk and the third is cut at T + 1.  The row is the one-worker row."""
    monkeypatch.setattr(search, "_POOL_WORDS", 0)
    counted = _counted_words(22).sum()
    assert search._most_chunks(counted) == 5
    row = search.sd_max(22, SearchConfig(worker_count=8))
    assert recorded == _row_pools({22: 5})
    assert row.pooled
    assert row.chunks == 5 == recorded[0][1]
    assert row.words_evaluated == 185632
    alone = search.sd_max(22, ONE)
    assert (alone.chunks, alone.words_evaluated) == (3, 34631)
    t = search._threshold(22)
    assert [_thresholds(plan) for plan in plans] == [[t] * 5, [t, t, t + 1]]
    assert row == alone


def test_most_chunks_bounds_every_plan(pool_every_row, plans):
    """No row up to 22 cuts more chunks than its counted words at T can
    fill, whatever the extremal limit, even where the threshold never
    rises."""
    for limit in (0, 8, 1 << 20):
        compute_table(1, 22, SearchConfig(worker_count=1, extremal_limit=limit))
    for i, plan in enumerate(plans):
        n = i % 22 + 1
        assert len(plan) <= search._most_chunks(_counted_words(n).sum()), n


def test_each_pooled_row_starts_its_own_pool(pool_every_row, recorded):
    """Rows 1..14 make one chunk each, which leaves one worker, so they run
    in this process.  Each of rows 15..19 opens its own pool, sized by the
    chunks it can fill: 2, 2, 2 and 3, and row 19's 11 chunks capped at the
    eight CPUs.  Each pool is shut down before the next row opens one, and
    the rows are the one-worker rows."""
    rows = compute_table(1, 19, SearchConfig(worker_count=8))
    assert recorded == _row_pools({15: 2, 16: 2, 17: 2, 18: 3, 19: 8})
    assert [row.pooled for row in rows] == [False] * 14 + [True] * 5
    assert rows == compute_table(1, 19, ONE)


@pytest.mark.parametrize("cpus, workers", [(2, 2), (1, 1), (None, 1)])
def test_pool_capped_at_cpu_count(
    monkeypatch, pool_every_row, recorded, cpus, workers
):
    """However many workers are asked for, each row's pool has no more
    than the CPUs the machine reports.  One reported CPU, or none, leaves
    one worker, and the rows run in this process with no pool.  The rows
    are the one-worker rows."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rows = compute_table(18, 19, SearchConfig(worker_count=5000))
    pooled = workers > 1
    assert recorded == (_row_pools({18: workers, 19: workers}) if pooled else [])
    assert [row.pooled for row in rows] == [pooled, pooled]
    assert rows == compute_table(18, 19, ONE)


def test_small_rows_open_no_pool(recorded):
    """No row up to 22 counts enough kernel words to pay for a pool, so
    eight workers run the whole table in this process."""
    rows = compute_table(1, 22, SearchConfig(worker_count=8))
    assert recorded == []
    assert not any(row.pooled for row in rows)
    assert max(_counted_words(n).sum() for n in range(1, 23)) < search._POOL_WORDS


def test_pool_opens_at_each_row_over_the_threshold(
    monkeypatch, pool_every_row, recorded
):
    """With the threshold at row 19's counted words, rows 16..18 and 20
    run in this process and rows 19 and 21 each on a pool of their own,
    opened while the row runs and shut down before it returns; the
    decision is per row, not per range.  The fixture's budget cuts row 19
    into chunks enough for two workers."""
    counted = {n: _counted_words(n).sum() for n in range(16, 22)}
    monkeypatch.setattr(search, "_POOL_WORDS", counted[19])
    assert [n for n in counted if counted[n] >= counted[19]] == [19, 21]
    scan = search.sd_max

    def sd_max_recorded(n, *args, **kwargs):
        recorded.append(("row", n))
        row = scan(n, *args, **kwargs)
        recorded.append(("done", n))
        return row

    monkeypatch.setattr(search, "sd_max", sd_max_recorded)
    config = SearchConfig(worker_count=2)
    rows = compute_table(16, 21, config)
    assert recorded == [
        ("row", 16), ("done", 16),
        ("row", 17), ("done", 17),
        ("row", 18), ("done", 18),
        ("row", 19), ("open", 2), ("submit", 19), ("shutdown",), ("done", 19),
        ("row", 20), ("done", 20),
        ("row", 21), ("open", 2), ("submit", 21), ("shutdown",), ("done", 21),
    ]
    assert [row.pooled for row in rows] == [0, 0, 0, 1, 0, 1]
    assert rows == compute_table(16, 21, ONE)
    del recorded[:]
    compute_table(16, 18, config)
    assert [e for e in recorded if e[0] not in ("row", "done")] == []


def _head_words_by_spread(n, blocks, threshold):
    """The words of each head's all-canonical blocks whose bound reaches
    ``threshold``, spread word by word as ``_scan_chunk`` spreads them, and
    of its tie blocks, joined to the head from their suffixes."""
    k, bounds, ties = blocks.k, blocks.bounds, blocks.ties
    heads = np.array(search._heads(n, k), dtype=np.int64)
    rows = heads >> (n - k)
    suffixes = search._tie_suffixes(np.arange(len(ties)), k)[rows]
    built = np.concatenate((
        search._spread(heads, rows, bounds >= threshold),
        (heads[:, None] | suffixes).ravel(),
    ))
    return np.bincount(built >> k, minlength=heads.size).tolist()


def test_chunk_plan_covers_every_head_once(plans):
    """Per-head counts equal the words the scan builds, at T and one above
    it, and each row cuts its heads in order into chunks, each closed at
    the first head that brings its words, counted at the chunk's threshold,
    to its own budget: every chunk but the last reaches it, and none
    reaches it without its last head.  The budgets start at 2^12 and grow
    four times a chunk up to 2^16.  Each row counts (2^(n-1) + 2^(n//2)) / 2
    canonical words, one per orbit (OEIS A005418)."""
    assert [search._budget(i) for i in range(5)] == [1 << 12, 1 << 14] + [1 << 16] * 3
    for n in range(1, 27):
        blocks = search._blocks(n)
        t = search._threshold(n)
        for threshold in (t, t + 1):
            words = _counted_words(n, threshold)
            assert len(words) << blocks.k == 1 << (n - 1)
            if n <= 22:
                assert words.tolist() == _head_words_by_spread(n, blocks, threshold)
        row = search.sd_max(n, ONE)
        assert row.words_scanned == (2**(n - 1) + 2**(n // 2)) // 2
        plan = plans[-1]
        assert plan[0][1] == 0 and plan[-1][2] == len(words)
        for i, (threshold, start, stop) in enumerate(plan):
            assert start < stop
            assert i == 0 or start == plan[i - 1][2]
            words = _counted_words(n, threshold)
            assert words[start : stop - 1].sum() < search._budget(i)
            if stop < len(words):
                assert words[start:stop].sum() >= search._budget(i)


def test_chunk_counts_bound_the_words_evaluated(plans):
    """Each chunk's counted words at its threshold are at least the words
    it sends to the kernel, and the chunks together evaluate the row's
    words."""
    for n in range(14, 24):
        row = search.sd_max(n, ONE)
        plan = plans[-1]
        blocks = search._blocks(n)
        heads = search._heads(n, blocks.k)
        evaluated = 0
        for threshold, start, stop in plan:
            chunk = heads[start:stop]
            count = search._scan_chunk(n, 0, threshold, chunk, blocks.rows(n, chunk))[3]
            assert count <= _counted_words(n, threshold)[start:stop].sum()
            evaluated += count
        assert evaluated == row.words_evaluated
        assert row.chunks == len(plan)


def test_scan_chunk_runs_one_kernel_call_a_vector(monkeypatch):
    """A chunk runs the palindrome vector on all its words in one kernel
    call, and the antipalindrome vector in one more on exactly the words
    whose deletions to a palindrome reach the threshold: row 24's first
    2^17 counted words evaluate 70 240 words, and 4 845 of them take the
    second pass."""
    calls = []
    kernel = search._mirror_lcs

    def recorded(bits, n, starts=None, pal=True, anti=True):
        calls.append((bits.copy(), pal, anti))
        return kernel(bits, n, starts, pal, anti)

    monkeypatch.setattr(search, "_mirror_lcs", recorded)
    n, blocks = 24, search._blocks(24)
    t = search._threshold(n)
    row_words = search._row_words(blocks, t)
    span = len(search._heads(n, blocks.k)) // row_words.size
    stop = search._cut(search._totals(row_words, span), span, 0, 1 << 17)
    chunk = search._heads(n, blocks.k)[:stop]
    count = search._scan_chunk(n, 8, t, chunk, blocks.rows(n, chunk))[3]
    assert count == 70240
    [(words, *first), (near, *second)] = calls
    assert first == [True, False] and second == [False, True]
    assert words.size == count
    vp, _ = kernel(words, n)
    assert near.tolist() == words[np.bitwise_count(vp) >= t].tolist()
    assert near.size == 4845


def _check_chunks_against_reference(n, plan):
    """Each chunk of row n's ``plan``, at its threshold and one below and
    one above it, counts and evaluates the words of the reference chunk
    scan, and finds its best and hits wherever that best reaches the
    threshold; elsewhere it finds -1 and no hits."""
    blocks = search._blocks(n)
    heads = search._heads(n, blocks.k)
    for threshold, start, stop in plan:
        chunk = heads[start:stop]
        rows = blocks.rows(n, chunk)
        for t in (threshold - 1, threshold, threshold + 1):
            best, hits, count, evaluated = reference_scan_chunk(n, 8, t, chunk, rows)
            if best < t:
                best, hits = -1, []
            assert search._scan_chunk(n, 8, t, chunk, rows) == (
                best, hits, count, evaluated
            ), (n, t, start)


def test_chunks_match_the_reference_scan(monkeypatch, plans):
    """Every chunk of rows 1..22 at the real budgets, and of rows 23..26
    with every chunk closed at 2^12 counted words, at the extremal limits
    0 and 8."""
    for limit in (0, 8):
        compute_table(1, 22, SearchConfig(worker_count=1, extremal_limit=limit))
    with monkeypatch.context() as m:
        m.setattr(search, "_BUDGET", 1 << 12)
        for limit in (0, 8):
            compute_table(23, 26, SearchConfig(worker_count=1, extremal_limit=limit))
    rows = [*range(1, 23)] * 2 + [*range(23, 27)] * 2
    assert len(plans) == len(rows)
    for n, plan in zip(rows, plans):
        _check_chunks_against_reference(n, plan)


def test_table_determinism_across_chunks(pool_every_row, plans):
    """Row 19's first 90 extremal words end inside its fourth chunk; rows 21
    and 23 merge the hits of several chunks of their plans.  Every worker
    count, on a pool or not, gives the same rows."""
    tables = [
        compute_table(19, 23, SearchConfig(worker_count=jobs, extremal_limit=90))
        for jobs in (1, 2, 3)
    ]
    row19, _, row21, _, row23 = tables[0]
    assert len(row19.extremal) == 90
    assert _chunks_of(19, plans[0], row19.extremal) == {1, 2, 3}
    assert len(_chunks_of(21, plans[2], row21.extremal)) > 1
    assert len(_chunks_of(23, plans[4], row23.extremal)) > 1
    assert [row.chunks for row in tables[0]] == [6, 7, 22, 11, 55]
    assert all(row.pooled for row in tables[1])
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]


def _plain_scan(n, limit):
    """Maximum sd over every word of length n by a walk over all 2^n words,
    its first ``limit`` canonical achievers in ascending order, and the
    number of canonical words.  A word is canonical when it equals the
    least of its reversal/complement images; the reversal moves one bit
    position at a time, sharing no code with the scan's canonical test."""
    bits = np.arange(1 << n, dtype=np.int64)
    values = sd_batch(bits, n)
    best = int(values.max())
    rev = np.zeros_like(bits)
    for i in range(n):
        rev |= ((bits >> i) & 1) << (n - 1 - i)
    mask = (1 << n) - 1
    canonical = bits == np.minimum.reduce([bits, rev, bits ^ mask, rev ^ mask])
    hits = bits[canonical & (values == best)]
    return best, hits[:limit].tolist(), int(np.count_nonzero(canonical))


def test_sd_max_matches_plain_scan():
    """Scanning only the a-half in chunks gives the answer of the plain
    scan of every word, on one worker and on two."""
    for n in range(1, 19):
        best, hits, count = _plain_scan(n, 64)
        for jobs in (1, 2):
            row = sd_max(n, SearchConfig(worker_count=jobs, extremal_limit=64))
            assert row.sd == best
            assert [w.bits for w in row.extremal] == hits
            assert row.words_scanned == count


def _block_maxima(n, k):
    """Exact maximum sd over the middles of each a-prefixed block (u, v),
    indexed like ``search._block_bounds``."""
    values = sd_batch(np.arange(1 << (n - 1), dtype=np.int64), n)
    return values.reshape(1 << (k - 1), 1 << (n - 2 * k), 1 << k).max(axis=1)


def test_block_bound_is_sound_exhaustive():
    """At the checked sizes and at every size the k rule picks up to n = 20,
    no block holds a word above its bound.  The bound is exact on 47, 159
    and 708 of the a-prefixed blocks at (14, 4), (16, 5) and (17, 6)."""
    picked = {(n, search._block_letters(n)) for n in range(1, 21)}
    sizes = {(14, 4), (16, 5), (17, 6)} | {(n, k) for n, k in picked if k}
    assert {n for n, _ in sizes} >= {16, 17, 18, 19, 20}
    tight = {}
    for n, k in sorted(sizes):
        bound, exact = search._block_bounds(n, k), _block_maxima(n, k)
        assert bound.shape == exact.shape
        assert (bound >= exact).all(), (n, k)
        tight[n, k] = int(np.count_nonzero(bound == exact))
    assert [tight[14, 4], tight[16, 5], tight[17, 6]] == [47, 159, 708]


def test_block_classes_exhaustive():
    """On every row up to 20, a block with a bound holds only canonical
    words, each tie block of a prefix (v = rev u and v = comp rev u) holds
    some but not all of them, and every other block holds none; at k = 0
    the one tie block holds the a-half.  Each bound is ``_block_bounds``'s,
    and the tie blocks have none in the table.  The blocks keep each
    prefix's tie suffixes and its count of blocks with a bound."""
    for n in range(1, 21):
        blocks = search._blocks(n)
        k, bounds, ties = blocks.k, blocks.bounds, blocks.ties
        prefixes = np.arange(len(bounds))
        canon = _is_canonical(np.arange(1 << (n - 1), dtype=np.int64), n)
        share = canon.reshape(len(bounds), -1, 1 << k).mean(axis=1)
        tie = np.zeros(bounds.shape, bool)
        suffixes = search._tie_suffixes(prefixes, k)
        tie[prefixes[:, None], suffixes] = True
        assert np.count_nonzero(tie) == (2 * len(bounds) if k else 1)
        assert (share[bounds >= 0] == 1).all()
        if k:
            assert ((share[tie] > 0) & (share[tie] < 1)).all()
        else:
            assert share[tie] > 0
        assert (share[~tie & (bounds < 0)] == 0).all()
        assert (bounds[tie] == -1).all()
        exact = search._block_bounds(n, k)
        assert (bounds[bounds >= 0] == exact[bounds >= 0]).all()
        assert (ties == np.take_along_axis(exact, suffixes, axis=1)).all()
        assert (blocks.suffixes == suffixes).all()
        assert (blocks.all_canonical == np.count_nonzero(bounds >= 0, axis=1)).all()


def test_threshold_is_the_lower_bound():
    """The family word of each length reaches the paper's lower bound."""
    for n in range(3, MAX_SEARCH_LENGTH + 1):
        assert search._threshold(n) == lower_bound(n)


def test_block_letters_leave_a_middle():
    """k is 0 up to five letters; otherwise a block has a middle of at
    least four letters, and the bound table at most 2^21 blocks."""
    for n in range(1, MAX_SEARCH_LENGTH + 1):
        k = search._block_letters(n)
        assert (k == 0) == (n <= 5)
        assert k == 0 or n - 2 * k >= 4
        assert k <= 11


def _assert_same_arrays(got, expected, what):
    """Equal fields, arrays alike in dtype and shape too."""
    for field, (a, b) in enumerate(zip(got, expected, strict=True)):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, (what, field)
        assert np.array_equal(a, b), (what, field)


def test_blocks_match_the_reference():
    """Every row 1..34's blocks equal those each row once built alone
    (``reference_blocks``), field by field with dtypes, and rows 1..24's
    bound tables at every k up to one above their own (at most 11).  The
    two rows of each length pair n // 2 share their k with opposite
    parities, so each pair is built both ways from an empty cache: the
    row that builds the terms first and the row that reads them."""
    expected = {n: reference_blocks(n) for n in range(1, 35)}
    pairs = [(1,)] + [(n, n + 1) for n in range(2, 34, 2)] + [(34,)]
    for pair in pairs:
        for order in {pair, pair[::-1]}:
            search._block_terms.cache_clear()
            for n in order:
                _assert_same_arrays(search._blocks(n), expected[n], n)
    for n in range(1, 25):
        for k in range(min(search._block_letters(n) + 1, 11) + 1):
            table = search._block_bounds(n, k)
            _assert_same_arrays([table], [reference_block_bounds(n, k)], (n, k))


def test_cached_parts_refuse_writes_and_tables_are_fresh():
    """The terms of each k and the tie middles of each row are built once
    and refuse writes; each ``_blocks`` call makes new, writable bound
    tables, so writing into one leaves the next call's as they were."""
    blocks = search._blocks(20)
    terms = search._block_terms(blocks.k)
    cached = [*terms, search._tie_middles(20, blocks.k)]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    assert search._block_terms(blocks.k) is terms
    assert blocks.middles is cached[-1]
    before = reference_blocks(20)
    _assert_same_arrays(blocks, before, 20)
    blocks.bounds[:] = 99
    blocks.ties[:] = 99
    _assert_same_arrays(search._blocks(20), before, 20)


def test_pooled_row_drops_the_cached_terms(recorded, pool_every_row, monkeypatch):
    """A row that opens a pool drops every k's cached terms first, so that
    its forked workers do not inherit them; its row is the one this
    process computes."""
    cached = []

    class Counted(search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            cached.append(search._block_terms.cache_info().currsize)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", Counted)
    one = sd_max(16, ONE)
    assert search._block_terms.cache_info().currsize > 0
    row = sd_max(16, SearchConfig(worker_count=2))
    assert row.pooled and recorded[0] == ("open", 2)
    assert cached == [0]
    assert row == one


@pytest.fixture(scope="module")
def plain_rows():
    """The scan with no bound of rows 1..22, with the first 100 canonical
    achievers of each, which hold the first ``limit`` for every smaller
    limit."""
    return [plain_canonical_scan(n, 100) for n in range(1, 23)]


@pytest.mark.parametrize("limit", [0, 1, 8, 64, 100])
def test_branch_and_bound_matches_plain_canonical_scan(
    pool_every_row, plain_rows, limit
):
    """Every row up to 22, in this process and on a pool of two workers,
    has the maximum, the extremal words and the canonical count of
    ``sd_batch`` over every canonical word of the a-half, sorted: the scan
    with no bound and no incumbent."""
    for jobs in (1, 2):
        rows = compute_table(
            1, 22, SearchConfig(worker_count=jobs, extremal_limit=limit)
        )
        for row, (best, hits, count) in zip(rows, plain_rows):
            assert row.sd == best
            assert [w.bits for w in row.extremal] == hits[:limit]
            assert row.words_scanned == count


def test_progress_reports_at_chunk_boundaries(pool_every_row, plans, capsys):
    """At two workers row 22 goes out on a pool in the chunks of its plan;
    with a zero interval each chunk reports once, with the exact canonical
    total of the heads before its end and the incumbent value, which
    starts at the row's threshold 8."""
    n = 22
    row = search.sd_max(n, SearchConfig(worker_count=2, progress_interval=0))
    lines = capsys.readouterr().err.splitlines()
    ends = np.array([stop for _, _, stop in plans[0]])
    canonical = _is_canonical(np.arange(1 << (n - 1)), n)
    per_head = canonical.reshape(-1, 1 << search._block_letters(n)).sum(axis=1)
    totals = np.cumsum(per_head)[ends - 1].tolist()
    assert row.pooled and row.chunks == len(ends) > 2
    assert [int(line.split()[2]) for line in lines] == totals
    assert {line.split()[-1] for line in lines} == {"8"}
    assert lines[-1] == f"n=22: scanned {row.words_scanned} words, current max 8"


def _beats_a_full_list(results, start, limit):
    """Whether, merged in order from an incumbent at ``start`` with an
    empty list, a chunk's value (its first field) beats a list already
    full: ``results`` are the chunk results of one row.  The list keeps at
    most ``limit`` words, as ``sd_max``'s does."""
    best, listed = start, 0
    for value, hits, *_ in results:
        if value > best:
            if listed == limit:
                return True
            best, listed = value, 0
        if value == best:
            listed = min(limit, listed + len(hits))
    return False


@pytest.mark.parametrize(
    "drop, beaten",
    [(1, [18, 19, 21, 22]), (2, [18, 19, 20, 21, 22])],
    ids=["1", "2"],
)
def test_threshold_rises_again_when_a_later_chunk_beats_a_full_list(
    monkeypatch, pool_every_row, plans, drop, beaten
):
    """With the incumbent started ``drop`` below the row's value, the list
    fills at the lower value, the threshold rises one above it, and a later
    chunk that finds a larger value empties the list and raises it again:
    rows ``beaten`` of rows 14..22 take that path.  In this process and on
    a pool of two workers the rows are those of the real threshold, byte
    for byte, and each row's threshold only rises."""
    config = SearchConfig(worker_count=1)
    expected = [row_to_json(row) for row in compute_table(14, 22, config)]
    threshold = search._threshold
    monkeypatch.setattr(search, "_threshold", lambda n: threshold(n) - drop)
    pooled = compute_table(14, 22, SearchConfig(worker_count=2))
    results = {n: [] for n in range(14, 23)}
    scan_chunk = search._scan_chunk

    def scan_chunk_recorded(n, *args):
        results[n].append(scan_chunk(n, *args))
        return results[n][-1]

    monkeypatch.setattr(search, "_scan_chunk", scan_chunk_recorded)
    del plans[:]
    rows = compute_table(14, 22, config)
    assert [row_to_json(row) for row in pooled] == expected
    assert [row_to_json(row) for row in rows] == expected
    assert [
        n
        for n in results
        if _beats_a_full_list(results[n], search._threshold(n), 8)
    ] == beaten
    for n, plan in zip(results, plans):
        assert _thresholds(plan) == sorted(_thresholds(plan))
        assert _thresholds(plan)[0] == search._threshold(n)


def test_limit_zero_starts_one_above_the_threshold(plans):
    """With no extremal word kept the list is full from the start: every
    chunk is cut one above T, and the row's value is the larger of T and
    the best value found, which every real row reaches."""
    rows = compute_table(3, 24, SearchConfig(worker_count=1, extremal_limit=0))
    for row, plan in zip(rows, plans):
        t = search._threshold(row.n)
        assert set(_thresholds(plan)) == {t + 1}, row.n
        assert row.sd == t == lower_bound(row.n)
        assert row.extremal == ()


def test_limit_above_the_achievers_never_switches(plans):
    """A limit above the row's canonical achievers never fills the list:
    every chunk is cut at T, and the row evaluates every canonical word of
    the blocks whose bound reaches T, as the scan without an incumbent."""
    limit = 1 << 20
    rows = compute_table(1, 22, SearchConfig(worker_count=1, extremal_limit=limit))
    for row, plan in zip(rows, plans):
        n, t = row.n, search._threshold(row.n)
        assert set(_thresholds(plan)) == {t}, n
        blocks = search._blocks(n)
        heads = search._heads(n, blocks.k)
        whole = search._scan_chunk(n, limit, t, heads, blocks)
        assert row.words_evaluated == whole[3]
        assert [w.bits for w in row.extremal] == whole[1]
        assert len(row.extremal) < limit


def test_extremal_limit_respected():
    row = sd_max(8, SearchConfig(worker_count=1, extremal_limit=2))
    assert len(row.extremal) == 2
    wide = sd_max(8, SearchConfig(worker_count=1, extremal_limit=8))
    assert row.extremal == wide.extremal[:2]


def test_guards():
    assert MAX_SEARCH_LENGTH == 32
    with pytest.raises(LengthBudgetExceeded):
        sd_max(33, ONE)
    with pytest.raises(ValueError):
        sd_max(0, ONE)
    with pytest.raises(ValueError):
        compute_table(5, 4, ONE)
    with pytest.raises(LengthBudgetExceeded):
        compute_table(1, 33, ONE)
    with pytest.raises(ValueError):
        SearchConfig(worker_count=0)


def test_known_values_sequence():
    assert [KNOWN_MAX_SD[n] for n in range(1, 21)] == [
        0, 0, 1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 5, 6, 7, 7, 7, 8,
    ]


def test_row_json_round_trip():
    row = sd_max(6, ONE)
    line = row_to_json(row)
    parsed = json.loads(line)
    assert json.dumps(parsed) == line
    assert parsed["n"] == 6
    assert parsed["sd"] == 2
    assert set(parsed) == {"n", "sd", "lower", "upper", "extremal"}


def test_row_csv_shape():
    row = sd_max(3, ONE)
    assert row_to_csv(row) == "3,1,1,1,aab"
