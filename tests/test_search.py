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

from _helpers import batched_table_lengths, plain_canonical_scan, table_lengths

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


def _counted_words(n):
    """The counted kernel words of each task of row n."""
    return search._task_words(search._blocks(n), search._task_starts(n))


@pytest.fixture
def pool_every_row(monkeypatch):
    """Send every row to a pool, however little kernel work it counts, and
    close a chunk at each task that counts a word, so that such a task is
    a chunk of its own and a row has chunks enough for every worker."""
    monkeypatch.setattr(search, "_POOL_WORDS", 0)
    monkeypatch.setattr(search, "_BUDGET", 1)


@pytest.fixture
def recorded(monkeypatch):
    """The events of every pool the test opens: ("open", workers asked
    for), ("map", row n) and ("shutdown",), on a machine that reports eight
    CPUs."""
    events = []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)

    class RecordingPool(search.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            events.append(("open", max_workers))
            # never start more than two processes, whatever is asked for
            super().__init__(max_workers=min(max_workers, 2), **kwargs)

        def map(self, fn, *iterables, **kwargs):
            events.append(("map", fn.args[0]))
            return super().map(fn, *iterables, **kwargs)

        def shutdown(self, *args, **kwargs):
            events.append(("shutdown",))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    return events


def test_worker_determinism(pool_every_row):
    """n = 19 scans 16 tasks on a pool; its first 90 extremal words come
    from two of them, and the limit cuts the second task's list."""
    rows = [
        sd_max(19, SearchConfig(worker_count=jobs, extremal_limit=90))
        for jobs in (1, 2, 3)
    ]
    assert [row.pooled for row in rows] == [False, True, True]
    assert len(rows[0].extremal) == 90
    assert len({w.bits >> 14 for w in rows[0].extremal}) > 1
    assert rows[1] == rows[0]
    assert rows[2] == rows[0]


def _row_pools(workers):
    """The events of rows that each open, use and shut down their own pool:
    row n asks for ``workers[n]`` workers."""
    return [
        event
        for n, w in workers.items()
        for event in (("open", w), ("map", n), ("shutdown",))
    ]


def test_pool_capped_at_chunk_count(monkeypatch, recorded):
    """At the real budget row 22's tasks make three chunks, so eight
    requested workers on eight CPUs start a pool of three; the row is the
    one-worker row."""
    monkeypatch.setattr(search, "_POOL_WORDS", 0)
    row = sd_max(22, SearchConfig(worker_count=8))
    assert recorded == _row_pools({22: 3})
    assert row.pooled and row.chunks == 3
    assert row == sd_max(22, ONE)


def test_each_pooled_row_starts_its_own_pool(pool_every_row, recorded):
    """Rows 1..15 have one task each, which leaves one worker, so they run
    in this process.  Each of rows 16..19 opens its own pool, sized by its
    own chunks, one per task: 2, 4 and 8, and row 19's 16 chunks capped at
    the eight CPUs.  Each pool is shut down before the next row opens one,
    and the rows are the one-worker rows."""
    rows = compute_table(1, 19, SearchConfig(worker_count=8))
    assert recorded == _row_pools({16: 2, 17: 4, 18: 8, 19: 8})
    assert [row.pooled for row in rows] == [False] * 15 + [True] * 4
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
    eight workers run the whole table in this process.  A row of one task
    counts at most ``_TASK`` words, so it never pools."""
    rows = compute_table(1, 22, SearchConfig(worker_count=8))
    assert recorded == []
    assert not any(row.pooled for row in rows)
    assert max(_counted_words(n).sum() for n in range(1, 23)) < search._POOL_WORDS
    assert search._TASK < search._POOL_WORDS


def test_pool_opens_at_each_row_over_the_threshold(monkeypatch, recorded):
    """With the threshold at row 19's counted words, rows 16..18 and 20
    run in this process and rows 19 and 21 each on a pool of their own,
    opened while the row runs and shut down before it returns; the
    decision is per row, not per range.  A chunk per task that counts a
    word leaves row 19 two workers."""
    counted = {n: _counted_words(n).sum() for n in range(16, 22)}
    monkeypatch.setattr(search, "_POOL_WORDS", counted[19])
    monkeypatch.setattr(search, "_BUDGET", 1)
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
        ("row", 19), ("open", 2), ("map", 19), ("shutdown",), ("done", 19),
        ("row", 20), ("done", 20),
        ("row", 21), ("open", 2), ("map", 21), ("shutdown",), ("done", 21),
    ]
    assert [row.pooled for row in rows] == [0, 0, 0, 1, 0, 1]
    assert rows == compute_table(16, 21, ONE)
    del recorded[:]
    compute_table(16, 18, config)
    assert [e for e in recorded if e[0] not in ("row", "done")] == []


def _task_words_by_spread(n, blocks, starts):
    """The words of each task's kept blocks of class _ALL or _TIE, spread
    word by word as ``_scan_chunk`` spreads them."""
    k, classes, kept, _ = blocks
    out = []
    for lo in starts:
        heads = np.arange(lo, lo + starts.step, 1 << k, dtype=np.int64)
        rows = heads >> (n - k)
        kept_words = search._spread(heads, rows, kept & (classes != search._NONE))
        out.append(kept_words.size)
    return out


def test_chunk_plan_covers_every_task_once():
    """Per-task counts equal the words the scan builds, and the plan cuts
    the tasks in order into chunks, each closed at the first task that
    brings its words to ``_BUDGET``: every chunk but the last reaches it,
    and none reaches it without its last task."""
    for n in range(1, 27):
        starts, blocks = search._task_starts(n), search._blocks(n)
        words = search._task_words(blocks, starts)
        if n <= 22:
            assert words.tolist() == _task_words_by_spread(n, blocks, starts)
        cuts = search._chunk_plan(words)
        assert cuts[0] == 0 and cuts[-1] == len(starts)
        for i, j in zip(cuts, cuts[1:]):
            assert i < j
            assert words[i : j - 1].sum() < search._BUDGET
            if j < len(starts):
                assert words[i:j].sum() >= search._BUDGET


def test_chunk_counts_bound_the_words_evaluated():
    """Each chunk's counted words are at least the words it sends to the
    kernel, and the chunks together evaluate the row's words."""
    for n in range(14, 24):
        starts, blocks = search._task_starts(n), search._blocks(n)
        words = search._task_words(blocks, starts)
        cuts = search._chunk_plan(words)
        evaluated = 0
        for i, j in zip(cuts, cuts[1:]):
            chunk = starts[i:j]
            count = search._scan_chunk(n, 0, chunk, blocks.rows(n, chunk))[3]
            assert count <= words[i:j].sum()
            evaluated += count
        row = sd_max(n, ONE)
        assert evaluated == row.words_evaluated
        assert row.chunks == len(cuts) - 1


def test_table_determinism_across_chunks(pool_every_row):
    """Row 19's first 90 extremal words end inside its second task; row 21
    merges the hits of several tasks and row 23 the hits of several chunks
    of its plan.  Every worker count, on a pool or not, gives the same
    rows."""
    tables = [
        compute_table(19, 23, SearchConfig(worker_count=jobs, extremal_limit=90))
        for jobs in (1, 2, 3)
    ]
    row19, _, row21, _, row23 = tables[0]
    assert len(row19.extremal) == 90
    assert {w.bits >> 14 for w in row19.extremal} == {0, 1}
    assert len({w.bits >> 14 for w in row21.extremal}) > 1
    ends = np.array(search._chunk_plan(_counted_words(23))[1:]) << 14
    bits = [w.bits for w in row23.extremal]
    assert len(set(np.searchsorted(ends, bits, side="right"))) > 1
    assert [row.tasks for row in tables[0]] == [16, 32, 64, 128, 256]
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
    """Scanning only the a-half in tasks gives the answer of the plain scan
    of every word, on one worker and on two."""
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
    """A none block holds no canonical word and an all block only canonical
    words; each prefix u has two tie blocks, v = rev u and v = comp rev u."""
    for n in range(16, 21):
        k = search._block_letters(n)
        classes = search._blocks(n).classes
        canon = _is_canonical(np.arange(1 << (n - 1), dtype=np.int64), n)
        share = canon.reshape(1 << (k - 1), 1 << (n - 2 * k), 1 << k).mean(axis=1)
        assert (share[classes == search._NONE] == 0).all()
        assert (share[classes == search._ALL] == 1).all()
        assert np.count_nonzero(classes == search._TIE) == 2 * (1 << (k - 1))


def test_threshold_is_the_lower_bound():
    """The family word of each length reaches the paper's lower bound."""
    for n in range(3, MAX_SEARCH_LENGTH + 1):
        assert search._threshold(n) == lower_bound(n)


def test_block_letters_fit_a_task():
    """k is 0 on one-task rows; otherwise a block has a middle and a task
    holds whole suffixes."""
    for n in range(1, MAX_SEARCH_LENGTH + 1):
        k = search._block_letters(n)
        assert (k == 0) == (len(search._task_starts(n)) == 1)
        assert 2 * k < n
        assert 1 << k <= search._TASK


@pytest.fixture(scope="module")
def plain_rows():
    """The scan with no bound of rows 1..22, with the first 100 canonical
    achievers of each, which hold the first ``limit`` for every smaller
    limit."""
    return [plain_canonical_scan(n, 100) for n in range(1, 23)]


@pytest.mark.parametrize("limit", [0, 1, 8, 100])
def test_branch_and_bound_matches_plain_canonical_scan(
    pool_every_row, plain_rows, limit
):
    """Every row up to 22, in this process and on a pool of two workers,
    has the maximum, the extremal words and the canonical count of the
    scan with no bound."""
    for jobs in (1, 2):
        rows = compute_table(
            1, 22, SearchConfig(worker_count=jobs, extremal_limit=limit)
        )
        for row, (best, hits, count) in zip(rows, plain_rows):
            assert row.sd == best
            assert [w.bits for w in row.extremal] == hits[:limit]
            assert row.words_scanned == count


def test_progress_reports_at_chunk_boundaries(pool_every_row, capsys):
    """At two workers row 22 goes out on a pool in the chunks of its plan;
    with a zero interval each chunk reports once, with the exact canonical
    total of the tasks before its end."""
    n, task = 22, 1 << 14
    row = sd_max(n, SearchConfig(worker_count=2, progress_interval=0))
    lines = capsys.readouterr().err.splitlines()
    cuts = search._chunk_plan(_counted_words(n))
    per_task = [
        int(np.count_nonzero(_is_canonical(np.arange(lo, lo + task), n)))
        for lo in search._task_starts(n)
    ]
    totals = np.cumsum(per_task)[np.array(cuts[1:]) - 1].tolist()
    assert row.pooled and row.chunks == len(cuts) - 1 > 2
    assert [int(line.split()[2]) for line in lines] == totals
    assert lines[-1] == f"n=22: scanned {row.words_scanned} words, current max 8"


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
