import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palsym import (
    MAX_LENGTH,
    LengthBudgetExceeded,
    SdResult,
    SymmetryClass,
    Word,
    all_words,
    brute_force_sd,
    las_length,
    lps_length,
    parse_word,
    sd,
    sd_witness,
)
from palsym.deletions import (
    _SLICE,
    _lane_counts,
    _mirror_lcs,
    _pack,
    _tables,
    _target_deletions,
    _witnesses,
)

from _helpers import (
    batched_table_lengths,
    brute_las,
    brute_lps,
    deletion_set_sd,
    is_symmetric_text,
    reference_mirror_lcs,
    reference_witness,
    scalar_table,
    table_lengths,
)

word_texts = st.text(alphabet="ab", max_size=12)


def test_lps_examples():
    assert lps_length(parse_word("abba")) == 4
    assert lps_length(parse_word("aab")) == 2 == brute_lps("aab")
    assert lps_length(parse_word("")) == 0


def test_las_examples():
    assert las_length(parse_word("aabb")) == 4
    assert las_length(parse_word("aba")) == 2 == brute_las("aba")
    assert las_length(parse_word("aaa")) == 0


def test_sd_examples():
    assert sd(parse_word("ab")).value == 0
    assert sd(parse_word("aabbbb")).value == 2 == brute_force_sd(parse_word("aabbbb"))
    assert sd(parse_word("bbabbbbaaa")).value == 4
    assert sd(parse_word("")) .value == 0


def test_sd_value_identity():
    for n in range(9):
        for w in all_words(n):
            r = sd(w)
            assert r.value == len(w) - max(r.lps, r.las)


def _subset_scan(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Longest palindromic and antipalindromic subsequence of each text of
    one length n, by a scan of every (text, subset of positions) pair, the
    subsets of m positions at once for each m: a subsequence is a
    palindrome when it equals its reversal letter by letter, and an
    antipalindrome when it differs from it at every place."""
    n = len(texts[0])
    letters = np.array([[c == "b" for c in t] for t in texts], bool)
    letters = letters.reshape(len(texts), n)
    lps = np.zeros(len(texts), np.int64)
    las = np.zeros(len(texts), np.int64)
    for m in range(n + 1):
        subsets = list(itertools.combinations(range(n), m))
        subsets = np.array(subsets, np.int64).reshape(len(subsets), m)
        picked = letters[:, subsets]  # (text, subset, letter)
        mirrored = picked[..., ::-1]
        lps[(picked == mirrored).all(axis=-1).any(axis=-1)] = m
        las[(picked != mirrored).all(axis=-1).any(axis=-1)] = m
    return lps, las


def test_lps_las_against_subset_scan():
    """The kernel agrees with a full subset scan (all words <= 9)."""
    for n in range(10):
        words = list(all_words(n))
        lps, las = _subset_scan([str(w) for w in words])
        for w, longest_pal, longest_anti in zip(words, lps, las):
            assert lps_length(w) == longest_pal
            assert las_length(w) == longest_anti


def _check_against_tables(w, lps, las):
    assert lps_length(w) == lps
    assert las_length(w) == las
    r = sd(w)
    assert (r.value, r.lps, r.las) == (len(w) - max(lps, las), lps, las)


def test_kernel_matches_tables_exhaustive():
    """The bit-parallel kernel equals the interval tables (all words <= 14)."""
    for n in range(15):
        lps, las = batched_table_lengths(n)
        for w in all_words(n):
            _check_against_tables(w, lps[w.bits], las[w.bits])


@given(
    st.integers(0, MAX_LENGTH).flatmap(
        lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
    )
)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_tables_sampled(text):
    _check_against_tables(parse_word(text), *table_lengths(text))


@given(
    st.integers(MAX_LENGTH + 1, 160).flatmap(
        lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
    )
)
@settings(max_examples=30, deadline=None)
def test_kernel_matches_tables_past_a_lane(text):
    """Scalar ``sd``, ``lps_length`` and ``las_length`` have no length
    limit: on 64..160 letters they equal the scalar interval recurrence."""
    _check_against_tables(parse_word(text), *table_lengths(text))


def test_lanes_refuse_a_64_letter_word():
    """``sd_witness`` and ``_target_deletions`` pack lanes, so they refuse
    a word of 64 letters with the message that ``palsym sd`` prints."""
    message = "^word of length 64 exceeds the 63-letter limit$"
    with pytest.raises(LengthBudgetExceeded, match=message):
        sd_witness(Word(64, 0))
    with pytest.raises(LengthBudgetExceeded, match=message):
        _target_deletions([0], [64])
    with pytest.raises(LengthBudgetExceeded, match=message):
        _target_deletions([0, 1], [3, 64])


def test_witness_examples():
    w = sd_witness(parse_word("ab"))
    assert w.deleted_positions == ()
    assert w.target is SymmetryClass.ANTIPALINDROME
    assert str(w.residual) == "ab"

    w = sd_witness(parse_word("aaa"))
    assert w.deleted_positions == ()
    assert w.target is SymmetryClass.PALINDROME

    w = sd_witness(parse_word("aab"))
    assert w.deleted_positions == (3,)
    assert w.target is SymmetryClass.PALINDROME
    assert str(w.residual) == "aa"


def _check_witness(word):
    witness = sd_witness(word)
    assert witness.result == sd(word)
    assert len(witness.deleted_positions) == sd(word).value
    assert list(witness.deleted_positions) == sorted(set(witness.deleted_positions))
    text = str(word)
    dropped = {p - 1 for p in witness.deleted_positions}
    rebuilt = "".join(c for i, c in enumerate(text) if i not in dropped)
    assert rebuilt == str(witness.residual)
    cls = witness.residual.symmetry_class()
    assert cls in (witness.target, SymmetryClass.BOTH)


def test_witness_valid_exhaustive():
    """Witnesses replay to a symmetric residual of the right size
    (all words <= 10)."""
    for n in range(11):
        for w in all_words(n):
            _check_witness(w)


@given(st.text(alphabet="ab", min_size=13, max_size=18))
@settings(max_examples=60)
def test_witness_valid_longer_words(text):
    _check_witness(parse_word(text))


def _check_witness_rule(text):
    witness = sd_witness(parse_word(text))
    got = (witness.deleted_positions, witness.target, str(witness.residual))
    assert got == reference_witness(text)


def _chunk_witnesses(texts):
    """``sd`` and witness of each word of one chunk, as ``palsym sd``
    computes them: an ``SdResult`` and (deleted positions, target,
    residual text)."""
    lengths = list(map(len, texts))
    pal, anti = _target_deletions([parse_word(t).bits for t in texts], lengths)
    results = [
        SdResult(min(p, a), n - p, n - a) for n, p, a in zip(lengths, pal, anti)
    ]
    targets = {True: SymmetryClass.PALINDROME, False: SymmetryClass.ANTIPALINDROME}
    witnesses = [
        (deleted, targets[want_pal], residual)
        for deleted, want_pal, residual in _witnesses(texts, pal, anti)
    ]
    return results, witnesses


def test_witness_matches_reference_exhaustive():
    """Target choice and tie-breaks equal the two-table backtrack (all
    words <= 14), answered in chunks of 64 words as ``palsym sd`` sends
    them; single-word ``sd_witness`` is checked by the sampled test."""
    texts = [str(w) for n in range(15) for w in all_words(n)]
    for start in range(0, len(texts), 64):
        chunk = texts[start : start + 64]
        _, witnesses = _chunk_witnesses(chunk)
        assert witnesses == [reference_witness(t) for t in chunk]


@given(
    st.integers(15, MAX_LENGTH).flatmap(
        lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
    )
)
@settings(max_examples=200, deadline=None)
def test_witness_matches_reference_sampled(text):
    _check_witness_rule(text)


def _check_batched_tables(texts, pal):
    n = max(map(len, texts))
    tables = _tables(texts, np.array(pal, dtype=bool))
    assert tables.shape == (len(texts), n, n)
    for table, text, want_pal in zip(tables, texts, pal):
        m = len(text)
        assert table[:m, :m].tolist() == scalar_table(text, want_pal)


def test_batched_tables_match_scalar_exhaustive():
    """Every cell of the batched table equals the scalar recurrence, for
    both targets of every word of 0..12 letters."""
    for n in range(13):
        texts = [str(w) for w in all_words(n)]
        _check_batched_tables(texts * 2, [True] * len(texts) + [False] * len(texts))


mixed_batches = st.lists(
    st.tuples(
        st.integers(0, MAX_LENGTH).flatmap(
            lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


_LANE_ONES = (1 << 64) - 1


@given(
    st.lists(
        st.one_of(
            st.just(0),
            st.just(_LANE_ONES),
            st.integers(1 << 63, _LANE_ONES),
            st.integers(0, _LANE_ONES),
        ),
        min_size=1,
        max_size=64,
    )
)
@example([_LANE_ONES] * 64)
@example([1 << 63, 0, _LANE_ONES, 0])
@example([0] * 33)
@settings(max_examples=200, deadline=None)
def test_lane_counts_match_numpy(lanes):
    """The numpy-free lane popcount equals ``np.bitwise_count`` on the
    lanes: empty and all-ones lanes, bit 63 set, 1..64 lanes."""
    vector = sum(v << (64 * k) for k, v in enumerate(lanes))
    expected = np.bitwise_count(np.array(lanes, np.uint64)).tolist()
    assert _lane_counts(vector, len(lanes)) == expected


def test_empty_chunk_has_no_lanes():
    """A chunk of no words has no lanes to count and no results."""
    assert _lane_counts(0, 0) == []
    assert _chunk_witnesses([]) == ([], [])


@given(mixed_batches)
@example(
    [("b" * MAX_LENGTH, True), ("b" * MAX_LENGTH, False), ("", True), ("ab", False)]
)
@example([("", False)])
@settings(max_examples=60, deadline=None)
def test_batched_tables_match_scalar_mixed_lengths(batch):
    """Words of different lengths share one batched table, each in the
    top-left corner of its slice."""
    texts, pal = zip(*batch)
    _check_batched_tables(texts, pal)


def test_packed_lanes_match_scalar_exhaustive():
    """One kernel pass over packed lanes of mixed lengths gives each word's
    scalar ``sd`` (every word of 0..14 letters, shuffled into chunks of 64)."""
    words = [w for n in range(15) for w in all_words(n)]
    random.Random(14).shuffle(words)
    for start in range(0, len(words), 64):
        chunk = words[start : start + 64]
        results, _ = _chunk_witnesses([str(w) for w in chunk])
        assert results == [sd(w) for w in chunk]


@given(mixed_batches)
@example(
    [("b" * MAX_LENGTH, True), ("a" * MAX_LENGTH, True), ("", True), ("b", True)]
)
@settings(max_examples=80, deadline=None)
def test_packed_chunks_match_scalar_sampled(batch):
    """Packed lanes and batched witness tables of mixed lengths 0..63 give
    each word's scalar ``sd`` and its reference witness."""
    texts = [text for text, _ in batch]
    results, witnesses = _chunk_witnesses(texts)
    assert results == [sd(parse_word(text)) for text in texts]
    assert witnesses == [reference_witness(text) for text in texts]


def _plain(vector):
    return vector.tolist() if isinstance(vector, np.ndarray) else vector


def _check_vectors_asked_for(bits, n, starts=None):
    """Each vector alone and both together equal the reference kernel's,
    and the kernel leaves an array it is given as it was."""
    before = _plain(bits)
    vp, va = map(_plain, reference_mirror_lcs(bits, n, starts))
    for pal, anti in ((True, True), (True, False), (False, True)):
        got = _mirror_lcs(bits, n, starts, pal=pal, anti=anti)
        assert tuple(map(_plain, got)) == (vp if pal else None, va if anti else None)
    assert _plain(bits) == before


def test_vectors_asked_for_match_both_exhaustive():
    """The palindrome or antipalindrome vector computed alone, and both in
    one pass, equal the reference kernel on every word of 1..16 letters:
    on ``uint32`` and ``int64`` arrays, and on packed 64-bit lanes of mixed
    lengths up to 14, shuffled into chunks of 64 as ``palsym sd`` packs
    them.  The arrays of 15 and 16 letters span two and four slices of
    ``_SLICE`` words; the 16-letter words after the first five span four,
    the last one short."""
    assert 1 << 15 > _SLICE
    for n in range(1, 17):
        for dtype in (np.uint32, np.int64):
            _check_vectors_asked_for(np.arange(1 << n, dtype=dtype), n)
    _check_vectors_asked_for(np.arange(5, 1 << 16, dtype=np.uint32), 16)
    words = [w for n in range(1, 15) for w in all_words(n)]
    random.Random(15).shuffle(words)
    for start in range(0, len(words), 64):
        chunk = words[start : start + 64]
        _check_vectors_asked_for(*_pack([w.bits for w in chunk], list(map(len, chunk))))


@given(
    st.integers(1, MAX_LENGTH).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20)
        )
    ),
    mixed_batches,
)
@example((32, [0, (1 << 32) - 1]), [("b" * MAX_LENGTH, True), ("", True)])
@example((MAX_LENGTH, [0, (1 << MAX_LENGTH) - 1]), [("a", True)])
@settings(max_examples=80, deadline=None)
def test_vectors_asked_for_match_both_sampled(batch, mixed):
    """The same on words of up to 63 letters: an ``int64`` array, and a
    ``uint32`` one up to 32 letters, of one length, and packed lanes of
    mixed lengths."""
    n, picks = batch
    for dtype in (np.uint32, np.int64) if n <= 32 else (np.int64,):
        _check_vectors_asked_for(np.array(picks, dtype=dtype), n)
    texts = [text for text, _ in mixed]
    _check_vectors_asked_for(
        *_pack([parse_word(t).bits for t in texts], list(map(len, texts)))
    )


def test_kernel_memory_stays_within_a_slice():
    """Both vectors of 2^17 ``uint32`` words of 32 letters take less than
    4 MB above the 1 MB they return: the match sets of one slice of
    ``_SLICE`` words are built at a time, where those of the whole array
    would take 16 MB."""
    words = np.random.default_rng(32).integers(0, 1 << 32, 1 << 17, dtype=np.uint32)
    tracemalloc.start()
    try:
        vp, va = _mirror_lcs(words, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - vp.nbytes - va.nbytes < 4 << 20
    ref_vp, ref_va = reference_mirror_lcs(words, 32)
    assert (vp == ref_vp).all() and (va == ref_va).all()


def test_brute_force_guard():
    with pytest.raises(LengthBudgetExceeded):
        brute_force_sd(parse_word("a" * 23))
    assert brute_force_sd(parse_word("aab")) == 1
    assert brute_force_sd(parse_word("abba")) == 0


def test_oracle_matches_deletion_sets_exhaustive():
    """The subsequence walk equals the deletion-set enumeration it
    replaced (all words <= 12)."""
    for n in range(13):
        for w in all_words(n):
            assert brute_force_sd(w) == deletion_set_sd(str(w))


@given(
    st.integers(13, 20).flatmap(
        lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
    )
)
@settings(max_examples=40, deadline=None)
def test_oracle_matches_deletion_sets_sampled(text):
    assert brute_force_sd(parse_word(text)) == deletion_set_sd(text)


def test_oracle_equivalence_exhaustive_small():
    """DP equals the brute-force oracle (all words <= 10; the acceptance
    suite extends this to 14)."""
    for n in range(11):
        for w in all_words(n):
            assert sd(w).value == brute_force_sd(w)


@given(st.text(alphabet="ab", min_size=11, max_size=16))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_sampled(text):
    w = parse_word(text)
    assert sd(w).value == brute_force_sd(w)


def test_peeling_identities_small():
    """Matching ends peel from the palindromic table, differing ends from
    the antipalindromic one (all words of length 2..10)."""
    for n in range(2, 11):
        for w in all_words(n):
            s = str(w)
            inner = parse_word(s[1:-1])
            if s[0] == s[-1]:
                assert lps_length(w) == 2 + lps_length(inner)
            else:
                assert las_length(w) == 2 + las_length(inner)


def test_group_invariance_small():
    for n in range(11):
        for w in all_words(n):
            value = sd(w).value
            assert sd(w.reverse()).value == value
            assert sd(w.complement()).value == value


def test_upper_bound_half_length():
    for n in range(11):
        for w in all_words(n):
            assert sd(w).value <= len(w) // 2


def test_sd_zero_iff_symmetric():
    for n in range(11):
        for w in all_words(n):
            assert (sd(w).value == 0) == w.is_symmetric()


@given(word_texts)
def test_las_even_lps_positive(text):
    w = parse_word(text)
    assert las_length(w) % 2 == 0
    if len(w) > 0:
        assert lps_length(w) >= 1


@given(word_texts)
def test_sd_result_consistency(text):
    w = parse_word(text)
    r = sd(w)
    assert r.value == len(w) - max(r.lps, r.las)
    assert is_symmetric_text(str(sd_witness(w).residual))
