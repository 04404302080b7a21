"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failing assert is the corresponding FAIL.  All comparisons are
exact; nothing here is tolerance-based.
"""

import json
import os
import random
import time

import pytest

from palsym import (
    KNOWN_MAX_SD,
    GameSolver,
    SearchConfig,
    all_words,
    brute_force_sd,
    compute_table,
    game_value,
    las_length,
    lower_bound,
    lps_length,
    opening_word,
    parse_word,
    sd,
    sd_batch,
    sd_max,
    upper_bound,
    verify_family,
)
from palsym.cli import main

REFERENCE_SEQUENCE = [0, 0, 1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 5, 6, 7, 7, 7, 8]

_JOBS = min(8, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def rows_2_to_22():
    return compute_table(2, 22, SearchConfig(worker_count=_JOBS))


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(
        [
            "table",
            "--from",
            "1",
            "--to",
            "20",
            "--compare-paper",
            "--format",
            "json",
            "--jobs",
            str(_JOBS),
        ]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in rows] == list(range(1, 21))
    assert [r["sd"] for r in rows] == REFERENCE_SEQUENCE
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 1 PASS: table 1..20 reproduced exactly via the CLI "
            f"({elapsed:.1f}s, {_JOBS} workers)"
        )


def test_criterion_2_bounds_and_exactness(rows_2_to_22, capsys):
    for row in rows_2_to_22:
        assert lower_bound(row.n) <= row.sd <= upper_bound(row.n), row
        assert row.sd == lower_bound(row.n), row
        if row.n <= 20:
            assert row.sd == KNOWN_MAX_SD[row.n], row
    with capsys.disabled():
        print(
            "ACCEPTANCE 2 PASS: lower <= max sd <= upper for n in 2..22, "
            "lower attained for n in 2..22"
        )


def test_criterion_3_family_equality(capsys):
    checks = verify_family(4)
    assert len(checks) == 35  # parameters 0..4, seven pairs each
    for check in checks:
        assert len(check.word) <= 37
        assert check.computed == check.bound, check
    with capsys.disabled():
        print(
            "ACCEPTANCE 3 PASS: all 35 family words hit "
            "3n + 1 + (alpha + beta) // 3 exactly"
        )


def test_criterion_4_oracle_equivalence(capsys):
    start = time.perf_counter()
    count = 0
    for n in range(1, 15):
        for w in all_words(n):
            assert sd(w).value == brute_force_sd(w), w
            count += 1
    assert count == 32766
    rng = random.Random(20240)
    for n in range(15, 21):
        for _ in range(200):
            w = parse_word(
                "".join(rng.choice("ab") for _ in range(n))
            )
            assert sd(w).value == brute_force_sd(w), w
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"ACCEPTANCE 4 PASS: DP equals the brute-force oracle for all "
            f"32766 words up to length 14 and 200 samples per length 15..20 "
            f"({elapsed:.1f}s)"
        )


def test_criterion_5_peeling_identities(capsys):
    for n in range(2, 15):
        for w in all_words(n):
            s = str(w)
            inner = parse_word(s[1:-1])
            if s[0] == s[-1]:
                assert lps_length(w) == 2 + lps_length(inner), w
            else:
                assert las_length(w) == 2 + las_length(inner), w
    with capsys.disabled():
        print(
            "ACCEPTANCE 5 PASS: end-pair peeling identities hold for all "
            "words of length 2..14"
        )


def test_criterion_6_invariance_and_pruning(capsys):
    for n in range(1, 13):
        for w in all_words(n):
            value = sd(w).value
            assert sd(w.reverse()).value == value, w
            assert sd(w.complement()).value == value, w
    config = SearchConfig(worker_count=1)
    for n in range(1, 13):
        assert sd_max(n, config).sd == int(sd_batch(range(1 << n), n).max())
    with capsys.disabled():
        print(
            "ACCEPTANCE 6 PASS: sd is orbit-invariant up to length 12 and "
            "canonical pruning preserves the maximum for n in 1..12"
        )


def test_criterion_7_third_conjecture_fails_at_10(rows_2_to_22, capsys):
    row10 = next(r for r in rows_2_to_22 if r.n == 10)
    assert row10.sd == 4
    assert row10.sd > 10 / 3
    with capsys.disabled():
        print("ACCEPTANCE 7 PASS: max sd at length 10 is 4, above 10/3")


def test_criterion_8_game(capsys):
    start = time.perf_counter()
    solver = GameSolver()
    for n in range(6, 13):
        word = opening_word(n)
        assert solver.outcome(word).value >= n - 4, n

    for n in range(11):
        for w in all_words(n):
            assert solver.value(w) <= max(0, n - 2), w

    swap = str.maketrans("ab", "ba")

    def plain(text, minimizing):
        """The game's value by its definition, on the word's text: no memo,
        every deletion position tried, no ``Word`` and no solver."""
        mirror = text[::-1]
        if text == mirror or text == mirror.translate(swap):
            return 0
        values = [
            plain(text[:p] + text[p + 1 :], not minimizing)
            for p in range(len(text))
        ]
        return 1 + (min(values) if minimizing else max(values))

    for n in range(9):
        for w in all_words(n):
            assert solver.value(w) == plain(str(w), True), w
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"ACCEPTANCE 8 PASS: opening words force >= n - 4 moves for "
            f"n in 6..12, games end within length - 2 moves up to length 10, "
            f"memoized solver equals plain recursion up to length 8 "
            f"({elapsed:.1f}s)"
        )


def test_criterion_9_structural_properties(capsys):
    for n in range(1, 13):
        for w in all_words(n):
            assert las_length(w) % 2 == 0, w
            assert (sd(w).value == 0) == w.is_symmetric(), w
    for n in range(1, 15):
        for w in all_words(n):
            assert sd(w).value <= n // 2, w
    with capsys.disabled():
        print(
            "ACCEPTANCE 9 PASS: las is even and sd = 0 iff symmetric up to "
            "length 12; sd <= length / 2 up to length 14"
        )
