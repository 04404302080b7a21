import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    DfsGameSolver,
    ReferenceGameSolver,
    orbit_max_game_value,
    table_outcome,
    unique_lattice,
)
from palsym import (
    GAME_MAX_LENGTH,
    GameOutcome,
    GameSolver,
    LengthBudgetExceeded,
    Player,
    TerminalStateError,
    all_words,
    engine_move,
    game_value,
    max_game_value,
    mirror_move,
    opening_word,
    parse_word,
    replay,
    sd,
    transcript,
)
from palsym.game import _HEURISTIC_EXACT_LENGTH, _Lattice, _symmetric_words
from palsym.words import Word, _is_symmetric


@pytest.fixture(scope="module")
def reference():
    """One reference memo shared by the equivalence tests."""
    return ReferenceGameSolver()


@pytest.fixture(scope="module")
def tables():
    """One solver whose value tables serve the table references."""
    return GameSolver()


@functools.cache
def _full_lattice(n, maximizer):
    """Every non-symmetric word of length n, ascending, and one lattice
    rooted at all of them."""
    words = np.arange(1 << n, dtype=np.int64)
    roots = words[~_is_symmetric(words, n)]
    return roots, _Lattice(roots, n, maximizer)


def _lattice_values(n, mover):
    """Game values of all 2^n words: 0 for a symmetric word, else read
    from one all-roots lattice."""
    roots, lattice = _full_lattice(n, mover is Player.MAXIMIZER)
    values = np.zeros(1 << n, dtype=np.int8)
    values[roots] = lattice.values[0][:-1]
    return values


def test_game_value_examples():
    assert game_value(parse_word("ab")).value == 0
    assert game_value(parse_word("ab")).principal_line == ()
    assert game_value(parse_word("aab")).value == 1
    assert game_value(parse_word("aabbbb")).value >= 2


def test_game_value_guard():
    """A word past the guard that still needs a move is refused; a
    symmetric one has already ended its game."""
    word = parse_word("a" * 22 + "b")
    with pytest.raises(LengthBudgetExceeded, match="at most 22 letters, got 23"):
        game_value(word)
    with pytest.raises(LengthBudgetExceeded, match="at most 22 letters, got 23"):
        engine_move(word, Player.MINIMIZER, "exact")
    assert game_value(parse_word("a" * 23)) == GameOutcome(0, ())


def test_replay_principal_line():
    for text in ("aab", "aabab", "aabbbb", "babbaab"):
        word = parse_word(text)
        outcome = game_value(word)
        records = replay(word, outcome.principal_line)
        assert len(records) == outcome.value
        final = records[-1].result if records else word
        assert final.is_symmetric()
        if records:
            assert all(not r.result.is_symmetric() for r in records[:-1])


def test_replay_validates_moves():
    with pytest.raises(TerminalStateError):
        replay(parse_word("ab"), [1])
    with pytest.raises(IndexError):
        replay(parse_word("aab"), [4])


def test_mover_alternation_starts_with_minimizer():
    records = replay(parse_word("aabab"), game_value(parse_word("aabab")).principal_line)
    expected = [Player.MINIMIZER, Player.MAXIMIZER] * 3
    assert [r.mover for r in records] == expected[: len(records)]


def test_termination_bound_exhaustive():
    """Every game ends within length - 2 moves (all words <= 8)."""
    solver = GameSolver()
    for n in range(9):
        for w in all_words(n):
            assert solver.value(w) <= max(0, n - 2)


def test_memo_agrees_with_plain_recursion():
    """Memoized values equal a memo-free reference (all words <= 6; the
    acceptance suite extends this to 8)."""

    def plain(word, mover):
        if word.is_symmetric():
            return 0
        child = (
            plain(word.delete(p), mover.other) for p in range(1, len(word) + 1)
        )
        best = min(child) if mover is Player.MINIMIZER else max(child)
        return 1 + best

    solver = GameSolver()
    for n in range(7):
        for w in all_words(n):
            assert solver.value(w) == plain(w, Player.MINIMIZER)


def test_symmetric_words_match_packed_test():
    """The symmetric words that the value tables zero and the lattices
    clear, built from their halves: up to 16 letters exactly the words that
    ``_is_symmetric`` marks, each once; from 17 to 22 letters as many
    distinct words as there are palindromes and antipalindromes, each
    marked.  Each length's array is built once and is read-only."""
    for m in range(17):
        marked = np.flatnonzero(_is_symmetric(np.arange(1 << m, dtype=np.int64), m))
        assert np.sort(_symmetric_words(m)).tolist() == marked.tolist()
    for m in range(17, 23):
        found = _symmetric_words(m)
        count = (1 << (m + 1) // 2) + (0 if m % 2 else 1 << m // 2)
        assert found.size == count == np.unique(found).size, m
        assert found.max() < 1 << m and _is_symmetric(found, m).all()
    for m in range(23):
        found = _symmetric_words(m)
        assert found is _symmetric_words(m) and not found.flags.writeable


def test_max_game_value_small():
    assert max_game_value(2) == (0, parse_word("aa"))
    value, word = max_game_value(3)
    assert value == 1
    assert not word.is_symmetric()


def test_max_game_value_guard():
    with pytest.raises(LengthBudgetExceeded):
        max_game_value(23)
    with pytest.raises(ValueError):
        max_game_value(0)


def test_solver_table_guard():
    """Neither a lattice nor a table is built beyond the one game guard, so
    no input asks for 2^23 table entries or a lattice past 22 letters.  A
    symmetric word of any length has already ended its game: value 0 and
    an empty line, with nothing built."""
    word = parse_word("a" * 22 + "b")
    assert not word.is_symmetric()
    solver = GameSolver()
    with pytest.raises(LengthBudgetExceeded):
        solver.value(word)
    with pytest.raises(LengthBudgetExceeded):
        solver.outcome(word, Player.MAXIMIZER)
    with pytest.raises(LengthBudgetExceeded):
        solver._table(23, False)
    palindrome = parse_word("ab" * 7 + "aa" + "ba" * 7)
    assert len(palindrome) == 30 and palindrome.is_symmetric()
    for mover in Player:
        assert solver.value(palindrome, mover) == 0
        assert solver.outcome(palindrome, mover) == GameOutcome(0, ())
    assert (solver.lattice_levels, solver.states, solver.levels) == (0, 0, 0)


def test_values_match_reference_exhaustive(reference):
    """Both movers, every word of length <= 12, read from one all-roots
    lattice per length and mover."""
    for n in range(13):
        for mover in Player:
            values = _lattice_values(n, mover)
            for w in all_words(n):
                assert values[w.bits] == reference.value(w, mover), (w, mover)


@pytest.mark.parametrize("n", range(15))
def test_lattice_values_match_tables_exhaustive(tables, n):
    """Both movers, every word of length n: the roots of an all-roots
    lattice, and every deeper level, hold the values of the tables."""
    for mover in Player:
        maximizer = mover is Player.MAXIMIZER
        _, lattice = _full_lattice(n, maximizer)
        assert (_lattice_values(n, mover) == tables._table(n, maximizer)).all()
        assert len(lattice.words) == max(0, n - 2)
        for k, level in enumerate(lattice.words):
            table = tables._table(n - k, maximizer != (k % 2 == 1))
            assert level.dtype == np.int64 and (np.diff(level) > 0).all()
            assert (table[level] > 0).all()
            assert (lattice.values[k][:-1] == table[level]).all(), k
            assert lattice.values[k][-1] == 0


def test_lattice_lines_match_table_walk_exhaustive(tables):
    """Both movers, every word of length <= 12: the principal line from each
    root of an all-roots lattice is the table walk's."""
    for n in range(13):
        for mover in Player:
            roots, lattice = _full_lattice(n, mover is Player.MAXIMIZER)
            for i, bits in enumerate(roots.tolist()):
                outcome = GameOutcome(int(lattice.values[0][i]), lattice.line(0, i))
                assert outcome == table_outcome(tables, Word(n, bits), mover), (
                    bits,
                    n,
                    mover,
                )


def _assert_matches_unique_build(lattice, roots, n, maximizer):
    """Every level's words, children and values equal the sorting build's,
    with the same dtypes."""
    expected = unique_lattice(roots, n, maximizer)
    got = (lattice.words, lattice.children, lattice.values)
    for arrays, want, dtype in zip(got, expected, (np.int64, np.int32, np.int8)):
        assert len(arrays) == len(want)
        for a, b in zip(arrays, want):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", range(15))
def test_lattice_matches_unique_build_exhaustive(n):
    """Both movers, the all-roots lattice of every length up to 14."""
    for maximizer in (False, True):
        roots, lattice = _full_lattice(n, maximizer)
        _assert_matches_unique_build(lattice, roots, n, maximizer)


@given(
    st.integers(15, GAME_MAX_LENGTH).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    )
)
@settings(max_examples=30, deadline=None)
def test_lattice_matches_unique_build_sampled(word):
    """Both movers, the lattice of one word of 15 to 22 letters."""
    n, bits = word
    roots = np.array([bits], dtype=np.int64)
    for maximizer in (False, True):
        lattice = _Lattice(roots, n, maximizer)
        _assert_matches_unique_build(lattice, roots, n, maximizer)


@given(
    st.integers(13, GAME_MAX_LENGTH).flatmap(
        lambda n: st.builds(Word, st.just(n), st.integers(0, (1 << n) - 1))
    ),
    st.sampled_from(Player),
)
@settings(max_examples=40, deadline=None)
def test_lattice_outcome_matches_table_walk_sampled(tables, word, mover):
    """Both movers, one word of 13 to 22 letters: the solve answers with the
    tables' value and line, up to the guard."""
    solver = GameSolver()
    expected = table_outcome(tables, word, mover)
    assert solver.outcome(word, mover) == expected
    assert solver.value(word, mover) == expected.value
    if expected.value:
        assert solver.best_move(word, mover) == expected.principal_line[0]


def test_solve_builds_no_tables(monkeypatch):
    """An 18-letter solve and the moves along it build no value table."""

    def no_table(self, m, maximizer):
        raise AssertionError(f"table ({m}, {maximizer}) built on the solve path")

    monkeypatch.setattr(GameSolver, "_table", no_table)
    word = parse_word("abaabbbababbabaabb")
    solver = GameSolver()
    outcome = game_value(word, solver)
    assert outcome.value == 13
    assert solver.outcome(word, Player.MAXIMIZER).value == solver.value(
        word, Player.MAXIMIZER
    )
    assert engine_move(word, Player.MINIMIZER, "exact") == (
        outcome.principal_line[0]
    )
    assert solver.table_words == 0


def test_principal_lines_match_reference_exhaustive(reference):
    """Lowest-position principal lines, every word of length <= 10: through
    ``game_value`` one word at a time, and walked on one all-roots lattice
    per length."""
    solver = GameSolver()
    for n in range(11):
        roots, lattice = _full_lattice(n, False)
        walked = {
            bits: GameOutcome(int(lattice.values[0][i]), lattice.line(0, i))
            for i, bits in enumerate(roots.tolist())
        }
        for w in all_words(n):
            expected = reference.outcome(w)
            assert game_value(w, solver) == expected, w
            assert walked.get(w.bits, GameOutcome(0, ())) == expected, w


@given(st.integers(13, 18).flatmap(
    lambda n: st.builds(Word, st.just(n), st.integers(0, (1 << n) - 1))
))
@settings(max_examples=25, deadline=None)
def test_outcome_matches_reference_sampled(reference, word):
    solver = GameSolver()
    assert game_value(word, solver) == reference.outcome(word)
    assert solver.value(word, Player.MAXIMIZER) == reference.value(
        word, Player.MAXIMIZER
    )


def test_max_game_value_matches_reference(reference):
    for n in range(1, 13):
        assert max_game_value(n) == reference.max_game_value(n), n


@pytest.mark.parametrize("n", [13, 14])
def test_value_tables_match_solver_exhaustive(n):
    """Every entry of every table on the chain below length n with the
    minimizer to move: the mover at length m is the maximizer exactly when
    n - m is odd, so n = 13 and 14 cover both movers at every length up to
    13."""
    solver = GameSolver()
    dfs = DfsGameSolver()
    for m in range(n + 1):
        maximizer = (n - m) % 2 == 1
        table = solver._table(m, maximizer)
        assert table.dtype == np.int8 and table.shape == (1 << m,)
        expected = [dfs._solve(bits, m, maximizer) for bits in range(1 << m)]
        assert table.tolist() == expected, m
    assert solver.levels == max(0, n - 2)


def test_max_game_value_matches_orbit_scan():
    dfs = DfsGameSolver()
    for n in range(1, 15):
        assert max_game_value(n) == orbit_max_game_value(n, dfs), n


@functools.cache
def _top_table(n):
    return GameSolver()._table(n, False)


@given(st.integers(15, 18).flatmap(
    lambda n: st.builds(Word, st.just(n), st.integers(0, (1 << n) - 1))
))
@settings(max_examples=40, deadline=None)
def test_top_table_matches_solver_sampled(word):
    assert _top_table(len(word))[word.bits] == DfsGameSolver().value(word)


def test_max_game_value_is_maximum():
    solver = GameSolver()
    for n in (4, 6, 7):
        value, word = max_game_value(n)
        assert value == max(solver.value(w) for w in all_words(n))
        assert solver.value(word) == value
    # A solver that holds the top table reads its values and builds no lattice.
    held = GameSolver()
    assert max_game_value(7, held)[0] == value
    assert all(held.value(w) == solver.value(w) for w in all_words(7))
    assert (held.lattice_levels, held.states, held.levels) == (0, 0, 5)


def test_opening_word_examples():
    assert str(opening_word(6)) == "aabbbb"
    assert str(opening_word(7)) == "aabbbbb"
    assert len(opening_word(11)) == 11
    with pytest.raises(ValueError):
        opening_word(5)


def test_opening_word_guarantee_small():
    for n in range(6, 11):
        assert game_value(opening_word(n)).value >= n - 4


def test_mirror_move():
    assert mirror_move(parse_word("abbb"), "a") == 2
    assert mirror_move(parse_word("bbb"), "b") == 1
    with pytest.raises(TerminalStateError):
        mirror_move(parse_word("ab"), "a")


def test_engine_move_exact():
    assert engine_move(parse_word("aab"), Player.MINIMIZER, "exact") == 1
    with pytest.raises(TerminalStateError):
        engine_move(parse_word("ab"), Player.MINIMIZER, "exact")


def test_engine_move_exact_is_optimal():
    solver = GameSolver()
    for text in ("aabab", "aabbbb", "abaab"):
        word = parse_word(text)
        for mover in Player:
            pos = engine_move(word, mover, "exact")
            value = solver.value(word, mover)
            assert solver.value(word.delete(pos), mover.other) == value - 1


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_engine_move_shared_solver_plays_same_game(mode):
    """One solver across a whole game gives the moves of fresh solvers."""
    shared = GameSolver()
    for text in ("aabbbbaaabbabbab", "abaabbbababbab", "aabab"):
        word, mover, last = parse_word(text), Player.MINIMIZER, None
        while not word.is_symmetric():
            pos = engine_move(word, mover, mode, last, shared)
            assert pos == engine_move(word, mover, mode, last)
            last = word.letter_at(pos)
            word, mover = word.delete(pos), mover.other
    # The solve of an 18-letter word builds one lattice, levels of lengths
    # 18..3, which the moves of its subsequences then read.
    solver = GameSolver()
    word = parse_word("abaabbbababbabaabb")
    solver.outcome(word)
    assert (solver.lattice_levels, solver.states, solver.levels) == (16, 5071, 0)
    solver.value(word.delete(1), Player.MAXIMIZER)
    solver.best_move(word.delete(1).delete(5), Player.MINIMIZER)
    engine_move(word.delete(3), Player.MAXIMIZER, mode, "a", solver)
    engine_move(word.delete(3).delete(2), Player.MINIMIZER, mode, "b", solver)
    assert (solver.lattice_levels, solver.states, solver.levels) == (16, 5071, 0)


def test_engine_move_heuristic_mirror():
    word = parse_word("aabbbb")
    pos = engine_move(word, Player.MAXIMIZER, "heuristic", last_deleted="a")
    assert word.letter_at(pos) == "b"
    assert pos == 3  # leftmost b


def test_engine_move_heuristic_minimizer_resolves_fast():
    word = parse_word("aab")
    pos = engine_move(word, Player.MINIMIZER, "heuristic")
    assert game_value(word.delete(pos)).value == 0


def _per_position_minimizer_move(word, solver):
    """The heuristic minimizer's move by the loop that ``engine_move``
    replaced: every position, successors scored exactly on words within the
    heuristic's exact length and by sd beyond it, the leftmost least score
    wins.  Exact scores are read from the value tables of ``solver``, so
    one may serve many words."""
    best_pos, best_score = 1, None
    for pos in range(1, len(word) + 1):
        successor = word.delete(pos)
        if len(word) <= _HEURISTIC_EXACT_LENGTH:
            score = solver._table(len(successor), True)[successor.bits]
        else:
            score = sd(successor).value
        if best_score is None or score < best_score:
            best_pos, best_score = pos, score
    return best_pos


def test_engine_move_heuristic_minimizer_matches_loop_exhaustive():
    """Every minimizer state of at most 12 letters.  Values are exact, so
    the engine reads every state of one length from one lattice rooted at
    all of them, and the loop reads the value tables of its own solver."""
    solver = GameSolver()
    for n in range(13):
        engine = GameSolver()
        engine._lattice = _full_lattice(n, False)[1]
        for word in all_words(n):
            if word.is_symmetric():
                continue
            assert engine_move(
                word, Player.MINIMIZER, "heuristic", solver=engine
            ) == _per_position_minimizer_move(word, solver)
        assert engine.states == 0  # no lattice of its own was built


@given(st.integers(22, 40).flatmap(
    lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
))
@settings(max_examples=60, deadline=None)
def test_engine_move_heuristic_minimizer_matches_loop_long(text):
    """Beyond the heuristic's exact length the move is the least-sd run
    start."""
    word = parse_word(text)
    if word.is_symmetric():
        return
    expected = _per_position_minimizer_move(word, GameSolver())
    assert engine_move(word, Player.MINIMIZER, "heuristic") == expected


def test_engine_move_heuristic_exact_length_is_21():
    """The heuristic minimizer solves 21 letters exactly and ranks by sd
    from 22 letters, though the game guard allows exact moves there."""
    word = parse_word("bbabaaaabbabaaaabbabaa")
    assert len(word) == 22 == _HEURISTIC_EXACT_LENGTH + 1
    assert GameSolver().best_move(word, Player.MINIMIZER) == 1
    assert engine_move(word, Player.MINIMIZER, "heuristic") == 5
    # its 21-letter child, where least sd would delete position 8
    shorter = word.delete(1)
    assert GameSolver().best_move(shorter, Player.MINIMIZER) == 1
    assert engine_move(shorter, Player.MINIMIZER, "heuristic") == 1


def test_engine_move_rejects_unknown_mode():
    with pytest.raises(ValueError):
        engine_move(parse_word("aab"), Player.MINIMIZER, "mystery")


def test_transcript_from_principal_line():
    word = parse_word("aabab")
    outcome = game_value(word)
    data = transcript(word, outcome.principal_line)
    assert data["initial"] == "aabab"
    assert data["move_count"] == outcome.value
    assert data["final_class"] in ("palindrome", "antipalindrome", "both")
    assert len(data["moves"]) == outcome.value
    assert data["moves"][0]["player"] == "second"


@given(st.text(alphabet="ab", min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_value_matches_principal_line_length(text):
    word = parse_word(text)
    outcome = game_value(word)
    assert len(outcome.principal_line) == outcome.value
    assert outcome.value <= max(0, len(word) - 2)
    # the game ends at a symmetric word, so its length is a deletion set
    assert sd(word).value <= outcome.value
    if not word.is_symmetric():
        assert outcome.value >= 1
