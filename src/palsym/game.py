"""Adversarial single-deletion game on a binary word.

Two players alternately delete one letter; the game stops as soon as the
word is a palindrome or an antipalindrome, and the score is the total
number of moves made.  The player who owns the starting word wants a long
game (the maximizer), the opponent wants a short one (the minimizer), and
the minimizer moves first.

``GameSolver`` computes exact minimax values by retrograde analysis, the
method of endgame tablebases (Stroehlein 1970; Thompson 1986), over one of
two state sets.

A single word is solved on its own subsequence lattice.  A game from an
n-letter word reaches only the word's distinct subsequences, at most
F(n + 3) - 1 of them for a binary word (Flaxman, Harrow & Sorkin 2004),
where a table of every word of each length up to n has 2^(n+1) entries.
The forward pass builds the lattice level by level: a level is the sorted
int64 array of the distinct non-symmetric words of one length, and its
children are all m single-letter deletions (``words._delete``) as one
``(states, m)`` array in position order.  The next level is found by
direct addressing over the 2^(m-1) words of the child length, with no
sort: the children are marked in a bool table, the symmetric words of
that length (``_symmetric_words``, built once per length) are read from
it and cleared, since a symmetric child ends the game, and the marks left
are the next level in ascending order.
The backward pass fills each level's int8 values with 1 plus the min
(minimizer) or max (maximizer) over its children, the mover alternating by
level.  A solver keeps the last lattice it built, so the moves of one game
or one principal line are all read from one lattice.

``max_game_value`` asks about every word of one length, and there the
lattice is the whole table: one int8 value table per word length m and
mover over all 2^m packed words, each built on first use from the table of
length m - 1 with the other mover, with whole-array numpy operations.
Deleting bit k maps the words viewed as a ``(2^(m-1-k), 2, 2^k)`` array
onto the shorter table viewed as ``(2^(m-1-k), 1, 2^k)``, so each deletion
is one broadcast, with no index arrays.  Words of length <= 2 are all
symmetric, so those tables are all zero.  ``max_game_value`` takes the
least word with the largest entry of the top table.

``best_move`` and principal lines take the lowest position whose child
keeps the value; deleting any letter of a run gives the same word, so that
is the first letter of the leftmost such run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .deletions import sd
from .errors import LengthBudgetExceeded, TerminalStateError
from .words import Word, _delete, _reverse_bits, complement_letter, parse_word

# The one game guard: no value table and no lattice is built past it, so
# solve, play, best and verify all stop here.  At n = 22 the tables take
# 8 MB and a lattice holds at most F(25) - 1 = 75 024 states, about 0.03 s;
# a lattice of 26 letters takes about 0.25 s.
GAME_MAX_LENGTH = 22
# The heuristic minimizer scores its moves exactly up to this length and by
# least sd beyond; it stays at 21 letters so that its moves do not change.
_HEURISTIC_EXACT_LENGTH = 21


class Player(Enum):
    MINIMIZER = "minimizer"  # the second player; moves first
    MAXIMIZER = "maximizer"  # owns the starting word

    @property
    def other(self) -> "Player":
        return Player.MAXIMIZER if self is Player.MINIMIZER else Player.MINIMIZER


@dataclass(frozen=True, slots=True)
class GameOutcome:
    """Exact move count under optimal play plus one optimal line.

    ``principal_line`` holds 1-based positions into the successively
    shorter words; replaying it from the start reaches a symmetric word in
    exactly ``value`` moves.
    """

    value: int
    principal_line: tuple[int, ...]


def _check_length(m: int) -> None:
    if m > GAME_MAX_LENGTH:
        raise LengthBudgetExceeded(
            f"game solver supports at most {GAME_MAX_LENGTH} letters, got {m}"
        )


class _Lattice:
    """Game values over the distinct non-symmetric subsequences of a set of
    root words of one length n, with ``maximizer`` to move at the roots.

    Level k holds the sorted distinct non-symmetric words of length n - k
    that the roots reach (``words[k]``, an int64 array), and its mover is
    the root mover when k is even.  Row i of ``children[k]`` lists, in
    position order, the index in ``values[k + 1]`` of the word left by
    deleting each letter of ``words[k][i]``.  ``values[k]`` holds one int8
    value per word of level k and then a 0 that stands for every symmetric
    word, so a child that ends the game points one past the level's words.

    Each level's children are marked in a bool table over the 2^(m-1)
    words of their length m - 1, at most 2^21 entries under the guard.
    The symmetric words of that length are read from the table and only
    those marked are cleared, so a level writes only where its children
    fall.  The marks left, in order, are the next level, and an int32
    index written only at the children maps each child to its place
    there, or one past the level's end for a symmetric child.
    """

    __slots__ = ("length", "maximizer", "words", "children", "values")

    def __init__(self, roots: np.ndarray, n: int, maximizer: bool) -> None:
        self.length, self.maximizer = n, maximizer
        self.words: list[np.ndarray] = []
        self.children: list[np.ndarray] = []
        low = np.arange(n - 1, -1, -1, dtype=np.int64)  # bit of position j + 1
        level, m = roots, n
        while level.size:
            kids = _delete(level[:, None], low[n - m :])  # length m reads the last m
            present = np.zeros(1 << (m - 1), dtype=bool)
            present[kids] = True
            ends = _symmetric_words(m - 1)
            # a gather: clearing every symmetric word would touch every page
            ends = ends[present[ends]]
            present[ends] = False
            nxt = np.flatnonzero(present)
            index = np.empty(present.size, dtype=np.int32)  # read only at the kids
            index[ends] = nxt.size
            index[nxt] = np.arange(nxt.size, dtype=np.int32)
            self.words.append(level)
            self.children.append(index[kids])
            level, m = nxt, m - 1
        # every word below the last level is symmetric
        symmetric = values = np.zeros(1, dtype=np.int8)
        self.values = [values]
        for k in range(len(self.words) - 1, -1, -1):
            pick = np.ndarray.max if maximizer != (k % 2 == 1) else np.ndarray.min
            best = pick(values[self.children[k]], axis=1)
            values = np.concatenate((best + 1, symmetric))
            self.values.append(values)
        self.values.reverse()

    @property
    def states(self) -> int:
        return sum(level.size for level in self.words)

    def find(self, bits: int, m: int, maximizer: bool) -> tuple[int, int] | None:
        """(level, index) of a non-symmetric state, or None if not held."""
        k = self.length - m
        if 0 <= k < len(self.words) and (maximizer != self.maximizer) == (k % 2 == 1):
            level = self.words[k]
            i = int(level.searchsorted(bits))
            if i < level.size and level[i] == bits:
                return k, i
        return None

    def move(self, k: int, i: int) -> tuple[int, int]:
        """Lowest 1-based position whose child keeps the value of state
        (k, i), and that child's index in level k + 1."""
        row = self.children[k][i]
        j = int((self.values[k + 1][row] == self.values[k][i] - 1).argmax())
        return j + 1, int(row[j])

    def line(self, k: int, i: int) -> tuple[int, ...]:
        """Principal line from state (k, i) to a symmetric word."""
        positions = []
        for level in range(k, k + int(self.values[k][i])):
            pos, i = self.move(level, i)
            positions.append(pos)
        return tuple(positions)


class GameSolver:
    """Exact minimax values.  A single word is solved on its own
    subsequence lattice; ``max_game_value`` reads the value tables of whole
    lengths.

    The solver keeps the lattice it built last and reads every state that
    lattice holds from it, so the moves of one game or principal line
    share one lattice; a state it does not hold gets a lattice of its own.
    Tables are built at most once each, and ``value`` reads a word from the
    table of its length and mover when the solver holds one.
    ``lattice_levels`` and ``states`` count the lattice levels and states
    built so far, ``levels`` and ``table_words`` the tables and their
    entries.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[int, bool], np.ndarray] = {}
        self._lattice: _Lattice | None = None
        self.lattice_levels = 0
        self.states = 0

    @property
    def levels(self) -> int:
        return len(self._tables)

    @property
    def table_words(self) -> int:
        return sum(table.size for table in self._tables.values())

    def _table(self, m: int, maximizer: bool) -> np.ndarray:
        """Game values of every packed word of length m, with the maximizer
        to move when ``maximizer``: ``table[bits]`` is an int8 value."""
        if m <= 2:
            return np.zeros(1 << m, dtype=np.int8)
        table = self._tables.get((m, maximizer))
        if table is not None:
            return table
        _check_length(m)
        shorter = self._table(m - 1, not maximizer)
        pick = np.maximum if maximizer else np.minimum
        table = np.repeat(shorter, 2)  # delete the last letter
        for k in range(1, m):
            view = table.reshape(-1, 2, 1 << k)
            pick(view, shorter.reshape(-1, 1, 1 << k), out=view)
        table += 1
        table[_symmetric_words(m)] = 0
        table.flags.writeable = False  # shared by every later read
        self._tables[(m, maximizer)] = table
        return table

    def _locate(self, word: Word, mover: Player) -> tuple[_Lattice, int, int]:
        """The solver's lattice and a non-symmetric state's (level, index)
        in it; the lattice is built rooted at the state when the last one
        does not hold it."""
        maximizer = mover is Player.MAXIMIZER
        lattice = self._lattice
        found = lattice and lattice.find(word.bits, word.length, maximizer)
        if found:
            return lattice, *found
        _check_length(word.length)
        roots = np.array([word.bits], dtype=np.int64)
        lattice = _Lattice(roots, word.length, maximizer)
        self._lattice = lattice
        self.lattice_levels += len(lattice.words)
        self.states += lattice.states
        return lattice, 0, 0

    def value(self, word: Word, mover: Player = Player.MINIMIZER) -> int:
        """Moves remaining under optimal play from this state."""
        table = self._tables.get((word.length, mover is Player.MAXIMIZER))
        if table is not None:
            return int(table[word.bits])
        if word.is_symmetric():
            return 0
        lattice, k, i = self._locate(word, mover)
        return int(lattice.values[k][i])

    def best_move(self, word: Word, mover: Player = Player.MINIMIZER) -> int:
        """Lowest 1-based position of ``word`` whose deletion keeps the
        minimax value with ``mover`` to move; a symmetric word raises
        ``TerminalStateError``."""
        if word.is_symmetric():
            raise TerminalStateError(f"word {word} is already symmetric")
        lattice, k, i = self._locate(word, mover)
        return lattice.move(k, i)[0]

    def outcome(self, word: Word, mover: Player = Player.MINIMIZER) -> GameOutcome:
        if word.is_symmetric():
            return GameOutcome(0, ())
        lattice, k, i = self._locate(word, mover)
        return GameOutcome(int(lattice.values[k][i]), lattice.line(k, i))


def game_value(word: Word, solver: GameSolver | None = None) -> GameOutcome:
    """Exact minimax outcome with the minimizer to move first."""
    solver = solver if solver is not None else GameSolver()
    return solver.outcome(word)


@functools.cache
def _symmetric_words(m: int) -> np.ndarray:
    """Packed palindromes and antipalindromes of length m >= 0, each once,
    built from their left halves (an antipalindrome has even length, and
    the empty word is both).  Built once per length and read-only, so the
    tables and every lattice share it."""
    h = m // 2
    halves = np.arange(1 << h, dtype=np.int64)
    mirror = _reverse_bits(halves, h)
    high = halves << (m - h)
    middles = (0, 1 << h) if m % 2 else (0,)
    found = [high | middle | mirror for middle in middles]
    if m % 2 == 0 and m:
        found.append(high | (mirror ^ ((1 << h) - 1)))
    words = np.concatenate(found)
    words.flags.writeable = False
    return words


def max_game_value(n: int, solver: GameSolver | None = None) -> tuple[int, Word]:
    """Best achievable game value over all starting words of length n.

    Returns the value and the lexicographically least word attaining it,
    read from the top value table of ``solver``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    solver = solver if solver is not None else GameSolver()
    word = Word(n, int(np.argmax(solver._table(n, False))))
    return solver.value(word), word


def opening_word(n: int) -> Word:
    """A two-block opening for the maximizer, defined for n >= 6.

    a^k b^(k+2) for even n and a^k b^(k+3) for odd n; paired with the
    mirror reply it forces at least n - 4 moves.
    """
    if n < 6:
        raise ValueError(f"opening word defined for n >= 6, got {n}")
    if n % 2 == 0:
        k = (n - 2) // 2
        return parse_word("a" * k + "b" * (k + 2))
    k = (n - 3) // 2
    return parse_word("a" * k + "b" * (k + 3))


def mirror_move(current: Word, opponent_deleted: str) -> int:
    """Delete the leftmost letter complementary to the opponent's choice.

    Falls back to position 1 when no complementary letter remains; this is
    checked before the terminal guard because a one-letter-kind word is
    always a palindrome, so the fallback could never fire otherwise.
    """
    wanted = complement_letter(opponent_deleted)
    found = str(current).find(wanted)
    if found < 0:
        return 1
    if current.is_symmetric():
        raise TerminalStateError(f"word {current} is already symmetric")
    return found + 1


def engine_move(
    word: Word,
    mover: Player,
    mode: str = "exact",
    last_deleted: str | None = None,
    solver: GameSolver | None = None,
) -> int:
    """Choose a 1-based position of ``word`` to delete for ``mover``.

    ``exact`` follows a principal line of the minimax solver.  ``heuristic``
    plays the mirror rule for the maximizer (position 1 when the opponent
    has not moved yet, else the leftmost letter complementary to
    ``last_deleted``) and, for the minimizer, picks the move whose
    successor resolves fastest: the exact best move on words of at most 21
    letters, else the move whose successor has the least sd.  Ties go
    to the leftmost position.  Values are exact, so one ``solver`` may serve
    every move of a game.  A symmetric word raises ``TerminalStateError``.
    """
    if word.is_symmetric():
        raise TerminalStateError(f"word {word} is already symmetric")
    solver = solver if solver is not None else GameSolver()
    if mode == "exact":
        return solver.best_move(word, mover)
    if mode != "heuristic":
        raise ValueError(f"unknown engine mode {mode!r}")

    if mover is Player.MAXIMIZER:
        if last_deleted is None:
            return 1
        return mirror_move(word, last_deleted)

    n = len(word)
    if n <= _HEURISTIC_EXACT_LENGTH:
        return solver.best_move(word, mover)
    return min(range(1, n + 1), key=lambda p: sd(word.delete(p)).value)


@dataclass(frozen=True, slots=True)
class MoveRecord:
    mover: Player
    position: int
    letter: str
    result: Word


def replay(word: Word, positions) -> list[MoveRecord]:
    """Apply a move list from the start, validating game legality."""
    records = []
    current, mover = word, Player.MINIMIZER
    for pos in positions:
        if current.is_symmetric():
            raise TerminalStateError(
                f"move past the end of the game at {current}"
            )
        letter = current.letter_at(pos)
        current = current.delete(pos)
        records.append(MoveRecord(mover, pos, letter, current))
        mover = mover.other
    return records


def transcript(word: Word, positions) -> dict:
    """JSON-ready transcript of a finished or partial game."""
    records = replay(word, positions)
    final = records[-1].result if records else word
    return {
        "initial": str(word),
        "moves": [
            {
                "player": "second" if r.mover is Player.MINIMIZER else "first",
                "position": r.position,
                "letter": r.letter,
                "result": str(r.result),
            }
            for r in records
        ],
        "final_class": final.symmetry_class().value,
        "move_count": len(records),
    }
