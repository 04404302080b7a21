"""Reference answers the benchmark checks palsym's CLI output against.

Nothing here imports palsym, so a defect in the package cannot hide in its
own check.  Words are plain strings over {a, b}.

* ``sd`` uses LPS(w) = LCS(w, rev w) and LAS(w) = LCS(w, comp(rev w)),
  each LCS taken with the bit-vector update of Allison and Dix (IPL 1986)
  as written by Hyyroe (2004), not the interval tables palsym fills.
* ``GameOracle`` is a minimax solver over packed integers that branches
  once per run of equal letters, since deleting any letter of a run leaves
  the same word.
"""

from __future__ import annotations

_SWAP = str.maketrans("ab", "ba")
_TO_DIGITS = str.maketrans("ab", "01")
_TO_LETTERS = str.maketrans("01", "ab")

# Maximum sd per length for n <= 20, as printed in the paper.
PAPER_MAX_SD = (0, 0, 1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 5, 6, 7, 7, 7, 8)


def lcs_length(x: str, y: str) -> int:
    """Length of a longest common subsequence of two strings."""
    m = len(x)
    if m == 0 or not y:
        return 0
    full = (1 << m) - 1
    match: dict[str, int] = {}
    for i, c in enumerate(x):
        match[c] = match.get(c, 0) | (1 << i)
    v = full
    for c in y:
        u = v & match.get(c, 0)
        v = ((v + u) | (v & ~match.get(c, 0))) & full
    return m - bin(v).count("1")


def lcs_length_table(x: str, y: str) -> int:
    """Row-by-row LCS table; the reference ``lcs_length`` is tested against."""
    prev = [0] * (len(y) + 1)
    for c in x:
        row = [0]
        for j, d in enumerate(y):
            row.append(prev[j] + 1 if c == d else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def packed(w: str) -> int:
    """The word as an integer, a = 0 and b = 1, leftmost letter highest."""
    return int(w.translate(_TO_DIGITS) or "0", 2)


def unpacked(n: int, bits: int) -> str:
    return format(bits, f"0{n}b").translate(_TO_LETTERS) if n else ""


def is_symmetric(w: str) -> bool:
    """Palindrome or antipalindrome."""
    r = w[::-1]
    return w == r or w == r.translate(_SWAP)


def sd(w: str) -> tuple[int, int, int]:
    """(sd, lps, las) of a word."""
    r = w[::-1]
    lps = lcs_length(w, r)
    las = lcs_length(w, r.translate(_SWAP))
    return len(w) - max(lps, las), lps, las


def lower_bound(n: int) -> int:
    """The paper's lower bound on the maximum of sd at length n >= 2."""
    return (n + 2 * ((n - 3) // 7)) // 3


def upper_bound(n: int) -> int:
    return n // 2


def delete_positions(w: str, positions) -> str:
    """The word left after deleting 1-based positions of ``w``."""
    drop = set(positions)
    return "".join(c for i, c in enumerate(w, start=1) if i not in drop)


def check_sd_report(report: dict, word: str, witness: bool) -> str | None:
    """Problem with one JSON line of ``palsym sd``, or None if it is right."""
    value, lps, las = sd(word)
    if report.get("word") != word or report.get("length") != len(word):
        return f"echo mismatch for {word!r}: {report}"
    if (report.get("sd"), report.get("lps"), report.get("las")) != (value, lps, las):
        return f"{word!r}: got {report}, expected sd={value} lps={lps} las={las}"
    if not witness:
        return None
    wit = report.get("witness")
    if wit is None:
        return f"{word!r}: witness missing"
    deleted = wit["deleted_positions"]
    if len(deleted) != value or deleted != sorted(set(deleted)):
        return f"{word!r}: witness deletes {deleted}, sd is {value}"
    if not all(1 <= p <= len(word) for p in deleted):
        return f"{word!r}: witness position out of range {deleted}"
    residual = delete_positions(word, deleted)
    if residual != wit["residual"] or not is_symmetric(residual):
        return f"{word!r}: witness leaves {residual!r}, reported {wit['residual']!r}"
    return None


def check_table_row(row: dict) -> str | None:
    """Problem with one JSON row of ``palsym table``, or None."""
    n = row["n"]
    want_lower = lower_bound(n) if n >= 2 else 0
    if (row["lower"], row["upper"]) != (want_lower, upper_bound(n)):
        return f"n={n}: bounds {row['lower']},{row['upper']} wrong"
    if n <= len(PAPER_MAX_SD):
        if row["sd"] != PAPER_MAX_SD[n - 1]:
            return f"n={n}: sd {row['sd']}, paper has {PAPER_MAX_SD[n - 1]}"
    elif row["sd"] != want_lower:
        return f"n={n}: sd {row['sd']} differs from the lower bound {want_lower}"
    extremal = row["extremal"]
    if not extremal or extremal != sorted(extremal, key=packed):
        return f"n={n}: extremal words missing or out of order"
    for word in extremal:
        if len(word) != n or sd(word)[0] != row["sd"]:
            return f"n={n}: extremal word {word} does not attain {row['sd']}"
        r = word[::-1]
        if packed(word) != min(map(packed, (word, r, r.translate(_SWAP), word.translate(_SWAP)))):
            return f"n={n}: extremal word {word} is not its orbit's least word"
    return None


class GameOracle:
    """Minimax value of the deletion game; the minimizer moves first."""

    def __init__(self) -> None:
        self._memo: dict[int, int] = {}

    def value(self, w: str, minimizer: bool = True) -> int:
        return self._value(len(w), packed(w), minimizer)

    def _value(self, n: int, bits: int, minimizer: bool) -> int:
        mask = (1 << n) - 1
        rev = int(format(bits, f"0{n}b")[::-1], 2) if n else 0
        if bits == rev or bits == rev ^ mask:
            return 0
        key = (bits << 7 | n) << 1 | minimizer
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        best = None
        prev = -1
        for low in range(n - 1, -1, -1):
            letter = (bits >> low) & 1
            if letter == prev:
                continue
            prev = letter
            child = ((bits >> (low + 1)) << low) | (bits & ((1 << low) - 1))
            v = self._value(n - 1, child, not minimizer)
            if best is None or (v < best if minimizer else v > best):
                best = v
        self._memo[key] = best + 1
        return best + 1

    def principal_line(self, w: str) -> list[int]:
        """Optimal moves from ``w``, each the lowest optimal position."""
        line = []
        minimizer = True
        while not is_symmetric(w):
            target = self.value(w, minimizer) - 1
            minimizer = not minimizer
            pos = next(
                p
                for p in range(1, len(w) + 1)
                if self.value(delete_positions(w, (p,)), minimizer) == target
            )
            line.append(pos)
            w = delete_positions(w, (pos,))
        return line


def check_game_solve(payload: dict, word: str, oracle: GameOracle) -> str | None:
    """Problem with one ``palsym game solve --format json`` output, or None.

    The value must be the oracle's, and the moves must be the oracle's
    principal line, which takes the lowest optimal position at each step.
    Replaying the moves must give the reported words, none symmetric
    before the last and the last symmetric.
    """
    if payload.get("initial") != word:
        return f"{word}: echoed {payload.get('initial')!r}"
    line = oracle.principal_line(word)
    if payload.get("value") != len(line):
        return f"{word}: value {payload.get('value')}, oracle {len(line)}"
    moves = payload["moves"]
    if [m["position"] for m in moves] != line:
        return f"{word}: line {[m['position'] for m in moves]}, oracle {line}"
    current = word
    for k, move in enumerate(moves):
        if is_symmetric(current):
            return f"{word}: move {k + 1} after the game ended"
        current = delete_positions(current, (move["position"],))
        if move["result"] != current:
            return f"{word}: move {k + 1} reported {move['result']!r}, got {current!r}"
    if not is_symmetric(current) or payload.get("move_count") != len(moves):
        return f"{word}: line of {len(moves)} moves ends at {current!r}"
    return None


def best_game(n: int, oracle: GameOracle) -> tuple[int, str]:
    """Best game value over all words of length n and the least word with it."""
    best, best_word = -1, ""
    for bits in range(1 << n):
        w = unpacked(n, bits)
        v = oracle.value(w)
        if v > best:
            best, best_word = v, w
    return best, best_word
