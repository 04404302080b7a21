"""Reference implementations shared by the tests.

The brute-force helpers work on plain text so they stay independent of the
package's bit-packed representation and interval tables.
``scalar_table`` is the per-word interval recurrence that the batched
``deletions._tables`` replaced, and the reference it is checked against
cell by cell.  ``table_lengths`` reads its corners, and
``batched_table_lengths`` reads the corners of one batched table for every
word of a length; both are references for the bit-parallel kernel behind
``sd`` and ``sd_batch``.  ``reference_witness`` is the witness backtrack
that ``sd_witness`` replaced: it picks its target from both scalar table
corners and keeps an end pair only when the table says it adds 2.
``deletion_set_sd`` is the oracle that the subsequence walk of
``brute_force_sd`` replaced: it tries every deletion set by increasing size.
``ReferenceGameSolver`` is the game solver that ``palsym.game`` replaced:
it tries every position and memoizes on ``(Word, Player)``, with no
symmetry reduction and no cutoffs.  ``DfsGameSolver`` is the packed
depth-first search that the value tables of ``GameSolver`` replaced, and
``orbit_max_game_value`` is the scan over it that ``max_game_value``
replaced.  ``table_outcome`` is the principal-line walk over value tables
that the subsequence lattice of ``GameSolver.outcome`` replaced.  Both
move through a packed word's runs (``_run_children``), one child per run.
``unique_lattice`` is the lattice build that the direct addressing of
``game._Lattice`` replaced: ``np.unique`` over each level's single-letter
deletions gives the next level and each child's index, and
``_is_symmetric`` drops the symmetric children.
``plain_canonical_scan`` is the scan that the branch and bound of
``search.sd_max`` replaced: every canonical word of the a-half goes to the
kernel, with no bound.  ``reference_mirror_lcs`` is the kernel that the
in-place updates of ``deletions._mirror_lcs`` replaced: both vectors in
every pass, each step a new value.  ``reference_scan_chunk`` is the chunk
scan that the two passes of ``search._scan_chunk`` replaced: both tie words
of every head take the canonical test, and every word gets both vectors.
Its ``reference_spread`` is the spread of block words that
``search._spread`` replaced, which indexes each word's suffix from its
row's first and its place in its head.  ``reference_block_bounds`` is the
bound table that the per-k terms of ``search._block_terms`` replaced: each
row builds its own prefix tree of LCS vectors against x and against
comp x, and reads its best j from a table for its length.
``reference_blocks`` builds each field of ``search._blocks`` on it, one
row at a time.
``reference_sd_reports`` and ``reference_sd_output`` are the report
builder and printer that the line templates of ``cli._sd_lines``
replaced: a dict per word with ``Word.symmetry_class``, printed by
``json.dumps`` or as a text line, from the counts of
``_target_deletions`` and the witnesses of ``_witnesses``.
"""

import itertools
import json

import numpy as np

from palsym import GameOutcome, GameSolver, Player, SymmetryClass, Word, sd_batch
from palsym.deletions import _mirror_lcs, _tables, _target_deletions, _witnesses
from palsym.search import _tie_suffixes
from palsym.words import _delete, _is_canonical, _is_symmetric, _reverse_bits

SWAP = str.maketrans("ab", "ba")


def _run_children(bits: int, n: int):
    """(1-based position, child bits) for each run of a packed word of
    length n >= 1, left to right; the child drops the run's first letter."""
    starts = (bits ^ (bits >> 1)) | (1 << (n - 1))
    while starts:
        low = starts.bit_length() - 1
        starts ^= 1 << low
        yield n - low, _delete(bits, low)


def scalar_table(s: str, pal: bool) -> list[list[int]]:
    """Interval table of palindromic (``pal``) or antipalindromic lengths.

    ``t[i][j]`` is the longest such subsequence inside ``s[i..j]``.  Rows
    fill from the right end, and an end pair counts when
    ``mirror[j] == s[i]``.
    """
    n = len(s)
    mirror = s if pal else s.translate(SWAP)
    t = [[0] * n for _ in range(n)]
    below_row: list[int] = []  # row i + 1; the last row reads none of it
    for i in range(n - 1, -1, -1):
        row, c = t[i], s[i]
        prev = row[i] = 1 if pal else 0
        diag = 0
        for j in range(i + 1, n):
            below = below_row[j]
            if mirror[j] == c:
                prev = diag + 2
            elif below > prev:
                prev = below
            row[j] = prev
            diag = below
        below_row = row
    return t


def is_pal(t: str) -> bool:
    return t == t[::-1]


def is_anti(t: str) -> bool:
    return t == t[::-1].translate(SWAP)


def is_symmetric_text(t: str) -> bool:
    return is_pal(t) or is_anti(t)


def subsequences(s: str):
    for mask in range(1 << len(s)):
        yield "".join(c for i, c in enumerate(s) if (mask >> i) & 1)


def brute_lps(s: str) -> int:
    """Longest palindromic subsequence by full subset scan (small s only)."""
    return max(len(t) for t in subsequences(s) if is_pal(t))


def brute_las(s: str) -> int:
    """Longest antipalindromic subsequence by full subset scan."""
    return max(len(t) for t in subsequences(s) if is_anti(t))


def deletion_set_sd(s: str) -> int:
    """Fewest deletions leaving a symmetric text, over all C(n, k) deletion
    sets for k = 0, 1, ..."""
    n = len(s)
    for k in range(n + 1):
        for dropped in itertools.combinations(range(n), k):
            parts, prev = [], 0
            for p in dropped:
                parts.append(s[prev:p])
                prev = p + 1
            parts.append(s[prev:])
            if is_symmetric_text("".join(parts)):
                return k
    raise AssertionError("unreachable: the empty text is symmetric")


def all_texts(n: int):
    for combo in itertools.product("ab", repeat=n):
        yield "".join(combo)


def table_lengths(s: str) -> tuple[int, int]:
    """(lps, las) of ``s`` from the scalar interval tables."""
    if not s:
        return 0, 0
    return scalar_table(s, True)[0][-1], scalar_table(s, False)[0][-1]


def batched_table_lengths(n: int) -> tuple[list[int], list[int]]:
    """(lps, las) of every word of length n, indexed by its packed bits,
    from one batched table that holds both targets of every word."""
    if n == 0:
        return [0], [0]
    # in the order of their packed bits: the first letter is the top bit
    texts = ["".join(p) for p in itertools.product("ab", repeat=n)]
    pal = np.repeat([True, False], 1 << n)
    corners = _tables(texts + texts, pal)[:, 0, -1]
    return corners[: 1 << n].tolist(), corners[1 << n :].tolist()


def reference_witness(s: str) -> tuple[tuple[int, ...], SymmetryClass, str]:
    """(deleted 1-based positions, target, residual text) of a minimal
    deletion set, by the rule ``sd_witness`` must reproduce."""
    n = len(s)
    lps, las = table_lengths(s)
    want_pal = lps >= las
    table = scalar_table(s, want_pal)
    kept = []
    i, j = 0, n - 1
    while i <= j:
        if i == j:
            if want_pal:
                kept.append(i)
            break
        pair_ok = (s[i] == s[j]) if want_pal else (s[i] != s[j])
        inner = table[i + 1][j - 1] if i + 1 <= j - 1 else 0
        if pair_ok and table[i][j] == inner + 2:
            kept += (i, j)
            i += 1
            j -= 1
        elif table[i][j] == table[i][j - 1]:
            j -= 1
        else:
            i += 1
    kept.sort()
    deleted = tuple(p + 1 for p in range(n) if p not in kept)
    target = SymmetryClass.PALINDROME if want_pal else SymmetryClass.ANTIPALINDROME
    return deleted, target, "".join(s[p] for p in kept)


class ReferenceGameSolver:
    """Minimax over every position; lowest optimal position on ties."""

    def __init__(self) -> None:
        self._memo: dict[tuple[Word, Player], int] = {}

    def value(self, word: Word, mover: Player = Player.MINIMIZER) -> int:
        if word.is_symmetric():
            return 0
        key = (word, mover)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        children = (
            self.value(word.delete(pos), mover.other)
            for pos in range(1, len(word) + 1)
        )
        best = min(children) if mover is Player.MINIMIZER else max(children)
        self._memo[key] = 1 + best
        return 1 + best

    def best_move(self, word: Word, mover: Player) -> int:
        target = self.value(word, mover) - 1
        return next(
            pos
            for pos in range(1, len(word) + 1)
            if self.value(word.delete(pos), mover.other) == target
        )

    def outcome(self, word: Word) -> GameOutcome:
        total = self.value(word)
        line = []
        mover = Player.MINIMIZER
        while not word.is_symmetric():
            pos = self.best_move(word, mover)
            line.append(pos)
            word = word.delete(pos)
            mover = mover.other
        return GameOutcome(total, tuple(line))

    def max_game_value(self, n: int) -> tuple[int, Word]:
        """Scan of every word of length n in ascending order."""
        best_value, best_word = -1, None
        for bits in range(1 << n):
            word = Word(n, bits)
            value = self.value(word)
            if value > best_value:
                best_value, best_word = value, word
        return best_value, best_word


class DfsGameSolver:
    """Minimax over packed ``(bits, n, maximizer)`` states, using three facts:

    * deleting any letter of a run gives the same word, so a state has one
      child per run;
    * the value is invariant under reversal and complement, so the memo is
      keyed by the orbit minimum of ``bits`` with ``n`` and the mover bit;
    * every finished game leaves a symmetric subsequence, so the value is at
      least ``sd(w)``, and every word of length <= 2 is symmetric, so it is
      at most ``n - 2``.  The minimizer stops at a child worth ``sd(w) - 1``
      and the maximizer at one worth ``n - 3`` (an alpha-beta-style cutoff,
      Knuth & Moore 1975); both bounds are attained, so every memo entry is
      exact.
    """

    def __init__(self) -> None:
        self._memo: dict[int, int] = {}

    def value(self, word: Word, mover: Player = Player.MINIMIZER) -> int:
        return self._solve(word.bits, word.length, mover is Player.MAXIMIZER)

    def _solve(self, bits: int, n: int, maximizer: bool) -> int:
        mask = (1 << n) - 1
        rev = _reverse_bits(bits, n)
        if bits == rev or bits == rev ^ mask:
            return 0
        orbit_min = min(bits, rev, bits ^ mask, rev ^ mask)
        key = (orbit_min << 7 | n << 1) | maximizer
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if maximizer:
            best, stop = -1, n - 3
        else:
            vp, va = _mirror_lcs(bits, n)
            best, stop = n, min(vp.bit_count(), va.bit_count()) - 1
        for _, child in _run_children(bits, n):
            v = self._solve(child, n - 1, not maximizer)
            if v > best if maximizer else v < best:
                best = v
                if best == stop:
                    break
        self._memo[key] = best + 1
        return best + 1


def orbit_max_game_value(n: int, solver: DfsGameSolver) -> tuple[int, Word]:
    """Best game value at length n and the least word attaining it, by
    solving every orbit minimum (they all start with a) in ascending order."""
    mask = (1 << n) - 1
    best_value, best_bits = -1, 0
    for bits in range(1 << (n - 1)):
        rev = _reverse_bits(bits, n)
        if bits > rev or bits > rev ^ mask:
            continue
        value = solver.value(Word(n, bits))
        if value > best_value:
            best_value, best_bits = value, bits
    return best_value, Word(n, best_bits)


def table_outcome(tables: GameSolver, word: Word, mover: Player) -> GameOutcome:
    """Value and principal line read from the value tables of ``tables``:
    each move deletes the first letter of the leftmost run whose child in
    the next table keeps the value."""
    total = int(tables._table(word.length, mover is Player.MAXIMIZER)[word.bits])
    line = []
    current, to_move = word, mover
    while not current.is_symmetric():
        target = tables._table(current.length, to_move is Player.MAXIMIZER)[
            current.bits
        ] - 1
        children = tables._table(current.length - 1, to_move is Player.MINIMIZER)
        pos = next(
            pos
            for pos, child in _run_children(current.bits, current.length)
            if children[child] == target
        )
        line.append(pos)
        current = current.delete(pos)
        to_move = to_move.other
    return GameOutcome(total, tuple(line))


def unique_lattice(roots: np.ndarray, n: int, maximizer: bool):
    """Words, children and values of ``game._Lattice(roots, n, maximizer)``,
    one array per level, built by sorting each level's children."""
    words, children = [], []
    low = np.arange(n - 1, -1, -1, dtype=np.int64)
    level, m = roots, n
    while level.size:
        kids = _delete(level[:, None], low[n - m :])
        distinct, inverse = np.unique(kids, return_inverse=True)
        keep = ~_is_symmetric(distinct, m - 1)
        index = keep.cumsum(dtype=np.int32) - 1
        nxt = distinct[keep]
        index[~keep] = nxt.size
        words.append(level)
        children.append(index[inverse].reshape(kids.shape))
        level, m = nxt, m - 1
    values = [np.zeros(1, dtype=np.int8)]
    for k in range(len(words) - 1, -1, -1):
        pick = np.max if maximizer != (k % 2 == 1) else np.min
        best = pick(values[0][children[k]], axis=1) + 1
        values.insert(0, np.append(best, np.int8(0)))
    return words, children, values


def plain_canonical_scan(n: int, limit: int) -> tuple[int, list[int], int]:
    """Maximum sd at length n, its first ``limit`` canonical achievers in
    ascending order and the number of canonical words, by evaluating every
    canonical word of the a-half [0, 2^(n-1)) in blocks of 2^14 words."""
    best, hits, count = -1, [], 0
    half = 1 << (n - 1)
    for lo in range(0, half, 1 << 14):
        arr = np.arange(lo, min(lo + (1 << 14), half), dtype=np.int64)
        arr = arr[_is_canonical(arr, n)]
        values = sd_batch(arr, n)
        count += arr.size
        top = int(values.max(initial=-1))
        if top > best:
            best, hits = top, []
        if top == best:
            hits.extend(arr[values == best][: limit - len(hits)].tolist())
    return best, hits, count


def reference_mirror_lcs(bits, n: int, starts=None):
    """LCS state vectors of w against rev w and against comp rev w, as
    ``deletions._mirror_lcs`` takes and returns them with both asked for."""
    fill = (1 << n) - 1
    if starts is None:
        starts = {n - 1: fill}
    mask = 0
    for lanes in starts.values():
        mask |= lanes
    ones = mask & ~(mask << 1)
    comp = bits ^ mask
    vp = va = bits | comp
    live = 0
    for k in range(n - 1, -1, -1):
        if k in starts:
            live |= starts[k]
            b, c = bits & live, comp & live
        s = ((bits >> k) & ones) * fill
        u = vp & (c ^ s)
        vp = ((vp + u) | (vp - u)) & mask
        u = va & (b ^ s)
        va = ((va + u) | (va - u)) & mask
    return vp, va


def reference_spread(heads: np.ndarray, rows: np.ndarray, mask: np.ndarray):
    """``head | v`` for each head and each suffix v that ``mask`` marks in
    the head's row, in ascending order."""
    per_row = np.count_nonzero(mask, axis=1)
    counts = per_row[rows]
    _, cols = np.nonzero(mask)
    first = np.repeat((np.cumsum(per_row) - per_row)[rows], counts)
    place = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(heads, counts) | cols[first + place]


def reference_scan_chunk(n: int, limit: int, threshold: int, heads: range, blocks):
    """The best sd of the words of ``heads`` (-1 if none), up to ``limit``
    of its canonical achievers in ascending order, the number of canonical
    words and the number evaluated, as ``search._scan_chunk`` gives them
    where the best reaches ``threshold``."""
    k, bounds, ties, first = blocks.k, blocks.bounds, blocks.ties, blocks.first
    heads = np.arange(heads.start, heads.stop, heads.step, dtype=np.int64)
    rows = (heads >> (n - k)) - first
    tie_words = heads[:, None] | _tie_suffixes(rows + first, k)
    canonical = _is_canonical(tie_words, n)
    count = np.count_nonzero(bounds >= 0, axis=1)[rows].sum() + canonical.sum()
    kept_ties = tie_words[canonical & (ties[rows] >= threshold)]
    spread = reference_spread(heads, rows, bounds >= threshold)
    words = np.concatenate((spread, kept_ties))
    vp, va = reference_mirror_lcs(words.astype(np.uint32 if n <= 32 else np.int64), n)
    values = np.minimum(np.bitwise_count(vp), np.bitwise_count(va)).astype(np.int64)
    best = int(values.max(initial=-1))
    hits = np.sort(words[values == best])[:limit]
    return best, hits.tolist(), int(count), words.size


def _reference_sd_report(word: Word, p: int, a: int, witness) -> dict:
    n = len(word)
    report = {
        "word": str(word),
        "length": n,
        "class": word.symmetry_class().value,
        "lps": n - p,
        "las": n - a,
        "sd": min(p, a),
    }
    if witness:
        deleted, want_pal, residual = witness
        report["witness"] = {
            "deleted_positions": list(deleted),
            "target": "palindrome" if want_pal else "antipalindrome",
            "residual": residual,
        }
    return report


def _reference_sd_text(report: dict) -> str:
    line = (
        f"{report['word'] or '(empty)'} length={report['length']} "
        f"class={report['class']} lps={report['lps']} las={report['las']} "
        f"sd={report['sd']}"
    )
    if "witness" in report:
        w = report["witness"]
        deleted = ",".join(str(p) for p in w["deleted_positions"]) or "-"
        line += (
            f" deleted={deleted} target={w['target']}"
            f" residual={w['residual'] or '(empty)'}"
        )
    return line


def reference_sd_reports(ws: list[Word], with_witness: bool) -> list[dict]:
    """The report of each word, answered in chunks of 64 words."""
    reports = []
    for start in range(0, len(ws), 64):
        chunk = ws[start : start + 64]
        texts = [str(w) for w in chunk]
        pal, anti = _target_deletions([w.bits for w in chunk], list(map(len, texts)))
        if with_witness:
            witnesses = _witnesses(texts, pal, anti)
        else:
            witnesses = [None] * len(chunk)
        for word, p, a, witness in zip(chunk, pal, anti, witnesses):
            reports.append(_reference_sd_report(word, p, a, witness))
    return reports


def reference_sd_output(reports: list[dict], form: str) -> str:
    """What ``sd`` prints for these reports in ``form``, "text" or "json"."""
    line = json.dumps if form == "json" else _reference_sd_text
    return "".join(line(report) + "\n" for report in reports)


def reference_block_bounds(n: int, k: int) -> np.ndarray:
    """Upper bound on sd over each block of row n, indexed by the packed
    prefix u (a-prefixed) and the packed suffix v: n minus the larger of
    max over i, j of 2 LCS(u[:i], x[:j]) + ceil((n - i - j) / 2) and
    2 LCS(u, comp x), x = rev v, with one prefix tree of both LCS vectors
    for the row."""
    mask = (1 << k) - 1
    v = np.arange(1 << k, dtype=np.int16)
    # best_j[e][V]: max over j of 2 LCS(., x[:j]) + (e + 1 - j) // 2 for
    # the LCS vector V; with e = (n - i) % 2, adding (n - i) // 2 gives
    # the term of row i
    lcs = np.zeros(1 << k, np.int8)
    best_j = [np.full(1 << k, (e + 1) // 2, np.int8) for e in (0, 1)]
    for j in range(1, k + 1):
        lcs += 1 - ((v >> (j - 1)) & 1).astype(np.int8)
        for e in (0, 1):
            np.maximum(best_j[e], 2 * lcs + (e + 1 - j) // 2, out=best_j[e])
    match = np.stack([~v & mask, v])[None]
    vp = va = np.full((1, 1, v.size), mask, np.int16)
    best = np.full((1, 1, v.size), n // 2 + best_j[n % 2][mask], np.int8)
    for i in range(1, k + 1):
        letter = match[:, :1] if i == 1 else match
        u = vp & letter
        vp = ((vp + u) | (vp - u)) & mask
        u = va & (letter ^ mask)
        va = ((va + u) | (va - u)) & mask
        best = np.maximum(best, best_j[(n - i) % 2][vp] + (n - i) // 2)
        vp, va, best = (a.reshape(-1, 1, v.size) for a in (vp, va, best))
    las = 2 * (k - np.bitwise_count(va[:, 0]).astype(np.int8))
    return (n - np.maximum(best[:, 0], las)).astype(np.int8)


def reference_blocks(n: int) -> tuple:
    """The fields of ``search._blocks(n)`` in order, built for row n alone
    on ``reference_block_bounds``."""
    k = max(0, min(n // 2 - 2, 11))
    bounds = reference_block_bounds(n, k)
    u = np.arange(bounds.shape[0], dtype=np.int64)
    suffixes = _tie_suffixes(u, k)
    ties = np.take_along_axis(bounds, suffixes, axis=1)
    x = _reverse_bits(np.arange(1 << k, dtype=np.int64), k)
    np.putmask(bounds, u[:, None] >= np.minimum(x, x ^ ((1 << k) - 1)), -1)
    all_canonical = np.count_nonzero(bounds >= 0, axis=1)
    r = n - 2 * k
    m = np.arange(1 << r, dtype=np.int64)
    if k:
        rev = _reverse_bits(m, r)
        middles = np.stack((m <= rev, m <= rev ^ ((1 << r) - 1)), axis=1)
    else:
        middles = _is_canonical(m, n)[:, None]
    return k, bounds, all_canonical, suffixes, ties, middles, 0
