"""Command line front end.

Subcommands: ``sd`` (deletion distance of given words), ``table`` (exact
maximum per length), ``construct`` (extremal family words), ``verify``
(named self-check suites), ``game`` (solve, scan, or play the deletion
game).  Exit codes: 0 success, 1 failed verification or table mismatch,
2 usage or guard errors.

``sd`` answers its words in chunks of ``_SD_CHUNK``, each written and
flushed before the next is read, so a pipe gets answers as it feeds lines.
It reads each line's packed bits (``words._parse_bits``), runs one pass of
the sd kernel per chunk and, with ``--witness``, one batched interval
table for the chunk's witnesses, backtracked on each line's own letters;
each chunk's lines are filled from one template per format and written
at once.  No ``Word``, ``SdResult`` or ``DeletionWitness`` is built.  The
output is the same as answering one word at a time: a word that does not
parse ends the input after the reports of the words before it, with exit
code 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import time
from collections.abc import Iterator
from functools import cache

from . import bounds as bounds_mod
from . import _submodule, deletions, words
from .errors import TerminalStateError

_ORACLE_SAMPLES = 200
_ORACLE_SEED = 20240
_EXHAUSTIVE_ORACLE_MAX = 14
# Words per kernel pass and per batched witness table of `sd`.  Per word of
# 1..63 letters, kernel pass and JSON lines together (`_sd_lines`; 2-vCPU
# Xeon VM, Python 3.11.7, numpy 2.4.6, medians of 3 processes of 9
# interleaved passes over 2048 words, `BENCH_26.json`), chunks of
# 8/16/32/64/128/256 words cost 7.3/6.7/5.1/4.6/4.4/5.6 us, and
# 96/72/60/57/52/55 us with the witness, against 25 and 270 us one word at a
# time.  Past 64 words the gain is under a tenth, while the witness arrays
# grow by 8 KB per word.
_SD_CHUNK = 64


def _jobs(requested: int | None) -> int:
    """Worker count from ``--jobs``, else from ``PALSYM_JOBS`` or the CPUs."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"--jobs must be a positive integer, got {requested}")
        return requested
    env = os.environ.get("PALSYM_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"PALSYM_JOBS must be a positive integer, got {env!r}")
    return jobs


# ---------------------------------------------------------------- sd


# How `sd` writes a word's line in each format: the word's fields, then
# its witness's fields, the end of the line, the empty word (as the word or
# as the residual), the separator of the deleted positions and the text of
# none.  Words hold only a and b and the class and target names are fixed,
# so no field needs escaping: a JSON line is the bytes of ``json.dumps`` of
# the report {"word", "length", "class", "lps", "las", "sd"} with its
# "witness": {"deleted_positions", "target", "residual"}.
_SD_FORMATS = {
    "text": (
        "{} length={} class={} lps={} las={} sd={}",
        " deleted={} target={} residual={}",
        "\n",
        "(empty)",
        ",",
        "-",
    ),
    "json": (
        '{{"word": "{}", "length": {}, "class": "{}", "lps": {}, "las": {}, '
        '"sd": {}',
        ', "witness": {{"deleted_positions": [{}], "target": "{}", '
        '"residual": "{}"}}',
        "}\n",
        "",
        ", ",
        "",
    ),
}
_PALINDROME = words.SymmetryClass.PALINDROME.value
_ANTIPALINDROME = words.SymmetryClass.ANTIPALINDROME.value
_BOTH = words.SymmetryClass.BOTH.value
_NEITHER = words.SymmetryClass.NEITHER.value


def _sd_lines(texts: list[str], bits: list[int], form: str, with_witness: bool) -> str:
    """The output lines of a chunk of words, given as their letters and
    packed bits: one kernel pass over the bits, and with ``with_witness``
    one batched table over the letters for all of their witnesses.

    A word's class is read from its counts: a word of n letters is a
    palindrome iff lps = LCS(w, rev w) = n, an antipalindrome iff las = n,
    and both iff n = 0.  The kernel gives the deletions to each target,
    n - lps and n - las, and sd is the smaller.
    """
    line, witness_line, end, empty, separator, no_deletion = _SD_FORMATS[form]
    lengths = list(map(len, texts))
    pal, anti = deletions._target_deletions(bits, lengths)
    if with_witness:
        witnesses = deletions._witnesses(texts, pal, anti)
    else:
        witnesses = [None] * len(texts)
    lines = []
    for text, n, p, a, witness in zip(texts, lengths, pal, anti, witnesses):
        if p == 0:
            cls = _PALINDROME if n else _BOTH
        else:
            cls = _ANTIPALINDROME if a == 0 else _NEITHER
        lines.append(line.format(text or empty, n, cls, n - p, n - a, min(p, a)))
        if witness:
            deleted, want_pal, residual = witness
            lines.append(
                witness_line.format(
                    separator.join(map(str, deleted)) or no_deletion,
                    _PALINDROME if want_pal else _ANTIPALINDROME,
                    residual or empty,
                )
            )
        lines.append(end)
    return "".join(lines)


def _cmd_sd(args) -> int:
    texts = iter(args.words)
    if args.stdin:
        texts = itertools.chain(texts, filter(None, map(str.strip, sys.stdin)))
    # each chunk is read, answered and flushed before the next is read
    chunk = list(itertools.islice(texts, _SD_CHUNK))
    if not chunk:
        print("no words given; pass words or use --stdin", file=sys.stderr)
        return 2
    while chunk:
        # A bad line ends the input: the words before it are still answered.
        bits, error = [], None
        try:
            for text in chunk:
                deletions._check_lane(len(text))
                bits.append(words._parse_bits(text, args.digits))
        except ValueError as exc:  # a bad letter or a line too long
            error = exc
        del chunk[len(bits) :]
        if args.digits:  # the lines print as letters
            chunk = [text.translate(words._TO_LETTERS) for text in chunk]
        sys.stdout.write(_sd_lines(chunk, bits, args.format, args.witness))
        sys.stdout.flush()
        if error is not None:
            raise error
        chunk = list(itertools.islice(texts, _SD_CHUNK))
    return 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    from . import search

    config = search.SearchConfig(
        worker_count=_jobs(args.jobs),
        extremal_limit=args.extremal_limit,
        progress_interval=args.progress,
    )
    rows = search.compute_table(args.from_n, args.to_n, config)
    if args.stats:
        for row in rows:
            print(
                f"stats: n={row.n} elapsed={row.elapsed_s:.3f}s "
                f"words={row.words_scanned} "
                f"words_per_s={row.words_scanned / row.elapsed_s:.0f} "
                f"evaluated={row.words_evaluated} "
                f"blocks_pruned={row.blocks_pruned} chunks={row.chunks} "
                f"pool={int(row.pooled)}",
                file=sys.stderr,
            )
    if args.format == "csv":
        print(search.CSV_HEADER)
        for row in rows:
            print(search.row_to_csv(row))
    elif args.format == "json":
        for row in rows:
            print(search.row_to_json(row))
    else:
        for row in rows:
            sample = " ".join(str(w) for w in row.extremal)
            print(
                f"n={row.n} sd={row.sd} lower={row.lower} upper={row.upper} "
                f"scanned={row.words_scanned} extremal={sample}"
            )
    if args.compare_paper:
        mismatches = search.compare_with_known(rows)
        if mismatches:
            for m in mismatches:
                print(
                    f"MISMATCH n={m.n}: computed {m.computed}, "
                    f"reference {m.expected}",
                    file=sys.stderr,
                )
            return 1
        print(
            "all computed rows match the reference table", file=sys.stderr
        )
    return 0


# ---------------------------------------------------------------- construct


def _cmd_construct(args) -> int:
    params = bounds_mod.ConstructionParams(args.n, args.alpha, args.beta)
    word = bounds_mod.build_word(params)
    bound = bounds_mod.family_bound(params)
    computed = deletions.sd(word).value
    if args.format == "json":
        print(
            json.dumps(
                {
                    "word": str(word),
                    "length": len(word),
                    "bound": bound,
                    "sd": computed,
                }
            )
        )
    else:
        print(f"word={word} length={len(word)} bound={bound} sd={computed}")
    return 0


# ---------------------------------------------------------------- verify

Check = tuple[str, bool, str]


def _suite_lemma4(
    max_n: int, jobs: int, progress: float | None
) -> Iterator[Check]:
    for c in bounds_mod.verify_family(max_n):
        p = c.params
        yield (
            f"family n={p.n} alpha={p.alpha} beta={p.beta}",
            c.ok,
            f"length={len(c.word)} sd={c.computed} expected={c.bound}",
        )


def _suite_bounds(
    max_n: int, jobs: int, progress: float | None
) -> Iterator[Check]:
    from . import search

    config = search.SearchConfig(worker_count=jobs, progress_interval=progress)
    for n in range(2, max_n + 1):
        row = search.sd_max(n, config)
        yield (
            f"range n={n}",
            row.lower <= row.sd <= row.upper,
            f"lower={row.lower} sd={row.sd} upper={row.upper}",
        )
        expected = search.KNOWN_MAX_SD.get(n)
        if expected is not None:
            yield (
                f"exact n={n}",
                row.sd == row.lower == expected,
                f"sd={row.sd} lower={row.lower} reference={expected}",
            )


def _first_failure(pool, holds) -> words.Word | None:
    """The first word of ``pool`` on which ``holds`` is false, or None; in
    ``all_words`` order that is the least failing word."""
    return next((w for w in pool if not holds(w)), None)


def _suite_oracle(
    max_n: int, jobs: int, progress: float | None
) -> Iterator[Check]:
    rng = random.Random(_ORACLE_SEED)
    for n in range(1, max_n + 1):
        if n <= _EXHAUSTIVE_ORACLE_MAX:
            pool = words.all_words(n)
            label = f"oracle n={n} exhaustive"
            count = 1 << n
        else:
            pool = (
                words.Word(n, rng.randrange(1 << n))
                for _ in range(_ORACLE_SAMPLES)
            )
            label = f"oracle n={n} sampled"
            count = _ORACLE_SAMPLES
        bad = _first_failure(
            pool, lambda w: deletions.sd(w).value == deletions.brute_force_sd(w)
        )
        yield (
            label,
            bad is None,
            f"{count} words agree" if bad is None else f"mismatch at {bad}",
        )


def _peels(w: words.Word) -> bool:
    """Equal end letters add 2 to the lps of the word between them, unequal
    ones 2 to its las."""
    s = str(w)
    length = deletions.lps_length if s[0] == s[-1] else deletions.las_length
    return length(w) == 2 + length(words.parse_word(s[1:-1]))


def _suite_peeling(
    max_n: int, jobs: int, progress: float | None
) -> Iterator[Check]:
    for n in range(2, max_n + 1):
        bad = _first_failure(words.all_words(n), _peels)
        yield (
            f"peeling n={n}",
            bad is None,
            "both identities hold" if bad is None else f"fails at {bad}",
        )


def _orbit_constant(w: words.Word) -> bool:
    orbit = (w, w.reverse(), w.complement())
    return len({deletions.sd(v).value for v in orbit}) == 1


def _suite_invariance(
    max_n: int, jobs: int, progress: float | None
) -> Iterator[Check]:
    from . import search

    for n in range(1, max_n + 1):
        bad = _first_failure(words.all_words(n), _orbit_constant)
        yield (
            f"group invariance n={n}",
            bad is None,
            "sd constant on orbits" if bad is None else f"fails at {bad}",
        )
    config = search.SearchConfig(worker_count=jobs, progress_interval=progress)
    for n in range(1, min(max_n, 12) + 1):
        pruned = search.sd_max(n, config).sd
        full = int(search.sd_batch(range(1 << n), n).max())
        yield (
            f"pruning n={n}",
            pruned == full,
            f"canonical-only max {pruned}, full-scan max {full}",
        )


def _suite_game(
    max_n: int, jobs: int, progress: float | None
) -> Iterator[Check]:
    from . import game

    for n in range(6, max_n + 1):
        value, word = game.max_game_value(n)
        yield (
            f"game value n={n}",
            value >= n - 4,
            f"best={value} (word {word}) needs >= {n - 4}",
        )
    solver = game.GameSolver()
    for n in range(1, min(max_n, 10) + 1):
        # the first failing word in all_words order is the least one
        over = (solver._table(n, False) > max(0, n - 2)).nonzero()[0]
        bad = words.Word(n, int(over[0])) if over.size else None
        yield (
            f"game termination n={n}",
            bad is None,
            f"all values <= {max(0, n - 2)}" if bad is None else f"fails at {bad}",
        )


def _guard(module: str, name: str):
    """A module's guard, read when the suite runs, so that importing the
    CLI does not import the module."""
    return lambda: getattr(_submodule(module), name)


# suite name -> (runner, default --max-n, smallest allowed --max-n, largest
# allowed --max-n or a guard that gives it); below the smallest a suite
# would run no check at all.  A runner is called with --max-n, the worker
# count and the --progress interval of the scans it runs, if any.  `lemma4
# --max-n 300` checks 2 107 family words of up to 2 109 letters in 2.3 to
# 3.0 s (median 2.6 s of 5 processes, 2-vCPU Xeon VM, Python 3.11.7).
_SUITES = {
    "lemma4": (_suite_lemma4, 4, 0, 300),
    "bounds": (_suite_bounds, 14, 2, _guard("search", "MAX_SEARCH_LENGTH")),
    "oracle": (_suite_oracle, 10, 1, deletions.ORACLE_MAX_LENGTH),
    "peeling": (_suite_peeling, 12, 2, 16),
    "invariance": (_suite_invariance, 10, 1, 14),
    "game": (_suite_game, 10, 1, _guard("game", "GAME_MAX_LENGTH")),
}


def _progress(seconds: float | None) -> float | None:
    """``verify --progress``, checked as ``search.SearchConfig`` checks it,
    also for a suite that runs no scan."""
    if seconds is not None and not 0 <= seconds < math.inf:
        raise ValueError(
            f"progress_interval must be finite and >= 0, got {seconds}"
        )
    return seconds


def _cmd_verify(args) -> int:
    suite = args.suite
    runner, default_max_n, lowest, guard = _SUITES[suite]
    guard = guard() if callable(guard) else guard
    max_n = args.max_n if args.max_n is not None else default_max_n
    if max_n < lowest or max_n > guard:
        print(
            f"--max-n {max_n} outside {lowest}..{guard} for suite {suite}",
            file=sys.stderr,
        )
        return 2
    # each check is printed as it is made, so a long suite shows its
    # progress and a suite cut short shows the checks it made
    made = runner(max_n, _jobs(args.jobs), _progress(args.progress))
    checks = failures = 0
    for name, ok, detail in made:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", flush=True)
        checks += 1
        failures += 0 if ok else 1
    print(f"suite {suite}: {checks - failures}/{checks} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- game


def _print_game_stats(start: float, counts: str) -> None:
    print(
        f"stats: elapsed={time.perf_counter() - start:.3f}s {counts}",
        file=sys.stderr,
    )


def _cmd_game_solve(args) -> int:
    from . import game

    word = words.parse_word(args.word, allow_digits=args.digits)
    start = time.perf_counter()
    solver = game.GameSolver()
    outcome = game.game_value(word, solver)
    if args.format == "json":
        payload = game.transcript(word, outcome.principal_line)
        payload["value"] = outcome.value
        print(json.dumps(payload))
    else:
        line = ",".join(str(p) for p in outcome.principal_line) or "-"
        records = game.replay(word, outcome.principal_line)
        final = records[-1].result if records else word
        print(
            f"word={word} value={outcome.value} line={line} "
            f"final={final or '(empty)'} class={final.symmetry_class().value}"
        )
    if args.stats:
        _print_game_stats(
            start, f"levels={solver.lattice_levels} states={solver.states}"
        )
    return 0


def _cmd_game_best(args) -> int:
    from . import game

    start = time.perf_counter()
    solver = game.GameSolver()
    value, word = game.max_game_value(args.n, solver)
    if args.format == "json":
        print(json.dumps({"n": args.n, "value": value, "word": str(word)}))
    else:
        print(f"n={args.n} value={value} word={word}")
    if args.stats:
        _print_game_stats(
            start, f"levels={solver.levels} table_words={solver.table_words}"
        )
    return 0


def _read_position(word: words.Word) -> int | None:
    n = len(word)
    width = len(str(n))
    print("word:", " ".join(f"{c:>{width}}" for c in str(word)))
    print(" pos:", " ".join(f"{p:>{width}}" for p in range(1, n + 1)))
    while True:
        print(f"delete which position (1-{n})? ", end="", flush=True)
        line = sys.stdin.readline()
        if line == "":
            return None
        line = line.strip()
        try:
            pos = int(line)
        except ValueError:
            print(f"not a number: {line!r}")
            continue
        if 1 <= pos <= n:
            return pos
        print(f"position out of range 1-{n}")


def _cmd_game_play(args) -> int:
    from . import game

    word = words.parse_word(args.word, allow_digits=args.digits)
    if (
        args.engine == "exact"
        and len(word) > game.GAME_MAX_LENGTH
        and not word.is_symmetric()
    ):
        print(
            f"exact engine supports words up to {game.GAME_MAX_LENGTH} "
            "letters; use --engine heuristic",
            file=sys.stderr,
        )
        return 2
    human_is_minimizer = args.side == "second"
    mover = game.Player.MINIMIZER
    solver = game.GameSolver()
    moves: list[int] = []
    last_letter: str | None = None
    initial = word

    if word.is_symmetric():
        print(f"{word or '(empty)'} is already symmetric; no moves to play")
    while not word.is_symmetric():
        human_turn = (mover is game.Player.MINIMIZER) == human_is_minimizer
        if human_turn:
            pos = _read_position(word)
            if pos is None:
                print("input closed before the game ended", file=sys.stderr)
                return 2
            actor = "you"
        else:
            pos = game.engine_move(word, mover, args.engine, last_letter, solver)
            actor = "engine"
        letter = word.letter_at(pos)
        word = word.delete(pos)
        moves.append(pos)
        last_letter = letter
        print(
            f"{actor} delete position {pos} (letter {letter}) -> "
            f"{word or '(empty)'}"
        )
        mover = mover.other

    print(
        f"game over after {len(moves)} moves; final word "
        f"'{word}' ({word.symmetry_class().value})"
    )
    if args.format == "json":
        print(json.dumps(game.transcript(initial, moves)))
    return 0


# ---------------------------------------------------------------- parser

_STATS_HELP = (
    "print elapsed time and the solver's work to stderr: lattice levels and "
    "states for solve, value tables and their words for best"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palsym",
        description=(
            "Deletion distance to palindromes and antipalindromes for "
            "binary words, exhaustive extremal search, bound checks, and "
            "an adversarial deletion game."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sd = sub.add_parser("sd", help="deletion distance of given words")
    p_sd.add_argument("words", nargs="*", help="words over {a,b}")
    p_sd.add_argument(
        "--witness", action="store_true", help="also print a minimal deletion set"
    )
    p_sd.add_argument(
        "--stdin", action="store_true", help="read one word per line from stdin"
    )
    p_sd.add_argument(
        "--digits", action="store_true", help="accept 0/1 as aliases for a/b"
    )
    p_sd.add_argument("--format", choices=("text", "json"), default="text")
    p_sd.set_defaults(func=_cmd_sd)

    p_table = sub.add_parser(
        "table", help="exact maximum sd for each length in a range"
    )
    p_table.add_argument("--from", dest="from_n", type=int, required=True)
    p_table.add_argument("--to", dest="to_n", type=int, required=True)
    p_table.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_table.add_argument(
        "--jobs", type=int, default=None, help="workers (default: PALSYM_JOBS or CPU count)"
    )
    p_table.add_argument(
        "--compare-paper",
        action="store_true",
        help="exit 1 unless rows with n <= 20 match the reference table",
    )
    p_table.add_argument("--extremal-limit", type=int, default=8)
    p_table.add_argument(
        "--progress", type=float, default=None, help="progress period in seconds"
    )
    p_table.add_argument(
        "--stats",
        action="store_true",
        help="print each row's elapsed time, canonical words, words/s, words "
        "evaluated, blocks pruned (blocks with canonical words that the bound "
        "skipped in every head: below the threshold in force when their "
        "prefix's first head was scanned), chunks and pool use to stderr",
    )
    p_table.set_defaults(func=_cmd_table)

    p_con = sub.add_parser(
        "construct", help="build a word of the extremal four-block family"
    )
    p_con.add_argument("n", type=int)
    p_con.add_argument("alpha", type=int)
    p_con.add_argument("beta", type=int)
    p_con.add_argument("--format", choices=("text", "json"), default="text")
    p_con.set_defaults(func=_cmd_construct)

    p_ver = sub.add_parser("verify", help="run a named self-check suite")
    p_ver.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--jobs", type=int, default=None)
    p_ver.add_argument(
        "--progress",
        type=float,
        default=None,
        help="progress period in seconds of the scans the suite runs",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_game = sub.add_parser("game", help="deletion game: solve, scan, or play")
    game_sub = p_game.add_subparsers(dest="game_command", required=True)

    g_solve = game_sub.add_parser("solve", help="exact value of one word")
    g_solve.add_argument("word")
    g_solve.add_argument("--digits", action="store_true")
    g_solve.add_argument("--format", choices=("text", "json"), default="text")
    g_solve.add_argument("--stats", action="store_true", help=_STATS_HELP)
    g_solve.set_defaults(func=_cmd_game_solve)

    g_best = game_sub.add_parser(
        "best", help="best starting word of a given length"
    )
    g_best.add_argument("n", type=int)
    g_best.add_argument("--format", choices=("text", "json"), default="text")
    g_best.add_argument("--stats", action="store_true", help=_STATS_HELP)
    g_best.set_defaults(func=_cmd_game_best)

    g_play = game_sub.add_parser("play", help="interactive game against the engine")
    g_play.add_argument("word")
    g_play.add_argument(
        "--side",
        choices=("first", "second"),
        required=True,
        help="which player you are; the second player moves first",
    )
    g_play.add_argument(
        "--engine", choices=("exact", "heuristic"), default="exact"
    )
    g_play.add_argument("--digits", action="store_true")
    g_play.add_argument("--format", choices=("text", "json"), default="text")
    g_play.set_defaults(func=_cmd_game_play)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built at the
    first; parsing keeps no state in it between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TerminalStateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
