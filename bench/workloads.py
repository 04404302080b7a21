"""The benchmark's three workloads and the measurements taken on them.

Each workload is a closed loop with one client: the next ``palsym`` CLI
call starts only when the previous one has returned.  Calls go through
``palsym.cli.main`` with the argv a user would type, in this process, with
stdin and stdout replaced by in-memory buffers.  Work is grouped into
rounds; a round is a fixed list of calls whose inputs are drawn from the
seed and the round's index, so the same seed always gives the same rounds.

* ``scan``: one ``table --from 1 --to 22 --jobs 2`` call per round.
* ``queries``: 16 ``sd --stdin`` batches of 64 words with lengths uniform
  over 1..63; every fourth batch adds ``--witness``.
* ``game``: one ``game best 14`` and 10 ``game solve`` calls on random
  18-letter words per round.

Every output is checked against ``oracle`` after the round, outside the
timed region.

Timings are reported at a fixed machine speed.  On a shared 2-vCPU Xeon
virtual machine the speed drifts by a third within a minute, and every
call drifts with it, so a fixed pure-Python loop is timed after every
round, for about 2% of the round's time, and every call time of the run
is multiplied by ``REFERENCE_S`` over the loop's median time in the run.
Over 90 s in which the loop's time varied from 20 to 28 ms, the time of a
``queries`` round over the loop's time stayed within 16.7..18.1.  The raw
times are printed in the report line beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import oracle
from tracer import Tracer


SCAN_JOBS = 2
WITNESS_EVERY = 4  # every fourth sd batch adds --witness
MAX_QUERY_LENGTH = 63
# The reference loop's iterations, and its time at the reference speed:
# about its time on a quiet 2-vCPU Xeon virtual machine with Python 3.11.
REFERENCE_LOOP = 150_000
REFERENCE_S = 0.010


@dataclass(frozen=True)
class Sizes:
    scan_to: int = 22
    batch_words: int = 64
    batches_per_round: int = 16
    best_n: int = 14
    solve_length: int = 18
    solves_per_round: int = 10
    setup_probes: int = 5


FULL = Sizes()
SMOKE = Sizes(
    scan_to=16,
    batch_words=16,
    batches_per_round=4,
    best_n=8,
    solve_length=12,
    solves_per_round=3,
    setup_probes=1,
)


class Call(NamedTuple):
    kind: str  # table, sd, best or solve
    argv: list[str]
    stdin: str = ""
    # What the output is checked against: the words of an sd batch, the
    # word of a solve, n for best, the row range for table.
    inputs: object = None


def random_word(rng: random.Random, n: int) -> str:
    return oracle.unpacked(n, rng.getrandbits(n))


def run_counts(n: int, count: int) -> list[int]:
    """``count`` run counts spread as those of uniform random words of
    length n: the (k + 1/2) / count quantiles of 1 + Binomial(n - 1, 1/2)."""
    cdf, total = [], 0
    for r in range(n):
        total += math.comb(n - 1, r)
        cdf.append(total / 2 ** (n - 1))
    return [
        1 + next(r for r, c in enumerate(cdf) if c >= (k + 0.5) / count)
        for k in range(count)
    ]


def word_with_runs(rng: random.Random, n: int, runs: int) -> str:
    """A uniform random word of length n among those with ``runs`` runs."""
    cuts = sorted(rng.sample(range(1, n), runs - 1)) + [n]
    letter, start, parts = rng.getrandbits(1), 0, []
    for cut in cuts:
        parts.append("ab"[letter] * (cut - start))
        letter, start = letter ^ 1, cut
    return "".join(parts)


class Workload:
    name = ""
    # wall_s is the median time of the lead unit: one call of this kind,
    # or a whole round.
    lead_kind = "round"
    # The call whose latency percentiles are reported.
    repeated_kind = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{index}")

    def round(self, index: int, traced: bool = False) -> list[Call]:
        raise NotImplementedError

    def lead_words(self) -> int:
        """Words one lead unit answers, for words_per_s."""
        raise NotImplementedError


class Scan(Workload):
    name = "scan"
    lead_kind = "table"
    repeated_kind = "table"

    def table(self, jobs: int) -> Call:
        to = self.sizes.scan_to
        argv = ["table", "--from", "1", "--to", str(to), "--jobs", str(jobs),
                "--format", "json"]
        return Call("table", argv, inputs=range(1, to + 1))

    def round(self, index: int, traced: bool = False) -> list[Call]:
        # Traced calls run with one worker so the wrapped search functions
        # run in this process.
        return [self.table(1 if traced else SCAN_JOBS)]

    def lead_words(self) -> int:
        return (1 << (self.sizes.scan_to + 1)) - 2


class Queries(Workload):
    name = "queries"
    repeated_kind = "sd"

    def round(self, index: int, traced: bool = False) -> list[Call]:
        s = self.sizes
        rng = self.rng(index)
        calls = []
        for b in range(s.batches_per_round):
            batch = [
                random_word(rng, rng.randint(1, MAX_QUERY_LENGTH))
                for _ in range(s.batch_words)
            ]
            argv = ["sd", "--stdin", "--format", "json"]
            if b % WITNESS_EVERY == WITNESS_EVERY - 1:
                argv.append("--witness")
            calls.append(Call("sd", argv, "\n".join(batch) + "\n", batch))
        return calls

    def lead_words(self) -> int:
        return self.sizes.batch_words * self.sizes.batches_per_round


class Game(Workload):
    name = "game"
    lead_kind = "best"
    repeated_kind = "solve"

    def round(self, index: int, traced: bool = False) -> list[Call]:
        s = self.sizes
        rng = self.rng(index)
        calls = [Call("best", ["game", "best", str(s.best_n), "--format", "json"],
                      inputs=s.best_n)]
        # A solve's cost follows the word's number of runs, so each round
        # takes its words from every run-count stratum in proportion;
        # a uniform random word is a random stratum's uniform word.
        runs = run_counts(s.solve_length, s.solves_per_round)
        rng.shuffle(runs)
        for r in runs:
            word = word_with_runs(rng, s.solve_length, r)
            calls.append(Call("solve", ["game", "solve", word, "--format", "json"],
                              inputs=word))
        return calls

    def lead_words(self) -> int:
        return 1 << self.sizes.best_n


WORKLOADS = {w.name: w for w in (Scan, Queries, Game)}


# ---------------------------------------------------------------- calls


def run_cli(palsym, call: Call) -> tuple[int, str, float]:
    """Exit code, stdout and seconds of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = palsym.cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), seconds


class Checker:
    """Counts attempted and failed items of each call against the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._best: dict[int, tuple[int, str]] = {}

    def check(self, call: Call, code: int, stdout: str) -> None:
        items = self._items(call)
        self.attempted += len(items)
        if code != 0:
            self._fail(len(items), f"{' '.join(call.argv)} exited {code}")
            return
        lines = stdout.splitlines()
        if len(lines) != len(items):
            self._fail(len(items), f"{call.kind}: {len(lines)} lines for {len(items)} items")
            return
        for item, line in zip(items, lines):
            try:
                problem = self._check_one(call, item, json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"{call.kind}: unreadable output {line[:80]!r}: {exc}"
            if problem is not None:
                self._fail(1, problem)

    @staticmethod
    def _items(call: Call) -> list:
        if call.kind in ("table", "sd"):
            return list(call.inputs)
        return [call.inputs]

    def _check_one(self, call: Call, item, payload: dict) -> str | None:
        if call.kind == "table":
            if payload["n"] != item:
                return f"table row {payload['n']} where {item} was due"
            return oracle.check_table_row(payload)
        if call.kind == "sd":
            return oracle.check_sd_report(payload, item, "--witness" in call.argv)
        # A fresh game oracle per check keeps the benchmark's own heap
        # from growing from round to round.
        if call.kind == "solve":
            return oracle.check_game_solve(payload, item, oracle.GameOracle())
        if item not in self._best:
            self._best[item] = oracle.best_game(item, oracle.GameOracle())
        value, word = self._best[item]
        if (payload["n"], payload["value"], payload["word"]) != (item, value, word):
            return f"game best {item}: got {payload}, oracle {value} {word}"
        return None

    def _fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def run_round(palsym, calls: list[Call], checker: Checker) -> list[float]:
    """Seconds of each call; outputs are checked after the last call."""
    results = [run_cli(palsym, call) for call in calls]
    for call, (code, stdout, _) in zip(calls, results):
        checker.check(call, code, stdout)
    return [seconds for _, _, seconds in results]


def reference_times(repeats: int = 3) -> list[float]:
    """Seconds of each of ``repeats`` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        times.append(perf_counter() - t0)
    return times


def rounds_until(seconds: float):
    """Round indices while another round of the last one's length still
    fits in ``seconds``; always at least one.

    Each round starts from a collected heap, as a fresh ``palsym`` process
    would, so garbage left by one round is not collected inside the next.
    """
    start = perf_counter()
    index, last = 0, 0.0
    while index == 0 or perf_counter() - start + last <= seconds:
        gc.collect()
        t0 = perf_counter()
        yield index
        last = perf_counter() - t0
        index += 1


# ---------------------------------------------------------------- metrics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(palsym, workload: Workload, seconds: float) -> dict:
    """Untraced run: seconds of every call and round, by kind, scaled to
    the reference speed (``by_kind``) and as measured (``raw``)."""
    checker = Checker()
    raw: dict[str, list[float]] = {"round": []}
    reference = reference_times()
    for index in rounds_until(seconds):
        calls = workload.round(index)
        times = run_round(palsym, calls, checker)
        reference += reference_times(max(3, round(0.02 * sum(times) / REFERENCE_S)))
        for call, t in zip(calls, times):
            raw.setdefault(call.kind, []).append(t)
        raw["round"].append(sum(times))
    scale = REFERENCE_S / median(reference)
    return {
        "checker": checker,
        "by_kind": {k: [t * scale for t in v] for k, v in raw.items()},
        "raw": raw,
        "speed": scale,
        "peak_rss_mb": peak_rss_mb(),
    }


LIGHT = ("cli.main", "search.sd_max", "search.ProcessPoolExecutor")


def measure_traced(palsym, workload: Workload, seconds: float) -> dict:
    """Traced run: per-layer counts and times from the first traced round,
    and medians over all rounds of tracing overhead and 2-worker scaling.

    Each round runs untraced, then (for ``scan``) untraced with two
    workers, then traced.  The untraced passes time only ``cli.main`` and
    ``search.sd_max`` and count pool starts, which costs a few dozen spans
    per round.
    """
    checker = Checker()
    first: Tracer | None = None
    pools: Tracer | None = None
    overhead: list[float] = []
    scaling: list[float] = []
    for index in rounds_until(seconds):
        calls = workload.round(index, traced=True)
        with Tracer() as plain:
            plain.install(palsym, LIGHT)
            untraced = sum(run_round(palsym, calls, checker))
        if isinstance(workload, Scan):
            with Tracer() as two:
                two.install(palsym, LIGHT)
                run_round(palsym, [workload.table(SCAN_JOBS)], checker)
            scaling.append(_sd_max_ratio(plain, two))
            pools = pools or two
        with Tracer() as tracer:
            tracer.install(palsym)
            traced = sum(run_round(palsym, calls, checker))
        overhead.append(traced / untraced)
        first = first or tracer
    return {
        "checker": checker,
        "tracer": first,
        "pools": pools,
        "overhead_ratio": median(overhead),
        "scaling_2w": median(scaling),
    }


def _sd_max_ratio(one: Tracer, two: Tracer) -> float:
    """sd_max seconds with 1 worker over seconds with 2, over the rows
    n >= 15, where sd_max starts a pool (2^15 words and up)."""
    def total(t: Tracer) -> float:
        return sum(dt for dt, n in t.stats("search.sd_max").samples if n >= 15)
    return _ratio(total(one), total(two))


def end_to_end(workload: Workload, run: dict, setup: list[float]) -> dict:
    """The metrics BENCHMARK.json lists, as name -> (value, unit)."""
    wall = median(run["by_kind"][workload.lead_kind])
    calls = run["by_kind"][workload.repeated_kind]
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "words_per_s": (workload.lead_words() / wall, "words/s"),
        "call_p50_ms": (median(calls) * 1000, "ms"),
        "call_p90_ms": (percentile(calls, 90) * 1000, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def named(workload: Workload, run: dict, setup: list[float]) -> dict:
    """The workload's metrics under the names the prediction table uses."""
    e2e = end_to_end(workload, run, setup)
    checker = run["checker"]
    out = {
        "setup_s": e2e["setup_s"],
        "wall_s": e2e["wall_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "error_ratio": (checker.failed / checker.attempted, "ratio"),
    }
    by_kind = run["by_kind"]
    if workload.name == "scan":
        out["scan_words_per_s"] = e2e["words_per_s"]
    elif workload.name == "queries":
        total = sum(by_kind["sd"])
        words = workload.sizes.batch_words * len(by_kind["sd"])
        out["query_words_per_s"] = (words / total, "words/s")
        out["query_call_p50_ms"] = e2e["call_p50_ms"]
        out["query_call_p90_ms"] = e2e["call_p90_ms"]
    else:
        out["game_best_s"] = e2e["wall_s"]
        out["game_solve_p50_ms"] = e2e["call_p50_ms"]
        out["game_solve_p90_ms"] = e2e["call_p90_ms"]
    return out


def per_layer(workload: Workload, run: dict) -> dict:
    """The per-layer metrics BENCHMARK.json lists, as name -> (value, unit)."""
    t: Tracer = run["tracer"]
    out: dict[str, tuple[float, str]] = {}

    main = t.stats("cli.main")
    out["cli.calls"] = (main.calls, "count")
    out["cli.self_ms_per_call"] = (_ratio(main.self_time * 1000, main.calls), "ms")

    sd_max = t.stats("search.sd_max")
    batch = t.stats("search.sd_batch")
    evaluated = sum(size for _, size in batch.samples)
    scanned = sum(1 << n for _, n in sd_max.samples)
    out["search.sd_max.s_n22"] = (sum((dt for dt, n in sd_max.samples if n == 22), 0.0), "s")
    out["search.sd_batch.words_per_s"] = (_ratio(evaluated, batch.total), "words/s")
    out["search.sd_batch.calls"] = (batch.calls, "count")
    out["search.sd_batch.busy_share"] = (_ratio(batch.total, sd_max.total), "ratio")
    out["search.filter_merge_s"] = (sd_max.self_time, "s")
    out["search.words_evaluated"] = (evaluated, "count")
    out["search.evaluated_ratio"] = (_ratio(evaluated, scanned), "ratio")
    pools = run["pools"]
    pool_starts = pools.stats("search.ProcessPoolExecutor").calls if pools else 0
    out["search.pool_starts"] = (pool_starts, "count")
    out["search.scaling_2w"] = (run["scaling_2w"], "ratio")

    for name in ("sd", "sd_witness"):
        s = t.stats(f"deletions.{name}")
        micros = [dt * 1e6 for dt, _ in s.samples]
        out[f"deletions.{name}.calls"] = (s.calls, "count")
        out[f"deletions.{name}.us_p50"] = (median(micros), "us")
        out[f"deletions.{name}.us_p99"] = (percentile(micros, 99), "us")
        if name == "sd":
            for n in (20, 63):
                at_n = [dt * 1e6 for dt, size in s.samples if size == n]
                out[f"deletions.sd.us_n{n}"] = (median(at_n), "us")

    for label, command, top in (
        ("best", "game best", "game.max_game_value"),
        ("solve", "game solve", "game.game_value"),
    ):
        value_calls = t.stats("game.GameSolver.value", command).calls
        states = t.game_states.get(command, 0)
        busy = t.stats(top, command).total
        out[f"game.value.calls.{label}"] = (value_calls, "count")
        out[f"game.states.{label}"] = (states, "count")
        out[f"game.memo_hit_ratio.{label}"] = (
            _ratio(value_calls - states, value_calls), "ratio")
        out[f"game.states_per_s.{label}"] = (_ratio(states, busy), "1/s")
        out[f"game.best_move.calls.{label}"] = (
            t.stats("game.GameSolver.best_move", command).calls, "count")

    for name in ("Word.delete", "Word.symmetry_class", "parse_word"):
        out[f"words.{name}.calls"] = (t.stats(f"words.{name}").calls, "count")

    out["trace.overhead_ratio"] = (run["overhead_ratio"], "ratio")
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
