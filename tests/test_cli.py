import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from _helpers import all_texts, reference_sd_output, reference_sd_reports
from hypothesis import given, settings
from hypothesis import strategies as st

import palsym
from palsym import Word, bounds, cli, deletions, game, parse_word, search
from palsym.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sd_basic(capsys):
    code, out, _ = run_cli(capsys, "sd", "bbabbbbaaa")
    assert code == 0
    assert "sd=4" in out
    assert "lps=6" in out
    assert "las=6" in out
    assert "class=neither" in out


def test_sd_symmetric_word(capsys):
    code, out, _ = run_cli(capsys, "sd", "ab")
    assert code == 0
    assert "sd=0" in out
    assert "class=antipalindrome" in out


def test_sd_parse_failure_exits_2(capsys):
    code, _, err = run_cli(capsys, "sd", "axb")
    assert code == 2
    assert "position 2" in err


def test_sd_witness(capsys):
    code, out, _ = run_cli(capsys, "sd", "aab", "--witness")
    assert code == 0
    assert "deleted=3" in out
    assert "residual=aa" in out


def test_sd_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "sd", "aab", "--witness", "--format", "json")
    assert code == 0
    line = out.strip()
    parsed = json.loads(line)
    assert json.dumps(parsed) == line
    assert parsed["sd"] == 1
    assert parsed["witness"]["deleted_positions"] == [3]


def test_sd_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("aab\nabba\n\n"))
    code, out, _ = run_cli(capsys, "sd", "--stdin")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "sd=1" in lines[0]
    assert "sd=0" in lines[1]


def test_sd_digits(capsys):
    code, out, _ = run_cli(capsys, "sd", "0110", "--digits")
    assert code == 0
    assert "abba" in out
    assert "class=palindrome" in out


def test_sd_no_words(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run_cli(capsys, "sd")
    assert code == 2


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--from", "10", "--to", "10", "--format", "json",
        "--jobs", "1",
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row == {
        "n": 10,
        "sd": 4,
        "lower": 4,
        "upper": 5,
        "extremal": ["aaabbbbabb"],
    }


def test_table_compare_reference_ok(capsys):
    code, out, err = run_cli(
        capsys, "table", "--from", "1", "--to", "10", "--compare-paper",
        "--jobs", "1",
    )
    assert code == 0
    assert "match" in err


def test_table_compare_reference_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(search.KNOWN_MAX_SD, 10, 5)
    code, out, err = run_cli(
        capsys, "table", "--from", "1", "--to", "12", "--compare-paper",
        "--jobs", "1",
    )
    assert code == 1
    assert len(out.splitlines()) == 12
    assert err == "MISMATCH n=10: computed 4, reference 5\n"


def test_table_guard_exit_2(capsys):
    code, _, err = run_cli(capsys, "table", "--from", "1", "--to", "64")
    assert code == 2
    assert "error" in err
    code, out, err = run_cli(capsys, "table", "--from", "33", "--to", "33")
    assert code == 2
    assert out == ""
    assert "beyond the search guard 32" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--from", "3", "--to", "4", "--format", "csv",
        "--jobs", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,sd,lower,upper,extremal"
    assert lines[1] == "3,1,1,1,aab"
    assert lines[2].startswith("4,1,1,2,")


@pytest.mark.parametrize("form", ["text", "csv"])
def test_table_extremal_limit(capsys, form):
    """``--extremal-limit`` keeps the first words of the default list, 0
    keeps none, and a negative limit exits 2."""
    argv = ("table", "--from", "12", "--to", "12", "--jobs", "1", "--format", form)
    sep = " extremal=" if form == "text" else ","
    split = " " if form == "text" else ";"

    def row(*flags):
        code, out, err = run_cli(capsys, *argv, *flags)
        assert (code, err) == (0, "")
        fields, words = out.splitlines()[-1].rsplit(sep, 1)
        return fields, words.split(split) if words else []

    fields, default = row()
    assert len(default) == 8
    assert row("--extremal-limit", "2") == (fields, default[:2])
    assert row("--extremal-limit", "0") == (fields, [])
    code, out, err = run_cli(capsys, *argv, "--extremal-limit", "-1")
    assert (code, out, err) == (2, "", "error: extremal_limit must be >= 0\n")


def test_jobs_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PALSYM_JOBS", "1")
    code, out, _ = run_cli(capsys, "table", "--from", "6", "--to", "6")
    assert code == 0
    assert "sd=2" in out


@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_jobs_env_invalid_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("PALSYM_JOBS", value)
    code, out, err = run_cli(capsys, "table", "--from", "6", "--to", "6")
    assert code == 2
    assert out == ""
    assert "PALSYM_JOBS" in err


def test_table_jobs_zero_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "table", "--from", "6", "--to", "6", "--jobs", "0"
    )
    assert code == 2
    assert out == ""
    assert "--jobs" in err


def test_verify_jobs_zero_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "game", "--max-n", "6", "--jobs", "0"
    )
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("interval", ["-1", "nan", "inf"])
def test_table_negative_progress_exits_2(capsys, interval):
    code, out, err = run_cli(
        capsys, "table", "--from", "6", "--to", "6", "--jobs", "1",
        "--progress", interval,
    )
    assert code == 2
    assert out == ""
    assert "progress" in err


def test_table_progress_with_workers(capfd):
    argv = ["table", "--from", "15", "--to", "15", "--jobs", "2"]
    assert main(argv) == 0
    plain = capfd.readouterr()
    assert main(argv + ["--progress", "0"]) == 0
    reported = capfd.readouterr()
    assert reported.out == plain.out
    assert "n=15: scanned" in reported.err
    assert "scanned" not in plain.err


def test_table_progress_gives_scan_totals(capfd):
    argv = ["table", "--from", "17", "--to", "17", "--jobs", "4"]
    assert main(argv) == 0
    plain = capfd.readouterr()
    assert main(argv + ["--progress", "0"]) == 0
    reported = capfd.readouterr()
    assert reported.out == plain.out
    assert "scanned=32896 " in plain.out and " sd=7 " in plain.out
    lines = reported.err.splitlines()
    counts, maxima = [], []
    for line in lines:
        match = re.fullmatch(r"n=17: scanned (\d+) words, current max (\d+)", line)
        assert match, line
        counts.append(int(match[1]))
        maxima.append(int(match[2]))
    assert counts == sorted(counts)
    assert maxima == sorted(maxima)
    assert lines[-1] == "n=17: scanned 32896 words, current max 7"


def test_verify_progress_gives_scan_totals_within_rows(capfd):
    """``verify --suite bounds --progress 0`` prints each scan's totals
    after every chunk: row 22 reports four times, the last its full count,
    and stdout is the same as without it."""
    argv = ["verify", "--suite", "bounds", "--max-n", "22", "--jobs", "1"]
    assert main(argv) == 0
    plain = capfd.readouterr()
    assert main(argv + ["--progress", "0"]) == 0
    reported = capfd.readouterr()
    assert reported.out == plain.out
    assert plain.err == ""
    rows: dict[int, list[tuple[int, int]]] = {}
    for line in reported.err.splitlines():
        match = re.fullmatch(r"n=(\d+): scanned (\d+) words, current max (\d+)", line)
        assert match, line
        rows.setdefault(int(match[1]), []).append((int(match[2]), int(match[3])))
    assert list(rows) == list(range(2, 23))
    assert len(rows[22]) > 1
    assert rows[22] == sorted(rows[22])
    assert rows[22][-1] == (1_049_600, 8)


@pytest.mark.parametrize("suite", ["bounds", "lemma4"])
@pytest.mark.parametrize("interval", ["-1", "nan", "inf"])
def test_verify_bad_progress_exits_2(capsys, suite, interval):
    """A bad interval exits 2 as for ``table``, also for a suite that runs
    no scan."""
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--progress", interval
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: progress_interval must be finite and >= 0, got {float(interval)}\n"
    )


def test_table_stats_leave_stdout_unchanged(capsys):
    """The stats lines leave stdout alone; the bound prunes blocks of every
    row, the rows make the chunks of their plans, and no row counts enough
    kernel words to go to a pool."""
    argv = ("table", "--from", "14", "--to", "22", "--jobs", "2")
    code, plain, plain_err = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain
    assert plain_err == ""
    lines = err.splitlines()
    assert len(lines) == 9
    words = (4_160, 8_256, 16_512, 32_896, 65_792, 131_328, 262_656, 524_800)
    chunks = (1, 2, 2, 2, 2, 3, 3, 3, 3)
    for n, line, scanned, chunk_count in zip(
        range(14, 23), lines, words + (1_049_600,), chunks
    ):
        match = re.fullmatch(
            rf"stats: n={n} elapsed=\d+\.\d{{3}}s words={scanned} "
            rf"words_per_s=\d+ evaluated=(\d+) "
            rf"blocks_pruned=(\d+) chunks={chunk_count} pool=0",
            line,
        )
        assert match, line
        evaluated, pruned = int(match[1]), int(match[2])
        assert evaluated < scanned
        assert pruned > 0


def test_one_cpu_runs_every_row_in_process(capsys, monkeypatch):
    """On a machine that reports one CPU, row 25 counts enough kernel
    words for a pool, but `--jobs 2` leaves it one worker: it runs in this
    process, opens no pool and prints the `--jobs 1` table."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    blocks = search._blocks(25)
    span = len(search._heads(25, blocks.k)) // blocks.classes.shape[0]
    counted = search._row_words(blocks, search._threshold(25)).sum() * span
    assert counted >= search._POOL_WORDS

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker row opened a pool")

    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    argv = ("table", "--from", "25", "--to", "25")
    code, one, _ = run_cli(capsys, *argv, "--jobs", "1")
    assert code == 0
    code, two, err = run_cli(capsys, *argv, "--jobs", "2", "--stats")
    assert code == 0
    assert two == one
    assert err.startswith("stats: n=25 ") and err.endswith(" pool=0\n")


@pytest.mark.parametrize("text", ["", "a", "ab", "aab", "abbabaabbbaabab" * 4])
@pytest.mark.parametrize("with_witness", [False, True])
def test_sd_report_runs_kernel_once(capsys, monkeypatch, text, with_witness):
    """`sd --stdin` runs the sd kernel once per chunk of words, with or
    without `--witness`: the witnesses add no second run."""
    calls = []
    kernel = deletions._mirror_lcs

    def counting(bits, n, starts=None):
        calls.append(n)
        return kernel(bits, n, starts)

    monkeypatch.setattr(deletions, "_mirror_lcs", counting)
    flags = ["--format", "json"] + (["--witness"] if with_witness else [])
    for count in (1, 5, 64, 65, 200):
        # `text` comes first, as an argument, since stdin skips blank lines
        texts = [text] + [("ab", "aab", "bbabbbbaaa")[i % 3] for i in range(count - 1)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(texts[1:]) + "\n"))
        calls.clear()
        code, out, _ = run_cli(capsys, "sd", text, "--stdin", *flags)
        assert code == 0
        assert len(calls) == -(-count // cli._SD_CHUNK)
        assert len(calls) == 1 or count > 64  # up to 64 words share one pass
        assert calls[0] == max(map(len, texts[: cli._SD_CHUNK]))
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["word"] for r in reports] == texts
        for word, report in zip(texts, reports):
            assert report["sd"] == deletions.sd(parse_word(word)).value
            assert ("witness" in report) == with_witness


_STREAM_HEAD = "aab\nabba\n\nbbabbbbaaa\n"
_STREAM_TEXT = (
    "aab length=3 class=neither lps=2 las=2 sd=1\n"
    "abba length=4 class=palindrome lps=4 las=2 sd=0\n"
    "bbabbbbaaa length=10 class=neither lps=6 las=6 sd=4\n"
)
_STREAM_JSON = (
    '{"word": "aab", "length": 3, "class": "neither", "lps": 2, "las": 2, '
    '"sd": 1, "witness": {"deleted_positions": [3], "target": "palindrome", '
    '"residual": "aa"}}\n'
    '{"word": "abba", "length": 4, "class": "palindrome", "lps": 4, "las": 2, '
    '"sd": 0, "witness": {"deleted_positions": [], "target": "palindrome", '
    '"residual": "abba"}}\n'
    '{"word": "bbabbbbaaa", "length": 10, "class": "neither", "lps": 6, '
    '"las": 6, "sd": 4, "witness": {"deleted_positions": [3, 8, 9, 10], '
    '"target": "palindrome", "residual": "bbbbbb"}}\n'
)


@pytest.mark.parametrize(
    "bad, err",
    [
        ("axb", "error: invalid letter 'x' at position 2\n"),
        ("b" * 64, "error: word of length 64 exceeds the 63-letter limit\n"),
    ],
    ids=["invalid-letter", "64-letters"],
)
@pytest.mark.parametrize(
    "flags, out",
    [([], _STREAM_TEXT), (["--witness", "--format", "json"], _STREAM_JSON)],
    ids=["text", "json-witness"],
)
def test_sd_stdin_stops_at_a_bad_line(capsys, monkeypatch, bad, err, flags, out):
    """A bad line in the middle of the input: the reports of the lines
    before it, then the error, and exit 2."""
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{_STREAM_HEAD}{bad}\nab\n"))
    assert run_cli(capsys, "sd", "--stdin", *flags) == (2, out, err)


def test_sd_stdin_bad_line_after_several_chunks(capsys, monkeypatch):
    """Chunks before the bad line are answered in full, the rest of the
    bad line's chunk up to it, and nothing after it."""
    texts = ["ab" * (i % 31) + "b" * (1 + i % 3) for i in range(150)]
    code, expected, _ = run_cli(capsys, "sd", *texts, "--witness")
    assert code == 0
    stream = "\n".join(texts[:130] + ["aa1"] + texts[130:]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    code, out, err = run_cli(capsys, "sd", "--stdin", "--witness")
    assert code == 2
    assert out.splitlines() == expected.splitlines()[:130]
    assert err == "error: invalid letter '1' at position 3\n"


def test_sd_stdin_answers_while_its_input_is_open(capsys):
    """A child `sd --stdin` answers its first 64 lines while its stdin is
    still open, and exits once it closes; a child that waited for the end
    of its input would fail the timeout instead of hanging the test."""
    texts = ["ab" * (i % 31) + "b" * (1 + i % 3) for i in range(64)]
    code, expected, _ = run_cli(capsys, "sd", *texts, "--witness")
    assert code == 0
    lines = []
    argv = [sys.executable, "-m", "palsym", "sd", "--stdin", "--witness"]
    with subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_source_env(),
    ) as child:
        child.stdin.write("".join(t + "\n" for t in texts))
        child.stdin.flush()
        reader = threading.Thread(
            target=lambda: lines.extend(child.stdout.readline() for _ in texts),
            daemon=True,
        )
        reader.start()
        reader.join(timeout=60)
        answered = not reader.is_alive()
        child.stdin.close()
        assert child.wait(timeout=60) == 0
    assert answered, "no answer while stdin was open"
    assert "".join(lines) == expected


def _sd_stdin(capsys, monkeypatch, texts, *flags):
    """Output of ``sd`` with the first text as an argument, since stdin
    skips blank lines, and the rest on stdin."""
    stdin = "".join(t + "\n" for t in texts[1:])
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, "sd", texts[0], "--stdin", *flags)
    assert (code, err) == (0, "")
    return out


def _texts_up_to(n: int) -> list[str]:
    return [t for m in range(n + 1) for t in all_texts(m)]


@pytest.mark.parametrize("longest, flags", [(14, []), (12, ["--witness"])])
def test_sd_lines_match_reference_exhaustive(capsys, monkeypatch, longest, flags):
    """Every word of 0..14 letters, and of 0..12 with witnesses, prints in
    both formats what the report dicts printed: each class read from lps
    and las is ``Word.symmetry_class``."""
    texts = _texts_up_to(longest)
    reports = reference_sd_reports(list(map(parse_word, texts)), bool(flags))
    for form in ("text", "json"):
        out = _sd_stdin(capsys, monkeypatch, texts, "--format", form, *flags)
        assert out == reference_sd_output(reports, form)


@pytest.mark.parametrize("flags", [[], ["--witness"]])
def test_sd_digit_lines_match_reference(capsys, monkeypatch, flags):
    """Digits print as letters: every word of 0..8 letters, its letters
    written alternately as a letter and as a digit, from a digit in every
    other word."""
    texts = _texts_up_to(8)
    digits = str.maketrans("ab", "01")
    mixed = [
        "".join(c.translate(digits) if (i + k) % 2 else c for i, c in enumerate(t))
        for k, t in enumerate(texts)
    ]
    reports = reference_sd_reports(list(map(parse_word, texts)), bool(flags))
    for form in ("text", "json"):
        flags_of_form = ["--digits", "--format", form, *flags]
        out = _sd_stdin(capsys, monkeypatch, mixed, *flags_of_form)
        assert out == reference_sd_output(reports, form)


_sized_words = st.integers(0, 63).flatmap(
    lambda m: st.text(alphabet="ab", min_size=m, max_size=m)
)


@given(
    st.integers(1, 200).flatmap(
        lambda k: st.lists(_sized_words, min_size=k, max_size=k)
    ),
    st.sampled_from(["text", "json"]),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_sd_batches_match_reference(batch, form, with_witness):
    """Batches of 1..200 words of 0..63 letters, across chunk boundaries:
    the first as an argument, the rest on stdin, whose blank lines are
    skipped."""
    head, lines = batch[0], batch[1:]
    flags = ["--format", form] + ["--witness"] * with_witness
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin = io.StringIO("".join(f" {t}\r\n" for t in lines))
    sys.stdout = out
    try:
        assert main(["sd", "--stdin", *flags, "--", head]) == 0
    finally:
        sys.stdin, sys.stdout = saved
    ws = [parse_word(t) for t in [head, *filter(None, lines)]]
    reports = reference_sd_reports(ws, with_witness)
    assert out.getvalue() == reference_sd_output(reports, form)


@pytest.mark.parametrize("flags", [[], ["--witness"]])
@pytest.mark.parametrize("form", ["text", "json"])
def test_sd_neither_classifies_nor_dumps(capsys, monkeypatch, form, flags):
    """``sd`` reads each class from the kernel's counts and fills its line
    templates: it calls neither ``Word.symmetry_class`` nor ``json.dumps``."""

    def refuse(*args, **kwargs):
        raise AssertionError("called by sd")

    monkeypatch.setattr(Word, "symmetry_class", refuse)
    monkeypatch.setattr(cli.json, "dumps", refuse)
    texts = ["", "a", "ab", "aab", "abba", "abab", "bbabbbbaaa", "ab" * 31 + "b"]
    code, out, _ = run_cli(capsys, "sd", "--format", form, *flags, "--", *texts)
    assert code == 0
    assert len(out.splitlines()) == len(texts)


@pytest.mark.parametrize("digits", [False, True], ids=["letters", "digits"])
@pytest.mark.parametrize("form", ["text", "json"])
def test_sd_builds_no_word_and_no_result(capsys, monkeypatch, form, digits):
    """With and without ``--witness``, ``sd`` goes from each line to its
    output line with no ``Word``, ``SdResult`` or ``DeletionWitness``, and
    prints what it printed with them: the empty word, a 63-letter word and
    a second chunk included."""
    rng = random.Random(26)
    texts = ["", "a", "ab", "abba", "ab" * 31 + "b"] + [
        "".join(rng.choice("ab") for _ in range(rng.randint(1, 63)))
        for _ in range(70)
    ]
    if digits:  # every other letter as its digit
        texts = [
            "".join("01"[c == "b"] if i % 2 else c for i, c in enumerate(t))
            for t in texts
        ]
    runs = [
        ["--format", form] + ["--digits"] * digits + witness
        for witness in ([], ["--witness"])
    ]
    expected = [_sd_stdin(capsys, monkeypatch, texts, *flags) for flags in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("built by sd")

    monkeypatch.setattr(Word, "__init__", refuse)
    monkeypatch.setattr(deletions, "SdResult", refuse)
    monkeypatch.setattr(deletions, "DeletionWitness", refuse)
    for flags, out in zip(runs, expected):
        assert _sd_stdin(capsys, monkeypatch, texts, *flags) == out
        assert len(out.splitlines()) == len(texts)


_EDGE_ERRORS = {
    "invalid-letter": ([], "abxb", "error: invalid letter 'x' at position 3\n"),
    "64-letters": (
        [],
        "a" * 63 + "x",  # the length is checked before the letters
        "error: word of length 64 exceeds the 63-letter limit\n",
    ),
    "digit-2": (["--digits"], "01a2b", "error: invalid letter '2' at position 4\n"),
}


@pytest.mark.parametrize("kind", list(_EDGE_ERRORS))
@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("line", [1, 64, 65, 129])
def test_sd_stdin_bad_line_at_chunk_edges(capsys, monkeypatch, kind, form, line):
    """A bad stdin line first or last in a chunk of 64, or first in the next
    one: the lines before it as the all-good run prints them, its error,
    and exit 2."""
    flags, bad, err = _EDGE_ERRORS[kind]
    rng = random.Random(line)
    letters = "ab01" if flags else "ab"
    texts = [
        "".join(rng.choice(letters) for _ in range(rng.randint(1, 63)))
        for _ in range(140)
    ]
    argv = ("sd", "--stdin", "--format", form, *flags)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(texts) + "\n"))
    code, good, _ = run_cli(capsys, *argv)
    assert code == 0
    texts[line - 1] = bad
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(texts) + "\n"))
    code, out, got = run_cli(capsys, *argv)
    assert (code, got) == (2, err)
    assert out.splitlines() == good.splitlines()[: line - 1]


def test_construct(capsys):
    code, out, _ = run_cli(capsys, "construct", "1", "0", "0")
    assert code == 0
    assert "word=bbabbbbaaa" in out
    assert "bound=4" in out
    assert "sd=4" in out


def test_construct_longer(capsys):
    code, out, _ = run_cli(capsys, "construct", "2", "4", "2", "--format", "json")
    assert code == 0
    parsed = json.loads(out.strip())
    assert parsed["length"] == 23
    assert parsed["bound"] == 9


@pytest.mark.parametrize(
    "n, alpha, beta, bound", [(8, 3, 2, 26), (9, 0, 0, 28)], ids=["64", "66"]
)
def test_construct_past_a_lane(capsys, n, alpha, beta, bound):
    """The first family words longer than a 64-bit lane hit their bound."""
    word = "b" * (n + 1) + "ab" * n
    word += "b" * (2 * n + 1 + alpha) + "a" * (2 * n + 1 + beta)
    code, out, err = run_cli(capsys, "construct", str(n), str(alpha), str(beta))
    assert (code, err) == (0, "")
    assert out == f"word={word} length={len(word)} bound={bound} sd={bound}\n"


def test_verify_lemma4_past_a_lane(capsys):
    """Lemma 4 checks family parameters past 7, whose words have more
    than 63 letters."""
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma4", "--max-n", "9")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "suite lemma4: 70/70 checks passed"
    assert lines[-2] == "ok   family n=9 alpha=4 beta=2: length=72 sd=30 expected=30"


def test_lemma4_yields_each_check_as_it_is_made(monkeypatch):
    """The lemma 4 suite makes one sd call for its first check, not one for
    every family word up to its ``--max-n``."""
    calls = []

    def counting(word):
        calls.append(len(word))
        return deletions.sd(word)

    monkeypatch.setattr(bounds, "sd", counting)
    checks = cli._suite_lemma4(300, 1, None)
    assert next(checks) == (
        "family n=0 alpha=0 beta=0", True, "length=3 sd=1 expected=1"
    )
    assert calls == [3]


def test_construct_invalid_pair(capsys):
    code, _, err = run_cli(capsys, "construct", "1", "5", "5")
    assert code == 2
    assert "alpha" in err


def test_verify_lemma4(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma4", "--max-n", "1")
    assert code == 0
    assert err == ""
    pairs = ((0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2))
    params = [(n, alpha, beta) for n in (0, 1) for alpha, beta in pairs]
    sds = (1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 5, 5, 5, 6)
    lines = [
        f"ok   family n={n} alpha={alpha} beta={beta}: "
        f"length={length} sd={value} expected={value}"
        for length, value, (n, alpha, beta) in zip(range(3, 17), sds, params)
    ]
    assert out == "\n".join(lines) + "\nsuite lemma4: 14/14 checks passed\n"


def test_verify_oracle_small(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "oracle", "--max-n", "7"
    )
    assert code == 0
    assert err == ""
    lines = [
        f"ok   oracle n={n} exhaustive: {1 << n} words agree" for n in range(1, 8)
    ]
    assert out == "\n".join(lines) + "\nsuite oracle: 7/7 checks passed\n"


def test_verify_peeling_small(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "peeling", "--max-n", "6"
    )
    assert code == 0
    assert err == ""
    lines = [f"ok   peeling n={n}: both identities hold" for n in range(2, 7)]
    assert out == "\n".join(lines) + "\nsuite peeling: 5/5 checks passed\n"


def test_verify_invariance_small(capsys):
    """The pruned maximum of each row against the maximum of sd_batch over
    every word of the row."""
    code, out, err = run_cli(
        capsys, "verify", "--suite", "invariance", "--max-n", "6", "--jobs", "1"
    )
    assert code == 0
    assert err == ""
    maxima = [0, 0, 1, 1, 1, 2]
    lines = [
        f"ok   group invariance n={n}: sd constant on orbits" for n in range(1, 7)
    ] + [
        f"ok   pruning n={n}: canonical-only max {m}, full-scan max {m}"
        for n, m in enumerate(maxima, 1)
    ]
    assert out == "\n".join(lines) + "\nsuite invariance: 12/12 checks passed\n"


def test_verify_bounds_small(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "bounds", "--max-n", "10", "--jobs", "1"
    )
    assert code == 0
    assert err == ""
    # (n, lower = sd = reference, upper)
    rows = [(2, 0, 1), (3, 1, 1), (4, 1, 2), (5, 1, 2), (6, 2, 3), (7, 2, 3),
            (8, 2, 4), (9, 3, 4), (10, 4, 5)]
    lines = []
    for n, sd, upper in rows:
        lines.append(f"ok   range n={n}: lower={sd} sd={sd} upper={upper}")
        lines.append(f"ok   exact n={n}: sd={sd} lower={sd} reference={sd}")
    assert out == "\n".join(lines) + "\nsuite bounds: 18/18 checks passed\n"


def test_verify_game_small(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "game", "--max-n", "8")
    assert code == 0
    assert err == ""
    assert out == (
        "ok   game value n=6: best=3 (word aaaabb) needs >= 2\n"
        "ok   game value n=7: best=3 (word aaaaabb) needs >= 3\n"
        "ok   game value n=8: best=5 (word aaaaabbb) needs >= 4\n"
        + "".join(
            f"ok   game termination n={n}: all values <= {max(0, n - 2)}\n"
            for n in range(1, 9)
        )
        + "suite game: 11/11 checks passed\n"
    )


def _wrong_on(real, texts, wrong):
    """``real`` with the answer ``wrong(answer)`` on the words in ``texts``."""

    def patched(word):
        answer = real(word)
        return wrong(answer) if str(word) in texts else answer

    return patched


def _one_more_sd(result):
    return deletions.SdResult(result.value + 1, result.lps, result.las)


def test_verify_lemma4_failure_exits_1(capsys, monkeypatch):
    family_word = str(bounds.build_word(bounds.ConstructionParams(0, 2, 1)))
    monkeypatch.setattr(
        bounds, "sd", _wrong_on(deletions.sd, {family_word}, _one_more_sd)
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma4", "--max-n", "0")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL family n=0 alpha=2 beta=1: length=6 sd=3 expected=2"
    ]
    assert lines[-1] == "suite lemma4: 6/7 checks passed"


def test_verify_bounds_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(search.KNOWN_MAX_SD, 10, 5)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "bounds", "--max-n", "10", "--jobs", "1"
    )
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL exact n=10: sd=4 lower=4 reference=5"
    ]
    assert lines[-1] == "suite bounds: 17/18 checks passed"


def test_verify_bounds_prints_each_row_as_it_finishes(capsys, monkeypatch):
    """A row's checks are printed when the row finishes: a scan that fails
    at row 4 leaves the checks of rows 2 and 3 on stdout."""
    scan = search.sd_max

    def sd_max_failing_at_4(n, *args, **kwargs):
        if n == 4:
            raise ValueError("scan failed at n = 4")
        return scan(n, *args, **kwargs)

    monkeypatch.setattr(search, "sd_max", sd_max_failing_at_4)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "bounds", "--max-n", "6", "--jobs", "1"
    )
    assert code == 2
    assert out == (
        "ok   range n=2: lower=0 sd=0 upper=1\n"
        "ok   exact n=2: sd=0 lower=0 reference=0\n"
        "ok   range n=3: lower=1 sd=1 upper=1\n"
        "ok   exact n=3: sd=1 lower=1 reference=1\n"
    )
    assert err == "error: scan failed at n = 4\n"


def test_verify_oracle_failure_names_least_word(capsys, monkeypatch):
    monkeypatch.setattr(
        deletions,
        "brute_force_sd",
        _wrong_on(deletions.brute_force_sd, {"abb", "bab"}, lambda v: v + 1),
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", "--max-n", "4")
    assert code == 1
    assert err == ""
    assert out == (
        "ok   oracle n=1 exhaustive: 2 words agree\n"
        "ok   oracle n=2 exhaustive: 4 words agree\n"
        "FAIL oracle n=3 exhaustive: mismatch at abb\n"
        "ok   oracle n=4 exhaustive: 16 words agree\n"
        "suite oracle: 3/4 checks passed\n"
    )


def test_verify_peeling_failure_names_least_word(capsys, monkeypatch):
    # lps(aba) is 3; 2 breaks the identity at aba and at every word of
    # length 5 whose middle three letters are aba, the least being aabaa
    monkeypatch.setattr(
        deletions,
        "lps_length",
        _wrong_on(deletions.lps_length, {"aba"}, lambda v: v - 1),
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "peeling", "--max-n", "5")
    assert code == 1
    assert err == ""
    assert out == (
        "ok   peeling n=2: both identities hold\n"
        "FAIL peeling n=3: fails at aba\n"
        "ok   peeling n=4: both identities hold\n"
        "FAIL peeling n=5: fails at aabaa\n"
        "suite peeling: 2/4 checks passed\n"
    )


def test_verify_invariance_failure_names_least_word(capsys, monkeypatch):
    # the orbit of abb is aab, abb, baa, bba; the check of aab reads aab,
    # baa and bba only, so abb is the least failing word
    monkeypatch.setattr(
        deletions, "sd", _wrong_on(deletions.sd, {"abb"}, _one_more_sd)
    )
    code, out, err = run_cli(
        capsys, "verify", "--suite", "invariance", "--max-n", "3", "--jobs", "1"
    )
    assert code == 1
    assert err == ""
    assert out == (
        "ok   group invariance n=1: sd constant on orbits\n"
        "ok   group invariance n=2: sd constant on orbits\n"
        "FAIL group invariance n=3: fails at abb\n"
        "ok   pruning n=1: canonical-only max 0, full-scan max 0\n"
        "ok   pruning n=2: canonical-only max 0, full-scan max 0\n"
        "ok   pruning n=3: canonical-only max 1, full-scan max 1\n"
        "suite invariance: 5/6 checks passed\n"
    )


def test_verify_game_failure_names_least_word(capsys, monkeypatch):
    real = game.GameSolver._table
    too_long = [parse_word("abbab").bits, parse_word("abaab").bits]

    def table(self, m, maximizer):
        values = real(self, m, maximizer)
        if m == 5 and not maximizer:
            values = values.copy()
            values[too_long] = 4
        return values

    monkeypatch.setattr(game.GameSolver, "_table", table)
    code, out, err = run_cli(capsys, "verify", "--suite", "game", "--max-n", "5")
    assert code == 1
    assert err == ""
    assert out == "".join(
        f"ok   game termination n={n}: all values <= {max(0, n - 2)}\n"
        for n in range(1, 5)
    ) + (
        "FAIL game termination n=5: fails at abaab\n"
        "suite game: 4/5 checks passed\n"
    )


def test_verify_guard_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "oracle", "--max-n", "23"
    )
    assert code == 2


@pytest.mark.parametrize(
    "suite, max_n, lowest, guard",
    [
        ("lemma4", -1, 0, 300),
        ("bounds", 0, 2, 32),
        ("bounds", 1, 2, 32),
        ("oracle", 0, 1, 22),
        ("peeling", 0, 2, 16),
        ("peeling", 1, 2, 16),
        ("invariance", 0, 1, 14),
        ("game", 0, 1, 22),
    ],
)
def test_verify_max_n_below_suite_minimum_exits_2(
    capsys, suite, max_n, lowest, guard
):
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--max-n", str(max_n), "--jobs", "1"
    )
    assert code == 2
    assert out == ""
    assert err == f"--max-n {max_n} outside {lowest}..{guard} for suite {suite}\n"


def test_game_solve(capsys):
    code, out, _ = run_cli(capsys, "game", "solve", "aab")
    assert code == 0
    assert "value=1" in out


def test_game_solve_json(capsys):
    code, out, _ = run_cli(
        capsys, "game", "solve", "aabab", "--format", "json"
    )
    assert code == 0
    parsed = json.loads(out.strip())
    assert parsed["move_count"] == parsed["value"]
    assert parsed["initial"] == "aabab"
    assert parsed["final_class"] in ("palindrome", "antipalindrome", "both")


def test_game_best(capsys):
    code, out, _ = run_cli(capsys, "game", "best", "6", "--format", "json")
    assert code == 0
    parsed = json.loads(out.strip())
    assert parsed["value"] >= 2


def test_game_best_guard(capsys):
    code, out, err = run_cli(capsys, "game", "best", "23")
    assert code == 2
    assert out == ""
    assert err == "error: game solver supports at most 22 letters, got 23\n"
    code, out, err = run_cli(capsys, "verify", "--suite", "game", "--max-n", "23")
    assert code == 2
    assert out == ""
    assert err == "--max-n 23 outside 1..22 for suite game\n"


def test_game_best_above_old_guard(capsys):
    code, out, _ = run_cli(capsys, "game", "best", "17", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 17, "value": 13, "word": "aaaaaaaaaabbbbbbb"}


# one solver builds each value table once for the tests that read them
_GAME_TABLES = game.GameSolver()


# words of 21 and 22 letters: near-alternating ones, which have the
# largest lattices and value 1, then ones with long games
_LONG_GAME_WORDS = (
    "abbababababababababab",
    "abbabababababababababa",
    "abaabbbababbabaabbaba",
    "abaabbbababbabaabbabab",
)


@pytest.mark.parametrize("text", _LONG_GAME_WORDS)
def test_game_solve_up_to_the_guard(capsys, text):
    """Solve answers 21 and 22 letters with the table's value, in text and
    json, and the line replays to a symmetric word in that many moves."""
    word = parse_word(text)
    value = int(_GAME_TABLES._table(len(word), False)[word.bits])
    code, out, err = run_cli(capsys, "game", "solve", text, "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["value"] == data["move_count"] == value > 0
    line = [move["position"] for move in data["moves"]]
    records = game.replay(word, line)
    assert records[-1].result.is_symmetric()
    assert not any(r.result.is_symmetric() for r in records[:-1])
    code, out, err = run_cli(capsys, "game", "solve", text)
    assert (code, err) == (0, "")
    positions = ",".join(map(str, line))
    assert out.startswith(f"word={text} value={value} line={positions} ")


@pytest.mark.parametrize("text", _LONG_GAME_WORDS[2:])
@pytest.mark.parametrize("side", ["first", "second"])
def test_game_play_exact_up_to_the_guard(capsys, monkeypatch, text, side):
    """The exact engine plays 21 and 22 letters, and each of its moves
    keeps the value that the tables give the position."""
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n" * 22))
    code, out, err = run_cli(
        capsys, "game", "play", text, "--side", side, "--engine", "exact",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    engine_moves = 0
    word, maximizer = parse_word(text), False
    for move in json.loads(out.splitlines()[-1])["moves"]:
        child = word.delete(move["position"])
        if move["player"] != side:
            before = _GAME_TABLES._table(len(word), maximizer)[word.bits]
            after = _GAME_TABLES._table(len(child), not maximizer)[child.bits]
            assert after == before - 1
            engine_moves += 1
        word, maximizer = child, not maximizer
    assert word.is_symmetric() and engine_moves >= 2


def test_game_guard_exit_2(capsys, monkeypatch):
    """A 23-letter word that still needs a move exits 2 naming the guard,
    before any prompt; a symmetric one has already ended its game."""
    text = "a" * 22 + "b"
    code, out, err = run_cli(capsys, "game", "solve", text)
    assert (code, out) == (2, "")
    assert err == "error: game solver supports at most 22 letters, got 23\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n" * 23))
    code, out, err = run_cli(
        capsys, "game", "play", text, "--side", "second", "--engine", "exact"
    )
    assert (code, out) == (2, "")
    assert err == (
        "exact engine supports words up to 22 letters; use --engine heuristic\n"
    )
    symmetric = "a" * 23
    code, out, err = run_cli(capsys, "game", "solve", symmetric)
    assert (code, err) == (0, "")
    assert out == (
        f"word={symmetric} value=0 line=- final={symmetric} class=palindrome\n"
    )
    code, out, err = run_cli(
        capsys, "game", "play", symmetric, "--side", "first", "--engine", "exact"
    )
    assert (code, err) == (0, "")
    assert out.startswith(f"{symmetric} is already symmetric; no moves to play\n")


def test_game_past_a_lane(capsys):
    """A 70-letter antipalindrome has already ended its game; a 70-letter
    word that has not stops at the game guard."""
    anti = "ab" * 35
    code, out, err = run_cli(capsys, "game", "solve", anti)
    assert (code, err) == (0, "")
    assert out == f"word={anti} value=0 line=- final={anti} class=antipalindrome\n"
    code, out, err = run_cli(
        capsys, "game", "play", anti, "--side", "first", "--engine", "exact"
    )
    assert (code, err) == (0, "")
    assert out.startswith(f"{anti} is already symmetric; no moves to play\n")
    text = "a" * 69 + "b"
    code, out, err = run_cli(capsys, "game", "solve", text)
    assert (code, out) == (2, "")
    assert err == "error: game solver supports at most 22 letters, got 70\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("game", "best", "9", "--format", "json"),
        ("game", "solve", "abaabbbababbabaabb"),
    ],
)
def test_game_stats_leave_stdout_unchanged(capsys, argv):
    code, plain, plain_err = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain
    assert plain_err == ""
    assert err.startswith("stats: elapsed=")
    if argv[1] == "best":
        # lengths 3..9 are tabulated: 2^3 + ... + 2^9 words
        assert " levels=7 table_words=1016\n" in err
    else:
        # one lattice: the word's non-symmetric subsequences of 3..18 letters
        assert " levels=16 states=5071\n" in err
    assert len(err.splitlines()) == 1


def test_game_play_transcript_replays(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n1\n9\n1\n"))
    code, out, _ = run_cli(
        capsys, "game", "play", "aabab", "--side", "second",
        "--engine", "exact", "--format", "json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    data = json.loads(lines[-1])
    assert data["initial"] == "aabab"
    assert data["move_count"] == len(data["moves"])
    # replay the transcript through the library and confirm it is legal
    from palsym import parse_word, replay

    records = replay(
        parse_word(data["initial"]), [m["position"] for m in data["moves"]]
    )
    assert str(records[-1].result) == data["moves"][-1]["result"]
    assert records[-1].result.symmetry_class().value == data["final_class"]


def test_game_play_reprompts_on_bad_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("zero\n99\n3\n1\n9\n1\n"))
    code, out, _ = run_cli(
        capsys, "game", "play", "aabab", "--side", "second",
    )
    assert code == 0
    assert "not a number" in out
    assert "out of range" in out
    assert "game over" in out


def test_game_play_eof_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run_cli(
        capsys, "game", "play", "aabab", "--side", "second"
    )
    assert code == 2


def test_game_play_human_first_engine_opens(capsys, monkeypatch):
    # the engine is the second player (minimizer) and must move first;
    # aabbbb has game value 3, so the game survives the opening move
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n1\n1\n1\n1\n"))
    code, out, _ = run_cli(
        capsys, "game", "play", "aabbbb", "--side", "first",
    )
    assert code == 0
    assert out.index("engine delete") < out.index("you delete")


@pytest.mark.parametrize(
    "engine, side",
    [("exact", "first"), ("exact", "second"), ("heuristic", "first")],
)
def test_game_play_session_builds_one_lattice(capsys, monkeypatch, engine, side):
    """Every solved engine move of a session is read from the lattice of
    the engine's first state, whichever side the human plays (the
    heuristic solves only the minimizer's moves)."""
    built = []

    class Counted(game._Lattice):
        def __init__(self, roots, n, maximizer):
            built.append((roots.tolist(), n, maximizer))
            super().__init__(roots, n, maximizer)

    monkeypatch.setattr(game, "_Lattice", Counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n" * 20))
    code, out, _ = run_cli(
        capsys, "game", "play", "aabbbbaaabbabbabbaba", "--side", side,
        "--engine", engine,
    )
    assert code == 0
    assert out.count("engine delete") >= 2
    assert len(built) == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--from", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- start-up

# (argv, stdin) of calls made one after another through one parser, among
# them error paths and help
_CALLS = [
    (["sd", "abbab", "ba"], ""),
    (["sd", "--witness", "abbab", "--format", "json"], ""),
    (["sd", "--stdin"], "aab\nabba\n"),
    (["sd", "abbab"], ""),
    (["table", "--from", "1", "--to", "8", "--jobs", "1", "--stats"], ""),
    (["verify", "--suite", "lemma4"], ""),
    (["game", "best", "6", "--stats"], ""),
    (["game", "solve", "abbab", "--stats"], ""),
    (["sd", "axb"], ""),
    (["table", "--from", "1", "--to", "4", "--jobs", "0"], ""),
    (["verify", "--suite", "game", "--max-n", "23"], ""),
    (["verify"], ""),
    (["--help"], ""),
    (["game", "solve", "--help"], ""),
    (["sd"], ""),
    (["sd", "ab", "--witness"], ""),
]
_CODES = [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, "exit 2", "exit 0", "exit 0", 2, 0]


def _outcome(capsys, monkeypatch, argv, stdin):
    """Exit code, stdout and stderr of one call, timings left out."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"exit {exc.code}"
    out, err = capsys.readouterr()
    return code, out, re.sub(r"elapsed=\S+ |words_per_s=\d+ ", "", err)


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    """``main`` parses every call of a process with one parser: a sequence
    of calls, error paths and help included, prints the same and exits the
    same as each call through a parser built for it."""
    assert cli._parser() is cli._parser()
    shared = [_outcome(capsys, monkeypatch, *call) for call in _CALLS]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(capsys, monkeypatch, *call) for call in _CALLS]
    assert shared == fresh
    assert [code for code, _, _ in shared] == _CODES


def test_parsed_values_do_not_leak_between_calls(capsys):
    """A namespace changed by one call leaves the next call's defaults as
    a fresh parser gives them."""
    parser = cli._parser()
    args = parser.parse_args(["sd", "--witness", "ab"])
    args.words.append("bbb")
    args.witness = False
    for argv in (["sd"], ["sd", "ba"], ["sd", "--witness"]):
        assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)
    assert run_cli(capsys, "sd") == (
        2, "", "no words given; pass words or use --stdin\n"
    )
    code, out, _ = run_cli(capsys, "sd", "ba")
    assert (code, out) == (0, "ba length=2 class=antipalindrome lps=1 las=2 sd=0\n")


def _source_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(palsym.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


_NO_ARRAYS = ("numpy", "palsym.search", "palsym.game")


@pytest.mark.parametrize(
    "argv, stdin, unused",
    [
        (["construct", "1", "0", "0"], "", _NO_ARRAYS),
        (["construct", "9", "0", "0"], "", _NO_ARRAYS),
        (["verify", "--suite", "lemma4"], "", _NO_ARRAYS),
        (["sd", "abba"], "", _NO_ARRAYS),
        (["sd", "--format", "json", "abba"], "", ("numpy",)),
        (["sd", "--stdin"], "aab\nabba\n" + "ab" * 31 + "\n", ("numpy",)),
        (["game", "solve", "abbab"], "", ("concurrent.futures.process",)),
        (["sd", "--witness", "abba"], "", ("concurrent.futures.process",)),
    ],
    ids=[
        "construct",
        "construct-66",
        "verify-lemma4",
        "sd",
        "sd-json",
        "sd-stdin",
        "game-solve",
        "sd-witness",
    ],
)
def test_command_imports_only_what_it_uses(argv, stdin, unused):
    """In a fresh interpreter, a command that builds no array leaves numpy
    unimported, and one that opens no pool the pool machinery."""
    script = (
        "import sys\n"
        "from palsym import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(sorted(set({unused!r}) & set(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        input=stdin, capture_output=True, text=True, env=_source_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[]"


def test_importtime_lists_the_package_modules():
    """``-X importtime`` logs the package's own modules, those loaded on
    first use included: the bounds a verify suite checks and the scan."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "palsym",
         "verify", "--suite", "bounds", "--max-n", "3"],
        capture_output=True, text=True, env=_source_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert {"palsym.bounds", "palsym.search"} <= logged


def test_package_exports_are_their_modules_objects():
    """Every name of ``palsym.__all__`` reads as the object its module
    defines, at every read."""
    for name in palsym.__all__:
        module = importlib.import_module(f"palsym.{palsym._HOME[name]}")
        obj = getattr(palsym, name)
        assert obj is vars(module)[name] is getattr(palsym, name)
        assert getattr(obj, "__module__", module.__name__) == module.__name__
    assert set(palsym.__all__) <= set(dir(palsym))
    assert palsym.search is search and palsym.cli is cli
    with pytest.raises(AttributeError):
        palsym.no_such_name
