"""The README's printed values, checked against the code."""

import contextlib
import io
import re
from pathlib import Path

from palsym.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _library_example() -> str:
    """The python block under the "Library example" heading."""
    match = re.search(r"## Library example\n\n```python\n(.*?)```", README, re.S)
    assert match, "no Library example block"
    return match[1]


def test_library_example_prints_its_commented_values():
    """Each line of the example whose comment gives a value prints that
    value: the comment is the printed text, or starts with it and a
    comma.  The block runs as written, one printed line per print call."""
    code = _library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    checked = []
    for line, text in zip(calls, printed):
        if "  # " in line:
            comment = line.split("  # ", 1)[1].strip()
            assert comment == text or comment.startswith(text + ", "), line
            checked.append(text)
    assert checked == ["SdResult(value=4, lps=6, las=6)", "4", "8"]


def test_stats_example_matches_row_22(capsys):
    """The README's `--stats` line for row 22 has the fields that
    `table --from 22 --to 22 --jobs 2 --stats` prints, all but the timings."""
    match = re.search(r"`(stats: n=22\s.*?)`", README, re.S)
    assert match, "no stats example"
    timing = ("elapsed", "words_per_s")

    def fields(line):
        pairs = (field.split("=", 1) for field in line.split()[1:])
        return {key: value for key, value in pairs if key not in timing}

    expected = fields(match[1])
    assert expected == {
        "n": "22",
        "words": "1049600",
        "evaluated": "34631",
        "blocks_pruned": "63537",
        "chunks": "3",
        "pool": "0",
    }
    assert main(["table", "--from", "22", "--to", "22", "--jobs", "2", "--stats"]) == 0
    assert fields(capsys.readouterr().err) == expected
