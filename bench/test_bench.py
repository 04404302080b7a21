"""Tests of the benchmark itself: its oracle, its tracer and its output.

Run with ``python3 -m pytest bench -q`` from the root of the checkout.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import oracle
import run
import workloads
from tracer import Tracer

palsym = run.import_palsym()

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = ("scan", "queries", "game")


def smoke(trace: int) -> list[dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", "all",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


@pytest.fixture(scope="module")
def untraced() -> list[dict]:
    return smoke(0)


@pytest.fixture(scope="module")
def traced() -> list[dict]:
    return smoke(1)


def test_oracle_sd_matches_palsym_on_every_word_up_to_12():
    for n in range(0, 13):
        for letters in product("ab", repeat=n):
            w = "".join(letters)
            got = palsym.sd(palsym.parse_word(w))
            assert oracle.sd(w) == (got.value, got.lps, got.las), w


def test_bit_parallel_lcs_matches_the_table():
    rng = random.Random(7)
    for _ in range(500):
        x = workloads.random_word(rng, rng.randint(0, 70))
        y = workloads.random_word(rng, rng.randint(0, 70))
        assert oracle.lcs_length(x, y) == oracle.lcs_length_table(x, y)


def test_game_oracle_matches_palsym_lines_up_to_9():
    game = oracle.GameOracle()
    for n in range(1, 10):
        for letters in product("ab", repeat=n):
            w = "".join(letters)
            outcome = palsym.game_value(palsym.parse_word(w))
            assert game.principal_line(w) == list(outcome.principal_line), w


@pytest.mark.parametrize("name", NAMES)
def test_checker_counts_a_wrong_answer(name):
    wl = workloads.WORKLOADS[name](5, workloads.SMOKE)
    call = wl.round(0)[-1]
    code, out, _ = workloads.run_cli(palsym, call)
    right = workloads.Checker()
    right.check(call, code, out)
    assert right.failed == 0 and right.attempted >= 1

    lines = out.splitlines()
    bad = json.loads(lines[-1])
    if name == "scan":
        bad["sd"] += 1
    elif name == "queries":
        bad["witness"]["deleted_positions"] = bad["witness"]["deleted_positions"][1:]
    else:
        bad["moves"] = bad["moves"][:-1]
    wrong = workloads.Checker()
    wrong.check(call, code, "\n".join(lines[:-1] + [json.dumps(bad)]))
    assert wrong.failed == 1
    failing = workloads.Checker()
    failing.check(call, 2, "")
    assert failing.failed == failing.attempted == right.attempted


def test_smoke_runs_every_workload_without_errors(untraced, traced):
    for lines in (untraced, traced):
        assert "env" in lines[0]
        result = lines[-1]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert [r["workload"] for r in lines[1:-1]] == list(NAMES)
        assert all(r["problems"] == [] for r in lines[1:-1])
    for report in untraced[1:-1]:
        assert report["named"]["error_ratio"]["value"] == 0


def test_every_metric_appears_with_its_unit(untraced, traced):
    for lines, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        got = lines[-1]["metrics"]
        want = {
            f"{w}.{m['name']}": m["unit"] for w in NAMES for m in SPEC[kind]
        }
        assert {k: v["unit"] for k, v in got.items()} == want
    report_names = json.loads((BENCH / "predictions.json").read_text())["report_names"]
    printed = set()
    for report in untraced[1:-1]:
        assert all(v["unit"] for v in report["named"].values())
        printed |= set(report["named"])
    assert printed == set(report_names)


def test_env_records_the_run(untraced):
    env = untraced[0]["env"]
    for key in ("nproc", "cpu", "python", "numpy", "commit", "seed", "scan_workers"):
        assert env[key] not in (None, "")


def test_traced_counts_repeat_exactly():
    def counts() -> dict:
        wl = workloads.Game(9, workloads.SMOKE)
        metrics = workloads.per_layer(wl, workloads.measure_traced(palsym, wl, 0))
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first = counts()
    assert first["game.value.calls.best"] > 0 and first["words.Word.delete.calls"] > 0
    assert counts() == first


def test_tracer_restores_every_binding():
    before = (palsym.cli.main, palsym.sd, palsym.game.sd, palsym.Word.delete,
              palsym.GameSolver.value, palsym.search.ProcessPoolExecutor)
    with Tracer() as t:
        t.install(palsym)
        t.install(palsym, workloads.LIGHT)
        assert palsym.game.sd is not before[2]
    after = (palsym.cli.main, palsym.sd, palsym.game.sd, palsym.Word.delete,
             palsym.GameSolver.value, palsym.search.ProcessPoolExecutor)
    assert after == before


def test_palsym_jobs_is_cleared(monkeypatch):
    monkeypatch.setenv("PALSYM_JOBS", "not-a-number")
    lines = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", "scan",
         "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert json.loads(lines[0])["env"]["cleared_PALSYM_JOBS"] == "not-a-number"
    assert json.loads(lines[-1])["correct"]


def test_without_the_package_it_exits_2_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
