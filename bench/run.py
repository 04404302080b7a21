"""Benchmark for palsym: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

``--workload`` is ``scan``, ``queries``, ``game`` or ``all``.  With
``--trace 0`` the last line of stdout is a JSON object whose ``metrics``
are the ``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` they
are its ``per_layer`` metrics, taken from a separate traced run.  Lines
before it record the environment, the metrics under the names the
prediction table in ``predictions.json`` uses, and, when traced, every
traced function's calls, total and self time.  ``--smoke`` shrinks every
workload so that the whole benchmark runs in seconds.

The package is imported from ``src/`` beside this directory and nowhere
else; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import REFERENCE_S, SCAN_JOBS, median, reference_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_palsym():
    """palsym from this checkout's ``src/``; exits 2 if it is not there."""
    if not (SRC / "palsym" / "__init__.py").is_file():
        print(f"error: no palsym package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import palsym
    import palsym.cli

    if Path(palsym.__file__).resolve().parent != SRC / "palsym":
        print(f"error: imported palsym from {palsym.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return palsym


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scan", "queries", "game", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, one setup probe")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, cleared_jobs) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "scan_workers": SCAN_JOBS,
        "traced_scan_workers": 1,
        "other_workers": 1,
        "cleared_PALSYM_JOBS": cleared_jobs,
    }


def setup_times(args, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first workload call,
    scaled to the reference speed like every other timing.

    Each probe runs this script with ``--setup-probe``: it imports palsym,
    builds the first round's inputs and prints ``time.monotonic()``, which
    on Linux is one clock for all processes.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    times, reference = [], reference_times()
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
        reference += reference_times()
    scale = REFERENCE_S / median(reference)
    return [t * scale for t in times]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(palsym, args, sizes) -> tuple[dict, bool, int, int]:
    """Run one workload, print its report line, return its metrics."""
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    report: dict = {"workload": workload.name}
    if args.trace:
        run = workloads.measure_traced(palsym, workload, args.seconds)
        metrics = workloads.per_layer(workload, run)
        report["spans"] = {
            command: {
                name: [s.calls, s.total, s.self_time]
                for name, s in sorted(by_name.items())
            }
            for command, by_name in run["tracer"].by_command.items()
        }
    else:
        setup = setup_times(args, sizes.setup_probes)
        run = workloads.measure(palsym, workload, args.seconds)
        metrics = workloads.end_to_end(workload, run, setup)
        report["named"] = {
            k: {"value": v, "unit": u}
            for k, (v, u) in workloads.named(workload, run, setup).items()
        }
        report["raw_median_s"] = {
            kind: workloads.median(t) for kind, t in run["raw"].items()
        }
        report["speed"] = run["speed"]
        report["samples"] = {
            "setup": len(setup),
            **{kind: len(t) for kind, t in run["by_kind"].items()},
        }
    checker = run["checker"]
    report["problems"] = checker.problems
    print(json.dumps(report))
    for problem in checker.problems:
        print(f"FAIL {workload.name}: {problem}", file=sys.stderr)
    return metrics, checker.failed == 0, checker.attempted, checker.failed


def main(argv=None) -> int:
    args = parse_args(argv)
    # Every worker count is passed as --jobs; a stray PALSYM_JOBS must not
    # reach the package, which ignores a malformed value without notice.
    cleared_jobs = os.environ.pop("PALSYM_JOBS", None)
    palsym = import_palsym()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, sizes).round(0)
        print(time.monotonic())
        return 0

    print(json.dumps({"env": environment(args, cleared_jobs)}))
    names = ["scan", "queries", "game"] if args.workload == "all" else [args.workload]
    combined: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        metrics, ok, a, f = run_workload(
            palsym, argparse.Namespace(**{**vars(args), "workload": name}), sizes
        )
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
        correct, attempted, failed = correct and ok, attempted + a, failed + f
    print(result_line(correct, attempted, failed, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
