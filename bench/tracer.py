"""Spans around palsym's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function with a wrapper that times the
call and charges its duration to the enclosing traced call, so every
function gets a call count, a total time and a self time (total minus the
time of its traced children).  The game makes millions of calls per run,
so spans are folded into per-function totals as they end rather than kept
one by one; only the functions in ``SAMPLED`` keep each call's duration
and input size, for percentiles and per-length times.  Totals are attributed
to the CLI command (``cli.main``'s first one or two arguments) that was
running.  ``uninstall`` restores every replaced binding.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Functions whose per-call durations are kept, with the input size to
# keep beside each.
SAMPLED = {
    "deletions.sd": lambda args: len(args[0]),
    "deletions.sd_witness": lambda args: len(args[0]),
    "search.sd_max": lambda args: args[0],
    "search.sd_batch": lambda args: len(args[0]),
}
# Methods traced besides the module-level public functions.
METHODS = {
    "words": {"Word": ("delete", "symmetry_class")},
    "game": {"GameSolver": ("value", "best_move", "outcome")},
}
LAYERS = ("cli", "search", "deletions", "game", "words")


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module``; generators are left out."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not inspect.isgeneratorfunction(obj)
    }


class Stats:
    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples: list[tuple[float, int]] = []


class Tracer:
    def __init__(self) -> None:
        self.by_command: dict[str, dict[str, Stats]] = defaultdict(
            lambda: defaultdict(Stats)
        )
        # Distinct (length, bits, mover) game states per command.
        self.game_states: dict[str, int] = defaultdict(int)
        self._live: dict[str, Stats] = {}
        self._seen_states: set = set()
        self._child = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self, package, names=None) -> None:
        """Wrap the public functions of the layers, or only ``names``.

        ``names`` are qualified like ``search.sd_max``; a bare module
        attribute that is a class (``search.ProcessPoolExecutor``) is
        wrapped too, so constructing it is counted.
        """
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        targets: dict[str, tuple[object, str, object]] = {}
        for layer, module in modules.items():
            for attr, fn in public_functions(module).items():
                targets[f"{layer}.{attr}"] = (module, attr, fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    targets[f"{layer}.{cls_name}.{attr}"] = (
                        cls, attr, vars(cls)[attr]
                    )
        if names is not None:
            chosen = {}
            for name in names:
                if name in targets:
                    chosen[name] = targets[name]
                else:
                    layer, attr = name.split(".", 1)
                    module = modules[layer]
                    chosen[name] = (module, attr, getattr(module, attr))
            targets = chosen
        owners = [package, *vars(package).values()]
        owners = [m for m in owners if inspect.ismodule(m)]
        for name, (owner, attr, original) in targets.items():
            wrapper = self._wrap(name, original)
            self._replace(owner, attr, original, wrapper)
            if inspect.ismodule(owner):
                # Rebind copies made by ``from module import name``.
                for other in owners:
                    if other is not owner and vars(other).get(attr) is original:
                        self._replace(other, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, fn):
        stats = self._live.setdefault(name, Stats())
        child = self._child
        size_of = SAMPLED.get(name)
        is_main = name == "cli.main"
        is_value = name == "game.GameSolver.value"
        seen = self._seen_states

        def traced(*args, **kwargs):
            if is_main:
                self._begin_command(args[0] if args else kwargs.get("argv"))
            elif is_value:
                word = args[1]
                mover = args[2] if len(args) > 2 else kwargs.get("mover")
                seen.add((word.length, word.bits, mover is not None and mover.value == "maximizer"))
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - inner
                if size_of is not None:
                    stats.samples.append((dt, size_of(args)))
                if is_main:
                    self._end_command()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _begin_command(self, argv) -> None:
        argv = list(argv if argv is not None else sys.argv[1:])
        self._command = " ".join(argv[:2] if argv[:1] == ["game"] else argv[:1])
        self._snapshot = {
            name: (s.calls, s.total, s.self_time, len(s.samples))
            for name, s in self._live.items()
        }
        self._seen_states.clear()

    def _end_command(self) -> None:
        into = self.by_command[self._command]
        for name, s in self._live.items():
            calls, total, self_time, n_samples = self._snapshot[name]
            if s.calls == calls:
                continue
            agg = into[name]
            agg.calls += s.calls - calls
            agg.total += s.total - total
            agg.self_time += s.self_time - self_time
            agg.samples.extend(s.samples[n_samples:])
        self.game_states[self._command] += len(self._seen_states)
        self._seen_states.clear()

    # ------------------------------------------------------------ queries

    def stats(self, name: str, command: str | None = None) -> Stats:
        """Totals for one traced function, over one command or all."""
        commands = [command] if command is not None else list(self.by_command)
        out = Stats()
        for c in commands:
            s = self.by_command.get(c, {}).get(name)
            if s is not None:
                out.calls += s.calls
                out.total += s.total
                out.self_time += s.self_time
                out.samples.extend(s.samples)
        return out
