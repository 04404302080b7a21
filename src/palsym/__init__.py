"""Symmetry of binary words under single-letter deletions.

The central quantity is the symmetric-deletion distance sd(w): the minimal
number of letters whose removal turns the word into a palindrome or an
antipalindrome.  The package computes sd exactly, searches all words of a
given length for the maximum distance, checks the closed-form bounds and
the extremal word family that attains them, and solves the adversarial
deletion game in which one player prolongs and the other shortens the path
to a symmetric word.

The exports in ``__all__`` are resolved on first use (PEP 562): reading
``palsym.sd`` imports ``palsym.deletions`` and returns its ``sd``, the same
object at every read, and ``palsym.search`` imports the submodule.  So
``import palsym`` loads no module of the package, and a command imports
only what it runs: numpy only where arrays are built, the process pool
only when one opens.
"""

import sys

# The module that defines each export.
_EXPORTS = {
    "bounds": (
        "ConstructionParams",
        "FamilyCheck",
        "VALID_PAIRS",
        "build_word",
        "family_bound",
        "lower_bound",
        "upper_bound",
        "verify_family",
    ),
    "deletions": (
        "MAX_LENGTH",
        "ORACLE_MAX_LENGTH",
        "DeletionWitness",
        "SdResult",
        "brute_force_sd",
        "las_length",
        "lps_length",
        "sd",
        "sd_witness",
    ),
    "errors": (
        "InvalidLetterError",
        "InvalidPairError",
        "LengthBudgetExceeded",
        "TerminalStateError",
    ),
    "game": (
        "GAME_MAX_LENGTH",
        "GameOutcome",
        "GameSolver",
        "Player",
        "engine_move",
        "game_value",
        "max_game_value",
        "mirror_move",
        "opening_word",
        "replay",
        "transcript",
    ),
    "search": (
        "KNOWN_MAX_SD",
        "MAX_SEARCH_LENGTH",
        "SdTableRow",
        "SearchConfig",
        "TableMismatch",
        "compare_with_known",
        "compute_table",
        "row_to_csv",
        "row_to_json",
        "sd_batch",
        "sd_max",
    ),
    "words": (
        "SymmetryClass",
        "Word",
        "all_words",
        "complement_letter",
        "parse_word",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("cli", *_EXPORTS))

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def _submodule(name: str):
    """The submodule ``name``, imported on first use.  ``__import__`` runs
    the interpreter's own import, which ``python -X importtime`` logs;
    ``importlib.import_module`` bypasses that log."""
    module = f"{__name__}.{name}"
    __import__(module)
    return sys.modules[module]


def __getattr__(name: str):
    """An export, read from its module at each access so that it is always
    that module's object, or a submodule, imported on first use."""
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
