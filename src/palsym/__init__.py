"""Symmetry of binary words under single-letter deletions.

The central quantity is the symmetric-deletion distance sd(w): the minimal
number of letters whose removal turns the word into a palindrome or an
antipalindrome.  The package computes sd exactly, searches all words of a
given length for the maximum distance, checks the closed-form bounds and
the extremal word family that attains them, and solves the adversarial
deletion game in which one player prolongs and the other shortens the path
to a symmetric word.
"""

from .bounds import (
    ConstructionParams,
    FamilyCheck,
    VALID_PAIRS,
    build_word,
    family_bound,
    lower_bound,
    upper_bound,
    verify_family,
)
from .deletions import (
    ORACLE_MAX_LENGTH,
    DeletionWitness,
    SdResult,
    brute_force_sd,
    las_length,
    lps_length,
    sd,
    sd_witness,
)
from .errors import (
    InvalidLetterError,
    InvalidPairError,
    LengthBudgetExceeded,
    TerminalStateError,
)
from .game import (
    GAME_MAX_LENGTH,
    SCAN_MAX_LENGTH,
    GameOutcome,
    GameSolver,
    Player,
    engine_move,
    game_value,
    max_game_value,
    mirror_move,
    opening_word,
    replay,
    transcript,
)
from .search import (
    KNOWN_MAX_SD,
    MAX_SEARCH_LENGTH,
    SdTableRow,
    SearchConfig,
    TableMismatch,
    compare_with_known,
    compute_table,
    row_to_csv,
    row_to_json,
    sd_batch,
    sd_max,
)
from .words import (
    MAX_LENGTH,
    SymmetryClass,
    Word,
    all_words,
    complement_letter,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "ConstructionParams",
    "DeletionWitness",
    "FamilyCheck",
    "GAME_MAX_LENGTH",
    "GameOutcome",
    "GameSolver",
    "InvalidLetterError",
    "InvalidPairError",
    "KNOWN_MAX_SD",
    "LengthBudgetExceeded",
    "MAX_LENGTH",
    "MAX_SEARCH_LENGTH",
    "ORACLE_MAX_LENGTH",
    "Player",
    "SCAN_MAX_LENGTH",
    "SdResult",
    "SdTableRow",
    "SearchConfig",
    "SymmetryClass",
    "TableMismatch",
    "TerminalStateError",
    "VALID_PAIRS",
    "Word",
    "all_words",
    "brute_force_sd",
    "build_word",
    "compare_with_known",
    "complement_letter",
    "compute_table",
    "engine_move",
    "family_bound",
    "game_value",
    "las_length",
    "lower_bound",
    "lps_length",
    "max_game_value",
    "mirror_move",
    "opening_word",
    "parse_word",
    "replay",
    "row_to_csv",
    "row_to_json",
    "sd",
    "sd_batch",
    "sd_max",
    "sd_witness",
    "transcript",
    "upper_bound",
    "verify_family",
]
