"""Bounds on the maximum deletion distance at each length.

For every n >= 2 the maximum of sd over length-n words lies between
``(n + 2*((n - 3) // 7)) // 3`` and ``n // 2``.  The lower bound is
realised by the four-block family

    b^(n+1) (ab)^n b^(2n+1+alpha) a^(2n+1+beta)

for seven admissible (alpha, beta) pairs; ``verify_family`` recomputes the
distance of every family word and checks it against the closed form
``3n + 1 + (alpha + beta) // 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deletions import sd
from .errors import InvalidPairError
from .words import Word, parse_word

VALID_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 0),
    (1, 0),
    (1, 1),
    (2, 1),
    (3, 1),
    (3, 2),
    (4, 2),
)


@dataclass(frozen=True, slots=True)
class ConstructionParams:
    """Parameters (n, alpha, beta) of the four-block word family."""

    n: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"family parameter n must be >= 0, got {self.n}")
        if (self.alpha, self.beta) not in VALID_PAIRS:
            raise InvalidPairError(
                f"(alpha, beta) = ({self.alpha}, {self.beta}) not one of "
                f"{VALID_PAIRS}"
            )


def build_word(params: ConstructionParams) -> Word:
    """The family word b^(n+1) (ab)^n b^(2n+1+alpha) a^(2n+1+beta).

    Its length is 7n + 3 + alpha + beta.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    text = (
        "b" * (n + 1)
        + "ab" * n
        + "b" * (2 * n + 1 + alpha)
        + "a" * (2 * n + 1 + beta)
    )
    return parse_word(text)


def family_bound(params: ConstructionParams) -> int:
    """Deletion distance of the family word: 3n + 1 + (alpha + beta) // 3."""
    return 3 * params.n + 1 + (params.alpha + params.beta) // 3


def lower_bound(n: int) -> int:
    """Lower bound for the maximum sd over length-n words, n >= 2.

    All divisions floor toward negative infinity; the inner term is
    negative only for n = 2, where both floor conventions agree on the
    final value 0.
    """
    if n < 2:
        raise ValueError(f"lower bound defined for n >= 2, got {n}")
    return (n + 2 * ((n - 3) // 7)) // 3


def upper_bound(n: int) -> int:
    """Upper bound n // 2: deleting every a (or every b) leaves a palindrome."""
    if n < 1:
        raise ValueError(f"upper bound defined for n >= 1, got {n}")
    return n // 2


@dataclass(frozen=True, slots=True)
class FamilyCheck:
    """One family word checked against its closed-form distance."""

    params: ConstructionParams
    word: Word
    bound: int
    computed: int
    ok: bool


def verify_family(n_max: int) -> list[FamilyCheck]:
    """Recompute sd for every family word with parameter n in 0..n_max; a
    check passes when the word hits its bound exactly."""
    checks = []
    for n in range(n_max + 1):
        for alpha, beta in VALID_PAIRS:
            params = ConstructionParams(n, alpha, beta)
            word = build_word(params)
            bound = family_bound(params)
            computed = sd(word).value
            ok = computed == bound
            checks.append(FamilyCheck(params, word, bound, computed, ok))
    return checks
