import pytest

from palsym import (
    ConstructionParams,
    InvalidPairError,
    VALID_PAIRS,
    build_word,
    family_bound,
    lower_bound,
    sd,
    upper_bound,
    verify_family,
)


def test_build_word_examples():
    assert str(build_word(ConstructionParams(1, 0, 0))) == "bbabbbbaaa"
    assert len(build_word(ConstructionParams(1, 4, 2))) == 16
    with pytest.raises(InvalidPairError):
        ConstructionParams(1, 5, 0)
    with pytest.raises(ValueError):
        ConstructionParams(-1, 0, 0)


def test_length_identity():
    for n in range(6):
        for alpha, beta in VALID_PAIRS:
            word = build_word(ConstructionParams(n, alpha, beta))
            assert len(word) == 7 * n + 3 + alpha + beta


def test_family_bound_examples():
    assert family_bound(ConstructionParams(1, 0, 0)) == 4
    assert family_bound(ConstructionParams(1, 4, 2)) == 6
    assert family_bound(ConstructionParams(0, 0, 0)) == 1


def test_pair_preconditions():
    for alpha, beta in VALID_PAIRS:
        floor_third = (alpha + beta) // 3
        assert floor_third <= beta
        assert floor_third <= alpha - beta


def test_lower_bound_examples():
    assert lower_bound(10) == 4
    assert lower_bound(20) == 8
    assert lower_bound(2) == 0
    with pytest.raises(ValueError):
        lower_bound(1)


def test_lower_bound_floor_convention_at_2():
    # (2 - 3) // 7 floors to -1; truncation toward zero would give 0.
    # Both make the outer floor 0, so the convention is observable only
    # in the inner term.
    assert (2 + 2 * ((2 - 3) // 7)) // 3 == 0
    assert (2 + 2 * 0) // 3 == 0


def test_upper_bound_examples():
    assert upper_bound(10) == 5
    assert upper_bound(1) == 0
    assert upper_bound(7) == 3
    with pytest.raises(ValueError):
        upper_bound(0)


def test_bound_consistency():
    for n in range(2, 25):
        assert lower_bound(n) <= upper_bound(n)


def test_decomposition_identity():
    """lower_bound(7t + 3 + k) == 3t + 1 + k // 3 for n in 3..100."""
    for n in range(3, 101):
        t, k = divmod(n - 3, 7)
        assert lower_bound(n) == 3 * t + 1 + k // 3


def test_verify_family_equality_small():
    checks = verify_family(1)
    assert len(checks) == 14
    assert all(c.ok for c in checks)
    assert all(c.computed == c.bound for c in checks)


def test_family_word_recomputed_distance():
    params = ConstructionParams(2, 4, 2)
    word = build_word(params)
    assert len(word) == 23
    assert family_bound(params) == 9
    assert sd(word).value == 9
