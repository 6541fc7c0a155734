"""Closed-form invariant formulas: values, domains, internal identities."""

from __future__ import annotations

import math

import pytest

from pathideal.formulas import (
    betti_closed_form,
    gamma,
    linear_resolution_predicate,
    pd_closed_form,
    reg_power,
    reg_power_augmented,
    s_k_closed_form,
)
from pathideal.path_ideals import composition_count

OVERLAP_GRID = [
    (n, t, s)
    for t in range(2, 6)
    for n in range(t, 2 * t + 1)
    for s in range(1, 5)
]


# ---------------------------------------------------------------- gamma


def test_gamma_anchors():
    assert gamma(3, 2) == 1
    assert gamma(4, 2) == 1
    assert gamma(5, 2) == 2
    assert gamma(7, 3) == 4
    assert gamma(9, 4) == 6
    assert gamma(6, 3) == 2


def test_gamma_degenerate_cases():
    assert gamma(0, 5) == 0
    assert gamma(2, 3) == 0  # n < t: zero ideal
    assert all(gamma(n, 1) == 0 for n in range(0, 30))


def test_gamma_validation():
    with pytest.raises(ValueError):
        gamma(-1, 2)
    with pytest.raises(ValueError):
        gamma(3, 0)


def test_gamma_shift_identity_spot_checks():
    for t in range(1, 8):
        for n in range(t + 1, 40):
            assert gamma(n - t - 1, t) == gamma(n, t) - (t - 1)


def test_gamma_superadditive_spot_checks():
    for t in range(1, 7):
        for a in range(1, 16):
            for b in range(1, 16):
                assert gamma(a, t) + gamma(b, t) <= gamma(a + b + 1, t)


# ---------------------------------------------------------------- regularity


def test_reg_power_anchors():
    assert reg_power(3, 2, 1) == 1
    assert reg_power(4, 2, 2) == 3
    assert reg_power(7, 3, 2) == 7
    assert reg_power(9, 2, 2) == 5
    assert reg_power(7, 2, 3) == 6
    assert reg_power(9, 4, 2) == 10


def test_reg_power_validation():
    with pytest.raises(ValueError):
        reg_power(1, 2, 1)  # n < t
    with pytest.raises(ValueError):
        reg_power(4, 1, 1)  # t < 2
    with pytest.raises(ValueError):
        reg_power(4, 2, 0)


def test_reg_linear_case_anchors():
    # In the overlap regime t <= n <= 2t the regularity is t*s - 1.
    assert reg_power(3, 2, 1) == 1
    assert reg_power(6, 3, 4) == 11


def test_reg_linear_case_matches_general_formula():
    for n, t, s in OVERLAP_GRID:
        assert reg_power(n, t, s) == t * s - 1


# ---------------------------------------------------------------- Betti / pd


def test_betti_closed_form_anchors():
    assert [betti_closed_form(5, 3, 2, i) for i in range(4)] == [6, 6, 1, 0]
    assert [betti_closed_form(3, 2, 1, i) for i in range(3)] == [2, 1, 0]
    assert betti_closed_form(4, 2, 3, 0) == composition_count(3, 3) == 10


def test_betti_closed_form_validation():
    with pytest.raises(ValueError):
        betti_closed_form(7, 3, 1, 0)
    with pytest.raises(ValueError):
        betti_closed_form(5, 3, 0, 0)
    with pytest.raises(ValueError):
        betti_closed_form(5, 3, 2, -1)


def test_betti_zeroth_counts_generators():
    for n, t, s in OVERLAP_GRID:
        assert betti_closed_form(n, t, s, 0) == composition_count(s, n - t + 1)


def test_betti_alternating_sum_is_one():
    # An ideal is a rank-one module, so its Betti numbers alternate to 1.
    for n, t, s in OVERLAP_GRID:
        total = sum(
            (-1) ** i * betti_closed_form(n, t, s, i) for i in range(n - t + 2)
        )
        assert total == 1


def test_pd_closed_form_anchors():
    assert pd_closed_form(5, 3, 2) == 3
    assert pd_closed_form(5, 3, 5) == 3
    assert pd_closed_form(4, 2, 1) == 2
    assert pd_closed_form(3, 3, 9) == 1


def test_pd_matches_betti_support():
    for n, t, s in OVERLAP_GRID:
        pd = pd_closed_form(n, t, s)
        assert betti_closed_form(n, t, s, pd - 1) > 0
        assert betti_closed_form(n, t, s, pd) == 0


def test_s_k_anchors():
    assert s_k_closed_form(5, 3, 2, 1) == 4
    assert s_k_closed_form(5, 3, 2, 2) == 1
    assert s_k_closed_form(4, 2, 1, 2) == 0  # C(s, k) vanishes for k > s


def test_s_k_validation():
    with pytest.raises(ValueError):
        s_k_closed_form(5, 3, 2, 0)
    with pytest.raises(ValueError):
        s_k_closed_form(5, 3, 2, 3)  # k > n - t
    with pytest.raises(ValueError):
        s_k_closed_form(7, 3, 2, 1)  # outside overlap regime


def test_s_k_census_totals_colon_steps():
    for n, t, s in OVERLAP_GRID:
        if n == t:
            continue
        steps = sum(s_k_closed_form(n, t, s, k) for k in range(1, n - t + 1))
        assert steps == composition_count(s, n - t + 1) - 1


def test_betti_recovers_from_census():
    for n, t, s in OVERLAP_GRID:
        if n == t:
            continue
        for i in range(1, n - t + 2):
            from_census = sum(
                s_k_closed_form(n, t, s, k) * math.comb(k, i)
                for k in range(1, n - t + 1)
            )
            assert from_census == betti_closed_form(n, t, s, i)


# ---------------------------------------------------------------- predicates


def test_linear_resolution_predicate_boundaries():
    assert linear_resolution_predicate(4, 2)
    assert not linear_resolution_predicate(5, 2)
    assert linear_resolution_predicate(6, 3)
    assert not linear_resolution_predicate(7, 3)
    assert linear_resolution_predicate(3, 3)
    assert linear_resolution_predicate(2, 2)


def test_linear_resolution_predicate_validation():
    with pytest.raises(ValueError):
        linear_resolution_predicate(4, 1)
    with pytest.raises(ValueError):
        linear_resolution_predicate(1, 2)


# ---------------------------------------------------------------- augmented


def test_reg_power_augmented_anchors():
    assert reg_power_augmented(7, 3, 1, 5) == 4
    assert reg_power_augmented(7, 3, 2, 2) == 7
    assert reg_power_augmented(9, 2, 2, 8) == 5


def test_reg_power_augmented_is_j_independent():
    for n, t, s in [(7, 3, 2), (9, 4, 1), (9, 2, 3)]:
        values = {reg_power_augmented(n, t, s, j) for j in range(2, n - t + 2)}
        assert values == {reg_power(n, t, s)}


def test_reg_power_augmented_validation():
    with pytest.raises(ValueError):
        reg_power_augmented(7, 1, 1, 2)
    with pytest.raises(ValueError):
        reg_power_augmented(6, 3, 1, 2)  # n < 2t + 1
    with pytest.raises(ValueError):
        reg_power_augmented(7, 3, 0, 2)
    with pytest.raises(ValueError):
        reg_power_augmented(7, 3, 1, 1)  # j too small
    with pytest.raises(ValueError):
        reg_power_augmented(7, 3, 1, 6)  # j > n - t + 1
