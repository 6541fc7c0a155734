"""Monomial arithmetic, ideal normalization, colon/sum/power operations."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathideal.monomials as monomials_mod
from pathideal.errors import (
    AmbientMismatchError,
    ExponentOverflowError,
    SizeCapExceededError,
)
from pathideal.monomials import (
    EXPONENT_CAP,
    Monomial,
    MonomialIdeal,
    colon_by_monomial,
    format_monomial,
    ideal_power,
    minimalize,
)
from pathideal.oracle import lcm_lattice
from support import (
    contains,
    ideal,
    m,
    minimalize_by_tuples,
    mono_divides,
    mono_mul,
    mono_pow,
    mono_quotient,
    support,
)


# ---------------------------------------------------------------- naive oracles


def naive_minimal(monos: list[Monomial], ambient: int) -> set[Monomial]:
    """Quadratic filter: keep g iff no other distinct element divides it."""
    distinct = set(monos)
    return {
        g
        for g in distinct
        if not any(h != g and mono_divides(h, g) for h in distinct)
    }


def box(ambient: int, max_exp: int):
    """All monomials with every exponent <= max_exp."""
    for exps in itertools.product(range(max_exp + 1), repeat=ambient):
        yield Monomial(exps)


# ---------------------------------------------------------------- arithmetic


def test_divides_unit_and_self():
    a, unit = m("x1*x2", 3), m("1", 3)
    assert mono_divides(unit, a)
    assert mono_divides(a, a)
    assert not mono_divides(a, unit)


def test_divides_componentwise():
    assert mono_divides(m("x2*x3", 4), m("x1*x2*x3", 4))
    assert not mono_divides(m("x1^2", 4), m("x1*x2", 4))


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatchError):
        mono_divides(m("x1", 2), m("x1", 3))
    with pytest.raises(AmbientMismatchError):
        mono_mul(m("x1", 2), m("x1", 3))


def test_gcd_lcm():
    # lcms are taken by the lcm lattice; a / gcd(a, b) by mono_quotient.
    a, b = m("x1^2*x2", 3), m("x2^2*x3", 3)
    assert lcm_lattice(minimalize([a, b])) == [b, a, m("x1^2*x2^2*x3", 3)]
    assert mono_quotient(a, b) == m("x1^2", 3)


def test_mul_pow_quotient():
    assert mono_mul(m("x1", 3), m("x1*x2", 3)) == m("x1^2*x2", 3)
    assert mono_pow(m("x1*x3", 3), 3) == m("x1^3*x3^3", 3)
    assert mono_quotient(m("x5*x6*x7", 7), m("x4*x5*x6", 7)) == m("x7", 7)
    assert mono_quotient(m("x1*x2", 3), m("x1*x2", 3)) == m("1", 3)
    # saturating: quotient ignores variables of the divisor missing upstairs
    assert mono_quotient(m("x1", 3), m("x2^5", 3)) == m("x1", 3)


def test_exponent_cap_enforced():
    with pytest.raises(ExponentOverflowError):
        Monomial((EXPONENT_CAP + 1, 0))
    big = Monomial((EXPONENT_CAP - 1, 0))
    with pytest.raises(ExponentOverflowError):
        mono_mul(big, Monomial((2, 0)))
    with pytest.raises(ExponentOverflowError):
        mono_pow(Monomial((2, 0)), EXPONENT_CAP)


def test_monomial_accessors():
    a = m("x1^2*x3", 3)
    assert a.ambient == 3
    assert a.degree == 3
    assert support(a) == frozenset({1, 3})
    assert not a.is_unit()
    assert Monomial((0, 0, 0)).is_unit()
    assert str(Monomial((0, 1, 0))) == "x2"
    assert str(Monomial((0, 0, 0))) == "1"


# ---------------------------------------------------------------- parse/format


def test_parse_format_round_trip():
    for text in ["1", "x2", "x1^2*x3", "x1*x2*x3", "x4^7"]:
        assert format_monomial(m(text, 4)) == text


def test_parse_accumulates_repeats():
    assert m("x1*x1*x2^2", 3) == Monomial((2, 2, 0))


def test_parse_rejects_bad_input():
    for bad in ["x0", "y1", "x1^", "x1**x2", "", "x5"]:
        with pytest.raises(ValueError):
            m(bad, 4)


# ---------------------------------------------------------------- ideal basics


def test_ideal_canonical_form_is_validated():
    x4, u1 = (0, 0, 0, 1), (1, 1, 1, 0)
    i = MonomialIdeal(4, [x4, u1])  # canonical: ascending exponent rows
    assert i.generators == (m("x4", 4), m("x1*x2*x3", 4))
    assert i.exponents.dtype == np.int64 and not i.exponents.flags.writeable
    with pytest.raises(ValueError, match="^generators not sorted canonically$"):
        MonomialIdeal(4, [u1, x4])
    with pytest.raises(ValueError, match="^non-minimal generators x4, x3\\*x4$"):
        MonomialIdeal(4, [x4, (0, 0, 1, 1)])
    with pytest.raises(ValueError, match="^duplicate generator x4$"):
        MonomialIdeal(4, np.array([x4, u1, x4], dtype=np.int32))
    with pytest.raises(AmbientMismatchError):
        MonomialIdeal(4, [(1, 0, 0)])
    with pytest.raises(ValueError, match="negative exponent"):
        MonomialIdeal(2, [(0, -1)])
    with pytest.raises(ExponentOverflowError):
        MonomialIdeal(1, [(EXPONENT_CAP + 1,)])
    with pytest.raises(ValueError, match="integers"):
        MonomialIdeal(1, [(0.5,)])


def test_ideal_copies_its_input():
    rows = np.array([[0, 1], [1, 0]])
    i = MonomialIdeal(2, rows)
    rows[0, 0] = 5
    same = minimalize([m("x2", 2), m("x1", 2)])
    assert i == same and hash(i) == hash(same)


def test_zero_ideal():
    z = MonomialIdeal(5, ())
    assert z.is_zero()
    assert not contains(z, m("x1", 5))
    assert str(z) == "(0)"


def test_contains():
    i = ideal(["x1*x2", "x2*x3"], 3)
    assert contains(i, m("x1*x2^2*x3", 3))
    assert not contains(i, m("x1*x3", 3))
    assert not contains(i, m("1", 3))


def test_minimalize_anchor():
    got = ideal(["x4", "x3*x4", "x1*x2*x3"], 4)
    assert set(got.generators) == {m("x4", 4), m("x1*x2*x3", 4)}


def test_minimalize_unit_swallows_everything():
    got = minimalize([m("1", 3), m("x1", 3)], ambient=3)
    assert got.generators == (m("1", 3),)


def test_minimalize_compares_across_degrees_in_chunks(monkeypatch):
    # A budget of one byte forces one row per chunk.
    rng = random.Random(4)
    for budget in (1, 1 << 24):
        monkeypatch.setattr(monomials_mod, "_CHUNK_BYTES", budget)
        for _ in range(20):
            size = rng.randint(1, 60)
            gens = [Monomial(tuple(rng.choices(range(4), k=5))) for _ in range(size)]
            assert set(minimalize(gens).generators) == naive_minimal(gens, 5)


def test_minimalize_checks_minimality_once(monkeypatch):
    passes = []

    def counted(exps):
        passes.append(len(exps))
        return real(exps)

    real = monomials_mod._minimal_rows
    monkeypatch.setattr(monomials_mod, "_minimal_rows", counted)
    i = minimalize([m("x1^3", 2), m("x1*x2", 2), m("x1^2", 2), m("x1*x2^2", 2)])
    assert i.generators == (m("x1*x2", 2), m("x1^2", 2))
    assert passes == [4]
    # A direct construction still validates, in one pass.
    passes.clear()
    assert MonomialIdeal(2, i.exponents) == i
    assert passes == [2]
    with pytest.raises(ValueError, match="non-minimal"):
        MonomialIdeal(2, [(2, 0), (3, 0)])


def test_minimalize_empty_needs_ambient():
    assert minimalize([], ambient=6).is_zero()
    with pytest.raises(ValueError):
        minimalize([])


# ---------------------------------------------------------------- colon / sum / power


def test_colon_anchor_edge_path():
    i = ideal(["x1*x2", "x2*x3"], 3)
    assert colon_by_monomial(i, m("x2", 3)) == ideal(["x1", "x3"], 3)


def test_colon_by_unit_is_identity():
    i = ideal(["x1*x2", "x2*x3"], 3)
    assert colon_by_monomial(i, m("1", 3)) == i


def test_colon_of_zero_is_zero():
    z = MonomialIdeal(3, ())
    assert colon_by_monomial(z, m("x1", 3)).is_zero()


def test_colon_anchor_path_prefix_by_last_generator():
    # (x1x2x3, x2x3x4, x3x4x5, x4x5x6) : x5x6x7 in 7 variables
    gens = ["x1*x2*x3", "x2*x3*x4", "x3*x4*x5", "x4*x5*x6"]
    got = colon_by_monomial(ideal(gens, 7), m("x5*x6*x7", 7))
    assert set(got.generators) == {m("x4", 7), m("x1*x2*x3", 7)}


def test_ideal_sum():
    # I + J is generated by the union of the generators, minimalized.
    a = ideal(["x1*x2"], 3)
    b = ideal(["x2"], 3)
    assert minimalize(a.generators + b.generators) == ideal(["x2"], 3)
    with pytest.raises(AmbientMismatchError):
        minimalize(a.generators + ideal(["x1"], 4).generators)


def test_ideal_power_anchor():
    i = ideal(["x1", "x2"], 2)
    sq = ideal_power(i, 2)
    assert set(sq.generators) == {m("x1^2", 2), m("x1*x2", 2), m("x2^2", 2)}
    assert ideal_power(i, 1) == i


def test_ideal_power_validates_input():
    i = ideal(["x1", "x2"], 2)
    with pytest.raises(ValueError):
        ideal_power(i, 0)
    assert ideal_power(MonomialIdeal(2, ()), 3).is_zero()


def test_ideal_power_size_cap():
    i = ideal(["x1", "x2", "x3"], 3)
    with pytest.raises(SizeCapExceededError) as exc:
        ideal_power(i, 4, max_products=5)
    assert exc.value.count > 5


# ---------------------------------------------------------------- properties

small_monomial = st.tuples(*([st.integers(0, 3)] * 4)).map(Monomial)
gen_lists = st.lists(small_monomial, min_size=1, max_size=5)


@given(gen_lists)
def test_minimalize_matches_naive_filter(gens):
    got = minimalize(gens, ambient=4)
    assert set(got.generators) == naive_minimal(gens, 4)


@given(gen_lists)
def test_minimalize_is_idempotent(gens):
    once = minimalize(gens, ambient=4)
    assert minimalize(list(once.generators), ambient=4) == once


@settings(max_examples=40)
@given(gen_lists, small_monomial)
def test_colon_membership_characterization(gens, quot):
    """v lies in (I : q) exactly when q*v lies in I, over a test box."""
    i = minimalize(gens, ambient=4)
    c = colon_by_monomial(i, quot)
    for v in box(4, 2):
        assert contains(c, v) == contains(i, mono_mul(quot, v))


@settings(max_examples=40)
@given(gen_lists, gen_lists, small_monomial)
def test_colon_distributes_over_sum(ga, gb, quot):
    a, b = minimalize(ga, ambient=4), minimalize(gb, ambient=4)
    lhs = colon_by_monomial(minimalize(a.generators + b.generators), quot)
    ca, cb = colon_by_monomial(a, quot), colon_by_monomial(b, quot)
    assert lhs == minimalize(ca.generators + cb.generators)


@settings(max_examples=25)
@given(st.lists(small_monomial, min_size=1, max_size=3))
def test_power_matches_iterated_product(gens):
    i = minimalize(gens, ambient=4)
    if any(g.is_unit() for g in i.generators):
        return
    cube = ideal_power(i, 3)
    by_hand = minimalize(
        [
            mono_mul(mono_mul(a, b), c)
            for a in i.generators
            for b in i.generators
            for c in i.generators
        ],
        ambient=4,
    )
    assert cube == by_hand


# ---------------------------------------------------------------- array route

@st.composite
def exponent_matrices(draw):
    """(ambient, rows): repeated rows, mixed degrees, the unit row, exponents at the cap."""
    n = draw(st.integers(0, 5))
    high = draw(st.sampled_from((3, EXPONENT_CAP)))
    row = st.tuples(*[st.sampled_from((0, 0, 1, 2, high))] * n)
    rows = draw(st.lists(st.one_of(row, st.just((0,) * n)), max_size=12))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=6))  # repeats
    return n, draw(st.permutations(rows))


@settings(max_examples=300)
@given(exponent_matrices(), st.sampled_from((np.int64, np.int32)))
@example((0, []), np.int64)
@example((0, [(), ()]), np.int32)
@example((3, []), np.int32)
@example((2, [(EXPONENT_CAP, 0), (0, 0), (EXPONENT_CAP, 0)]), np.int32)
def test_minimalize_array_route_matches_the_tuple_route(drawn, dtype):
    n, rows = drawn
    matrix = np.array(rows, dtype=dtype).reshape(len(rows), n)
    got = minimalize(matrix)
    want = minimalize_by_tuples([Monomial(r) for r in rows], ambient=n)
    assert got == want and got.ambient == n
    assert got.exponents.dtype == np.int64 and not got.exponents.flags.writeable
    assert minimalize([Monomial(r) for r in rows], ambient=n) == want
    assert MonomialIdeal(n, got.exponents) == got  # canonical, so it validates


def test_minimalize_refuses_what_a_monomial_refuses():
    with pytest.raises(ValueError, match="negative exponent"):
        minimalize(np.array([[1, -1]]))
    with pytest.raises(ExponentOverflowError):
        minimalize(np.array([[0, EXPONENT_CAP + 1]], dtype=np.int32))
    with pytest.raises(ValueError, match="integers"):
        minimalize(np.array([[0.5]]))
    with pytest.raises(AmbientMismatchError):
        minimalize(np.zeros((1, 3), dtype=np.int64), ambient=2)
