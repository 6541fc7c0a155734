"""The exponent-matrix routes against the object routes of support.py.

colon_by_monomial, ideal_power, linear_quotients_check and
quasi_linear_check work on exponent matrices; each must return exactly
what the one-Monomial-at-a-time loops return, raise the same errors with
the same text, and hand out Python ints only.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathideal.monomials as monomials_mod
from pathideal.errors import (
    ColonFormMismatchError,
    ExponentOverflowError,
    SizeCapExceededError,
)
from pathideal.linearity import (
    QuotientCertificate,
    QuotientFailure,
    linear_quotients_check,
    quasi_linear_check,
    quasi_linear_witness,
)
from pathideal.monomials import (
    EXPONENT_CAP,
    Monomial,
    MonomialIdeal,
    colon_by_monomial,
    ideal_power,
    minimalize,
)
from pathideal.path_ideals import PathIdealSpec, power_generators
from support import (
    colon_by_objects,
    linear_quotients_by_objects,
    m,
    matrices_of,
    pairs_of,
    power_by_objects,
    quasi_linear_by_objects,
)


def outcome(fn, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ColonFormMismatchError, ExponentOverflowError, SizeCapExceededError) as exc:
        return type(exc), str(exc), getattr(exc, "count", None)


def assert_python_ints(values) -> None:
    assert all(type(v) is int for v in values), [type(v) for v in values]


def exponents_of(ideal: MonomialIdeal) -> list[int]:
    return [e for g in ideal.generators for e in g.exponents]


@st.composite
def ideals(draw, ambient=st.integers(0, 5), max_exp=3, max_size=6):
    n = draw(ambient)
    row = st.tuples(*[st.integers(0, max_exp)] * n).map(Monomial)
    return minimalize(draw(st.lists(row, max_size=max_size)), ambient=n)


@st.composite
def single_degree_ideals(draw):
    """Generators of one degree d: d variable indices each, counted."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    picks = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
    gens = [
        Monomial(tuple(p.count(j) for j in range(n)))
        for p in draw(st.lists(picks, min_size=1, max_size=9))
    ]
    return minimalize(gens, ambient=n)


# ---------------------------------------------------------------- colon and power


@settings(max_examples=150)
@given(st.data())
def test_colon_matches_object_route(data):
    i = data.draw(ideals())
    quot = data.draw(st.tuples(*[st.integers(0, 3)] * i.ambient).map(Monomial))
    got = colon_by_monomial(i, quot)
    assert got == colon_by_objects(i, quot)
    assert_python_ints(exponents_of(got))


@settings(max_examples=100)
@given(ideals(max_size=4), st.integers(1, 3))
def test_power_matches_object_route(i, s):
    got = ideal_power(i, s)
    assert got == power_by_objects(i, s, 200_000)
    assert_python_ints(exponents_of(got))


def test_colon_and_power_of_unit_zero_and_small_ambients():
    for n in (0, 1, 3):
        unit = m("1", n)
        zero, one = MonomialIdeal(n, ()), MonomialIdeal(n, [unit.exponents])
        for i in (zero, one):
            assert colon_by_monomial(i, unit) == colon_by_objects(i, unit) == i
            for s in (1, 2, 3):
                assert ideal_power(i, s) == power_by_objects(i, s, 200_000) == i
    x1 = minimalize([m("x1^2", 1)])
    assert colon_by_monomial(x1, m("x1^5", 1)) == MonomialIdeal(1, [(0,)])
    assert ideal_power(x1, 3) == power_by_objects(x1, 3, 200_000) == minimalize([m("x1^6", 1)])


@pytest.mark.parametrize(
    "gens, s",
    [
        (["x1^40000"], 2),
        (["x2", "x1^40000"], 2),
        (["x1^30000*x2^30000", "x3^2"], 3),
        (["x1^60000*x2^60000"], 2),  # the generator itself is over the degree cap
        (["x1", "x2^20000", "x3^30000"], 4),
    ],
)
def test_power_overflow_names_the_same_product(gens, s):
    i = minimalize([m(g, 3) for g in gens])
    got = outcome(ideal_power, i, s, 200_000)
    assert got == outcome(power_by_objects, i, s, 200_000)
    assert got[0] is ExponentOverflowError
    assert f"above cap {EXPONENT_CAP}" in got[1]


def test_power_over_the_degree_cap_at_s_1_is_the_ideal():
    # only a product is checked against the cap, as multiplying would
    i = minimalize([m("x1^60000*x2^60000", 2)])
    assert ideal_power(i, 1) == power_by_objects(i, 1, 200_000) == i


def test_power_count_cap_is_the_same_error():
    i = minimalize([m("x1", 3), m("x2", 3), m("x3", 3)])
    for cap in (1, 5, 14):
        got = outcome(ideal_power, i, 4, cap)
        assert got == outcome(power_by_objects, i, 4, cap)
        assert got[0] is SizeCapExceededError and got[2] == 15


def test_power_chunks_agree(monkeypatch):
    i = minimalize([m(g, 4) for g in ("x1*x2", "x2*x3^2", "x4", "x1^2*x3")])
    want = power_by_objects(i, 3, 200_000)
    monkeypatch.setattr(monomials_mod, "_CHUNK_BYTES", 1)  # one product a chunk
    assert ideal_power(i, 3) == want


# ---------------------------------------------------------------- linearity


@settings(max_examples=150)
@given(single_degree_ideals())
def test_quasi_linear_matches_object_route(i):
    got = quasi_linear_check(i)
    assert got == quasi_linear_by_objects(i)
    if got.witness is not None:
        assert_python_ints([e for g in got.witness for e in g.exponents])


def test_quasi_linear_unit_zero_and_small_ambients():
    for i in (MonomialIdeal(0, ()), MonomialIdeal(0, [()]),
              MonomialIdeal(1, ()), minimalize([m("x1^3", 1)])):
        assert quasi_linear_check(i) == quasi_linear_by_objects(i)
        assert quasi_linear_check(i).is_quasi_linear


CELLS = [(2, 2, 1), (3, 2, 1), (4, 2, 2), (5, 2, 1), (5, 2, 2), (6, 2, 2),
         (5, 3, 2), (7, 3, 1), (7, 3, 2), (6, 3, 3), (8, 3, 1), (9, 4, 1)]


@pytest.mark.parametrize("n, t, s", CELLS)
def test_default_order_matches_object_route(n, t, s):
    spec = PathIdealSpec(n, t)
    pairs = pairs_of(*power_generators(spec, s))
    got = linear_quotients_check(spec, *power_generators(spec, s))
    assert got == linear_quotients_by_objects(spec, pairs)
    assert_certificate_ints(got)


@settings(max_examples=200)
@given(st.sampled_from(CELLS), st.randoms(use_true_random=False))
def test_random_orders_match_object_route(cell, rng):
    n, t, s = cell
    spec = PathIdealSpec(n, t)
    pairs = pairs_of(*power_generators(spec, s))
    rng.shuffle(pairs)
    got = outcome(linear_quotients_check, spec, *matrices_of(pairs))
    assert got == outcome(linear_quotients_by_objects, spec, pairs)
    if isinstance(got, QuotientFailure):
        assert got.composition == pairs[got.position - 1][0]
    if isinstance(got, QuotientCertificate):
        assert got.order == tuple(c for c, _ in pairs)
    if not isinstance(got, tuple):
        assert_certificate_ints(got)


def assert_certificate_ints(got) -> None:
    if isinstance(got, QuotientCertificate):
        assert_python_ints([v for vs in got.colon_variables for v in vs])
        assert_python_ints(got.variable_counts)
    else:
        assert_python_ints([got.position, *got.offender.exponents])


def test_closed_form_mismatch_has_the_same_text():
    spec = PathIdealSpec(4, 2)
    pairs = pairs_of(*power_generators(spec, 1))[::-1]
    got = outcome(linear_quotients_check, spec, *matrices_of(pairs))
    assert got == outcome(linear_quotients_by_objects, spec, pairs)
    assert got[0] is ColonFormMismatchError


def test_witness_colon_is_the_object_colon():
    for n, t, s in [(5, 2, 1), (7, 3, 2), (7, 2, 3), (9, 4, 2)]:
        spec = PathIdealSpec(n, t)
        w = quasi_linear_witness(spec, *power_generators(spec, s))
        rest = [g for _, g in pairs_of(*power_generators(spec, s)) if g != w.excluded]
        want = colon_by_objects(minimalize(rest, ambient=n), w.excluded)
        assert w.colon_generators == want.generators
        assert_python_ints([e for g in w.colon_generators for e in g.exponents])
