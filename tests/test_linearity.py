"""Linear-quotient certificates and quasi-linearity witnesses."""

from __future__ import annotations

import random

import numpy as np
import pytest

from pathideal.errors import ColonFormMismatchError
from pathideal.linearity import (
    QuotientCertificate,
    QuotientFailure,
    closed_form_colon,
    linear_quotients_check,
    quasi_linear_check,
    quasi_linear_witness,
    _least_row,
)
from pathideal.monomials import minimalize
from pathideal.path_ideals import (
    Composition,
    PathIdealSpec,
    power_generators,
)
from support import (
    ideal_of_rows_by_tuples,
    m,
    minimalize_by_tuples,
    mono_quotient,
    pairs_of,
    power,
    support,
)


def certify(n, t, s):
    spec = PathIdealSpec(n, t)
    return linear_quotients_check(spec, *power_generators(spec, s))


def witness(n, t, s):
    spec = PathIdealSpec(n, t)
    return quasi_linear_witness(spec, *power_generators(spec, s))


def naive_prefix_colon_vars(spec, s):
    """Independent per-step prefix colons, minimalized from raw quotients."""
    monos = [m for _, m in pairs_of(*power_generators(spec, s))]
    out = []
    for j in range(1, len(monos)):
        colon = minimalize_by_tuples(
            [mono_quotient(monos[i], monos[j]) for i in range(j)],
            ambient=spec.n,
        )
        if any(g.degree != 1 for g in colon.generators):
            return None
        out.append(frozenset(min(support(g)) for g in colon.generators))
    return out


# ---------------------------------------------------------------- ordering


def test_sort_order_is_lex_decreasing():
    cert = certify(4, 2, 2)
    assert [c.parts for c in cert.order] == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    ]


def test_closed_form_colon_anchors():
    assert closed_form_colon(Composition((2, 0, 0))) == frozenset()
    assert closed_form_colon(Composition((1, 1, 0))) == {1}
    assert closed_form_colon(Composition((1, 0, 1))) == {2}
    assert closed_form_colon(Composition((0, 1, 1))) == {1, 2}
    assert closed_form_colon(Composition((0, 0, 2))) == {2}
    assert closed_form_colon(Composition((3,))) == frozenset()


# ---------------------------------------------------------------- certificates


def test_certificate_anchor_5_3_2():
    cert = certify(5, 3, 2)
    assert isinstance(cert, QuotientCertificate)
    assert [c.parts for c in cert.order] == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert cert.colon_variables == (
        frozenset({1}),
        frozenset({2}),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({2}),
    )
    assert cert.variable_counts == (1, 1, 1, 2, 1)
    assert cert.census() == {1: 4, 2: 1}


def test_certificate_matches_naive_colons_in_overlap():
    for n, t, s in [(4, 2, 1), (4, 2, 3), (5, 3, 2), (6, 3, 2), (8, 4, 2)]:
        cert = certify(n, t, s)
        assert isinstance(cert, QuotientCertificate)
        assert list(cert.colon_variables) == naive_prefix_colon_vars(
            PathIdealSpec(n, t), s
        )


def test_certificate_single_generator_case():
    cert = certify(3, 3, 5)
    assert isinstance(cert, QuotientCertificate)
    assert cert.colon_variables == ()
    assert cert.census() == {}


def test_certificate_first_power_has_single_variable_steps():
    cert = certify(6, 3, 1)
    assert isinstance(cert, QuotientCertificate)
    assert cert.colon_variables == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_default_order_fails_beyond_overlap():
    # For n > 2t the first generator no longer shares support with the last
    # ones, so some prefix colon keeps a full degree-t generator.
    res = certify(7, 3, 1)
    assert isinstance(res, QuotientFailure)
    assert res.position == 5
    assert res.composition.parts == (0, 0, 0, 0, 1)
    assert res.offender == m("x1*x2*x3", 7)


def test_explicit_bad_order_reports_failure_position():
    # Reversed order in the overlap regime stays linear-quotient but breaks
    # the composition-based closed form, which must raise loudly.
    spec = PathIdealSpec(4, 2)
    with pytest.raises(ColonFormMismatchError):
        counts, rows = power_generators(spec, 1)
        linear_quotients_check(spec, counts[::-1], rows[::-1])


# ---------------------------------------------------------------- quasi-linearity


def test_quasi_linear_holds_in_overlap():
    for n, t, s in [(4, 2, 2), (5, 3, 1), (5, 3, 2), (6, 3, 2)]:
        assert quasi_linear_check(power(n, t, s)).is_quasi_linear


def test_quasi_linear_vacuous_cases():
    assert quasi_linear_check(power(3, 3, 4)).is_quasi_linear
    assert quasi_linear_check(minimalize([], ambient=3)).is_quasi_linear


def test_quasi_linear_fails_beyond_overlap():
    res = quasi_linear_check(power(7, 3, 1))
    assert not res.is_quasi_linear
    gen, offender = res.witness
    assert gen == m("x5*x6*x7", 7)
    assert offender == m("x1*x2*x3", 7)


def test_quasi_linear_rejects_mixed_degrees():
    bad = minimalize([m("x1", 3), m("x2*x3", 3)], ambient=3)
    with pytest.raises(ValueError):
        quasi_linear_check(bad)


def test_witness_anchor_7_3_1():
    br = witness(7, 3, 1)
    assert br.excluded == m("x5*x6*x7", 7)
    assert set(br.colon_generators) == {m("x4", 7), m("x1*x2*x3", 7)}
    assert br.variable == 4
    assert br.unique_degree_one
    assert br.variable_misses_first_power
    assert br.valid


def test_witness_higher_powers_and_widths():
    for n, t, s in [(7, 3, 2), (8, 3, 1), (9, 4, 1), (9, 4, 2), (7, 2, 2)]:
        br = witness(n, t, s)
        assert br.variable == n - t
        assert br.valid
        assert any(g.degree > 1 for g in br.colon_generators)


def test_witness_requires_wide_path():
    with pytest.raises(ValueError):
        witness(6, 3, 1)


def test_witness_refuses_t_1():
    # The break is stated for t >= 2: at t = 1, I^s is the s-th power of the
    # maximal ideal, which is quasi-linear, and the break's facts fail.
    for n, s in [(3, 1), (5, 2)]:
        assert quasi_linear_check(power(n, 1, s)).is_quasi_linear
        with pytest.raises(ValueError, match="t >= 2"):
            witness(n, 1, s)


def test_witness_agrees_with_general_scan():
    for n, t, s in [(7, 3, 1), (9, 4, 1), (7, 2, 2)]:
        br = witness(n, t, s)
        res = quasi_linear_check(power(n, t, s))
        assert not res.is_quasi_linear
        assert res.witness[0] == br.excluded


def test_least_row_is_the_first_minimal_generator():
    rng = random.Random(41)
    for _ in range(300):
        ambient = rng.randint(1, 6)
        count = rng.randint(1, 12)
        rows = np.array(
            [[rng.randint(0, 3) for _ in range(ambient)] for _ in range(count)],
            dtype=np.int64,
        )
        if count > 2 and rng.random() < 0.5:
            rows[rng.randrange(1, count)] = rows[0]  # a duplicate row
        assert _least_row(rows) == ideal_of_rows_by_tuples(rows, ambient).generators[0]
    # A single row, and rows that only differ in the last column.
    assert _least_row(np.array([[2, 0, 1]])) == m("x1^2*x3", 3)
    assert _least_row(np.array([[1, 1, 2], [1, 1, 1], [1, 1, 1]])) == m("x1*x2*x3", 3)
