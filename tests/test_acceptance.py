"""Acceptance suite: every advertised guarantee, one printed line each.

Each test checks one guarantee across its full advertised domain and prints
``criterion NN (<label>): PASS`` (or FAIL) straight to the terminal, so the
suite doubles as a human-readable acceptance report.  All quantities are
exact integers; equality is always literal.
"""

from __future__ import annotations

import random

import numpy as np
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
from pathideal.linearity import (
    QuotientCertificate,
    closed_form_colon,
    linear_quotients_check,
    quasi_linear_check,
    quasi_linear_witness,
)
from pathideal.monomials import (
    Monomial,
    colon_by_monomial,
    ideal_power,
    minimalize,
)
from pathideal.path_ideals import (
    PathIdealSpec,
    composition_count,
    line_graph_generators,
    path_ideal,
    power_generators,
)
from pathideal.verify import SweepConfig, sweep_cells
from support import contains, from_faces, m, mono_divides, pairs_of, reduced_homology

CELLS = sweep_cells(SweepConfig())
OVERLAP = [(n, t, s) for (n, t, s) in CELLS if t <= n <= 2 * t]
BEYOND = [(n, t, s) for (n, t, s) in CELLS if n >= 2 * t + 1]


@pytest.fixture
def announce(capsys):
    """Run a criterion body and print its verdict to the real terminal."""

    def run(num: int, label: str, body) -> None:
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print(f"criterion {num:2d} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {num:2d} ({label}): PASS")

    return run


def test_criterion_01_regularity_formula_on_full_grid(announce, betti, power_ideal):
    def body():
        assert len(CELLS) == 57
        for n, t, s in CELLS:
            oracle = betti(power_ideal(n, t, s)).quotient_regularity()
            assert oracle == reg_power(n, t, s), (n, t, s, oracle)

    announce(1, "regularity formula matches oracle on all 57 grid cells", body)


def test_criterion_02_first_power_and_degenerate_cases(announce, betti, power_ideal):
    def body():
        for t in range(2, 5):
            for n in range(t, 10):
                oracle = betti(power_ideal(n, t, 1)).quotient_regularity()
                assert oracle == gamma(n, t), (n, t)
            for n in range(1, t):
                zero = path_ideal(PathIdealSpec(n, t))
                assert zero.is_zero() and gamma(n, t) == 0, (n, t)
                with pytest.raises(ValueError):
                    betti(zero).quotient_regularity()
        assert all(gamma(n, 1) == 0 for n in range(0, 40))

    announce(2, "first powers match gamma; short paths give the zero ideal", body)


def test_criterion_03_linear_resolution_classification(announce, betti, power_ideal):
    def body():
        for n, t, s in CELLS:
            expected = linear_resolution_predicate(n, t)
            assert betti(power_ideal(n, t, s)).is_linear() == expected, (n, t, s)
        # field independence spot-check on the middle path length
        for n, t, s in CELLS:
            if t != 3:
                continue
            table = betti(power_ideal(n, t, s), 3)
            assert table.is_linear() == linear_resolution_predicate(n, t)

    announce(3, "linear resolutions exactly when t <= n <= 2t, any field", body)


def test_criterion_04_linear_quotient_certificates(announce):
    def body():
        for n, t, s in OVERLAP:
            spec = PathIdealSpec(n, t)
            cert = linear_quotients_check(spec, *power_generators(spec, s))
            assert isinstance(cert, QuotientCertificate), (n, t, s)
            for step, found in enumerate(cert.colon_variables):
                predicted = closed_form_colon(cert.order[step + 1])
                assert found == predicted, (n, t, s, step)

    announce(4, "overlap powers have linear quotients with closed-form colons", body)


def test_criterion_05_quasi_linearity_breaks_beyond_overlap(announce, power_ideal):
    def body():
        for n, t, s in BEYOND:
            assert not quasi_linear_check(power_ideal(n, t, s)).is_quasi_linear
            spec = PathIdealSpec(n, t)
            w = quasi_linear_witness(spec, *power_generators(spec, s))
            assert w.valid and w.variable == n - t, (n, t, s)
            assert any(g.degree > 1 for g in w.colon_generators), (n, t, s)
        # hand-checked instance: excluding x5x6x7 from I_3(L_7) colons to
        # (x4, x1x2x3), whose x4 does not divide (x1x2x3)^1
        spec = PathIdealSpec(7, 3)
        w = quasi_linear_witness(spec, *power_generators(spec, 1))
        assert {str(g) for g in w.colon_generators} == {"x4", "x1*x2*x3"}

    announce(5, "quasi-linearity fails for n >= 2t+1 with an explicit witness", body)


def test_criterion_06_betti_numbers_pd_and_census(announce, betti, power_ideal):
    def body():
        for n, t, s in OVERLAP:
            table = betti(power_ideal(n, t, s))
            d = s * t
            for (i, b) in table.entries:
                assert sum(b) == i + d, (n, t, s, i, b)
            for i in range(n - t + 2):
                total = table.totals().get(i, 0)
                assert total == betti_closed_form(n, t, s, i), (n, t, s, i)
            pd = table.quotient_projective_dimension()
            assert pd == pd_closed_form(n, t, s) == min(n - t + 1, s + 1)
            spec = PathIdealSpec(n, t)
            census = linear_quotients_check(spec, *power_generators(spec, s)).census()
            for k in range(1, n - t + 1):
                assert census.get(k, 0) == s_k_closed_form(n, t, s, k), (n, t, s, k)

    announce(6, "overlap Betti numbers, pd, and colon census match closed forms", body)


def test_criterion_07_generator_combinatorics(announce, power_ideal):
    def body():
        for n, t, s in CELLS:
            pairs = pairs_of(*power_generators(PathIdealSpec(n, t), s))
            assert len(pairs) == composition_count(s, n - t + 1), (n, t, s)
            monos = [m for _, m in pairs]
            assert len({m.exponents for m in monos}) == len(monos), (n, t, s)
            assert {m.exponents for m in monos} == {
                g.exponents for g in power_ideal(n, t, s).generators
            }, (n, t, s)
            for a in monos:
                assert not any(
                    b is not a and mono_divides(b, a) for b in monos
                ), (n, t, s, str(a))

    announce(7, "power generators are distinct, minimal, and counted exactly", body)


def test_criterion_08_colon_drops_one_power(announce, power_ideal):
    def body():
        for n, t, s in CELLS:
            if s < 2:
                continue
            u_last = Monomial(tuple(line_graph_generators(PathIdealSpec(n, t))[-1]))
            got = colon_by_monomial(power_ideal(n, t, s), u_last)
            assert got == power_ideal(n, t, s - 1), (n, t, s)

    announce(8, "colon by the last path generator lowers the power by one", body)


def test_criterion_09_augmented_regularity(announce, betti, power_ideal):
    def body():
        for n, t, s in BEYOND:
            if s > 2:
                continue
            gens = line_graph_generators(PathIdealSpec(n, t))
            for j in range(2, n - t + 2):
                augmented = minimalize(
                    np.concatenate((power_ideal(n, t, s).exponents, gens[j - 1 :]))
                )
                oracle = betti(augmented).quotient_regularity()
                assert oracle == reg_power_augmented(n, t, s, j), (n, t, s, j)

    announce(9, "appending trailing path generators preserves regularity", body)


def test_criterion_10_gamma_arithmetic(announce):
    def body():
        for t in range(1, 13):
            for n in range(t + 1, 61):
                assert gamma(n - t - 1, t) == gamma(n, t) - (t - 1), (n, t)
            for a in range(1, 41):
                for b in range(1, 41):
                    assert gamma(a, t) + gamma(b, t) <= gamma(a + b + 1, t), (a, b, t)

    announce(10, "gamma obeys its shift identity and superadditivity", body)


def _random_block_ideal(rng: random.Random, ambient: int, block: range):
    while True:
        gens = []
        for _ in range(rng.randint(1, 4)):
            exps = [0] * ambient
            for v in block:
                exps[v - 1] = rng.randint(0, 2)
            if any(exps):
                gens.append(Monomial(tuple(exps)))
        if gens:
            return minimalize(gens, ambient=ambient)


def test_criterion_11_structural_regularity_properties(announce, betti):
    def body():
        # (a) regularity adds over ideals in disjoint variable blocks
        rng = random.Random(20260814)
        for _ in range(50):
            a = _random_block_ideal(rng, 6, range(1, 4))
            b = _random_block_ideal(rng, 6, range(4, 7))
            lhs = betti(minimalize(a.generators + b.generators)).quotient_regularity()
            assert lhs == (
                betti(a).quotient_regularity() + betti(b).quotient_regularity()
            ), (str(a), str(b))

        # (b) the colon exact sequence bounds the three regularities
        rng = random.Random(97)
        for _ in range(50):
            i = _random_block_ideal(rng, 5, range(1, 6))
            while True:
                exps = tuple(rng.randint(0, 2) for _ in range(5))
                if any(exps) and not contains(i, Monomial(exps)):
                    m = Monomial(exps)
                    break
            shifted = betti(colon_by_monomial(i, m)).quotient_regularity() + m.degree
            middle = betti(i).quotient_regularity()
            joined = betti(minimalize(i.generators + (m,))).quotient_regularity()
            key = (str(i), str(m))
            assert middle <= max(shifted, joined), key
            assert shifted <= max(middle, joined + 1), key
            assert joined <= max(shifted - 1, middle), key

        # (c) homology sanity on fixed complexes, two characteristics
        two_points = from_faces([(1,), (2,)])
        hollow = from_faces([(1, 2), (1, 3), (2, 3)])
        point = from_faces([(1,)])
        for p in (2, 3):
            assert reduced_homology(two_points, p) == [0, 1]
            assert reduced_homology(hollow, p) == [0, 0, 1]
            assert reduced_homology(point, p) == [0, 0]

    announce(11, "regularity splitting, colon bounds, and homology sanity", body)


def test_powers_match_edge_case_anchor(betti):
    """Spot anchor kept outside the criteria: I_2(L_3) in full detail."""
    i = minimalize([m("x1*x2", 3), m("x2*x3", 3)], ambient=3)
    assert i == ideal_power(path_ideal(PathIdealSpec(3, 2)), 1)
    table = betti(i)
    assert table.graded() == {(0, 2): 2, (1, 3): 1}
    assert table.quotient_regularity() == 1
