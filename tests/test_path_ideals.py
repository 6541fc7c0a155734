"""Path-graph monomials, composition enumeration, power generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathideal.errors import SizeCapExceededError
from pathideal.monomials import (
    Monomial,
    colon_by_monomial,
    ideal_power,
    minimalize,
)
from pathideal.path_ideals import (
    Composition,
    PathIdealSpec,
    composition_count,
    line_graph_generators,
    path_ideal,
    power_generators,
)
from support import (
    composition_to_monomial,
    compositions_desc,
    m,
    mono_pow,
    pairs_of,
    power_generators_by_compositions,
)


def lines(n: int, t: int) -> list[Monomial]:
    return [Monomial(tuple(u)) for u in line_graph_generators(PathIdealSpec(n, t)).tolist()]


# ---------------------------------------------------------------- specs


def test_spec_validation():
    assert PathIdealSpec(5, 3).num_generators == 3
    assert PathIdealSpec(3, 3).num_generators == 1
    assert PathIdealSpec(2, 3).num_generators == 0
    assert PathIdealSpec(6, 1).num_generators == 6
    with pytest.raises(ValueError):
        PathIdealSpec(0, 2)
    with pytest.raises(ValueError):
        PathIdealSpec(4, 0)


def test_composition_validation():
    assert Composition((1, 0, 2)).parts == (1, 0, 2)
    assert str(Composition((1, 0, 2))) == "(1,0,2)"
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((1, -1))


# ---------------------------------------------------------------- generators


def test_generators_anchor_5_3():
    gens = line_graph_generators(PathIdealSpec(5, 3))
    assert gens.dtype == np.int64 and not gens.flags.writeable
    assert lines(5, 3) == [m("x1*x2*x3", 5), m("x2*x3*x4", 5), m("x3*x4*x5", 5)]


def test_generators_degenerate_cases():
    assert lines(3, 3) == [m("x1*x2*x3", 3)]
    assert lines(2, 3) == []
    assert line_graph_generators(PathIdealSpec(2, 3)).shape == (0, 2)
    assert lines(3, 1) == [
        m("x1", 3),
        m("x2", 3),
        m("x3", 3),
    ]


def test_path_ideal_zero_when_short():
    assert path_ideal(PathIdealSpec(2, 3)).is_zero()
    assert not path_ideal(PathIdealSpec(3, 3)).is_zero()


def test_generators_are_already_minimal():
    for n in range(1, 10):
        for t in range(1, n + 1):
            gens = line_graph_generators(PathIdealSpec(n, t))
            assert len(path_ideal(PathIdealSpec(n, t)).generators) == len(gens)


# ---------------------------------------------------------------- compositions


def test_compositions_desc_exact_order():
    want = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert [c.parts for c in compositions_desc(2, 3)] == want
    assert power_generators(PathIdealSpec(5, 3), 2)[0].tolist() == list(map(list, want))


def test_compositions_count_and_shape():
    for total in range(0, 5):
        for k in range(1, 5):
            comps = list(compositions_desc(total, k))
            assert len(comps) == composition_count(total, k)
            assert len(comps) == math.comb(total + k - 1, k - 1)
            assert all(sum(c.parts) == total and len(c.parts) == k for c in comps)
            assert len({c.parts for c in comps}) == len(comps)


def test_composition_count_anchors():
    assert composition_count(3, 5) == 35  # s=3 power of a 5-generator ideal
    assert composition_count(0, 4) == 1
    assert composition_count(7, 1) == 1
    with pytest.raises(ValueError):
        composition_count(-1, 2)
    with pytest.raises(ValueError):
        composition_count(2, 0)


def test_composition_to_monomial_anchors():
    spec = PathIdealSpec(5, 3)
    assert composition_to_monomial(spec, Composition((2, 0, 0))) == m(
        "x1^2*x2^2*x3^2", 5
    )
    assert composition_to_monomial(spec, Composition((1, 0, 1))) == m(
        "x1*x2*x3^2*x4*x5", 5
    )
    assert composition_to_monomial(spec, Composition((0, 0, 0))) == m("1", 5)
    with pytest.raises(ValueError):
        composition_to_monomial(spec, Composition((1, 0)))
    products = dict(pairs_of(*power_generators(spec, 2)))
    assert products[Composition((2, 0, 0))] == m("x1^2*x2^2*x3^2", 5)
    assert products[Composition((1, 0, 1))] == m("x1*x2*x3^2*x4*x5", 5)


def test_power_generators_match_the_composition_route():
    # order, compositions and monomials, up to 1,820 products a cell
    for t in range(1, 5):
        for n in range(t, 14):
            spec = PathIdealSpec(n, t)
            for s in range(1, 5):
                counts, rows = power_generators(spec, s)
                assert not counts.flags.writeable and not rows.flags.writeable
                assert pairs_of(counts, rows) == power_generators_by_compositions(spec, s)


# ---------------------------------------------------------------- powers


def test_power_generators_anchor_5_3_2():
    pairs = pairs_of(*power_generators(PathIdealSpec(5, 3), 2))
    assert len(pairs) == 6
    assert pairs[0][0].parts == (2, 0, 0)
    assert pairs[0][1] == m("x1^2*x2^2*x3^2", 5)
    assert pairs[-1][0].parts == (0, 0, 2)
    assert pairs[-1][1] == m("x3^2*x4^2*x5^2", 5)
    monos = [mono for _, mono in pairs]
    assert len(set(monos)) == len(monos)  # pairwise distinct


def test_power_generators_single_generator():
    pairs = pairs_of(*power_generators(PathIdealSpec(3, 3), 4))
    assert len(pairs) == 1
    u1 = lines(3, 3)[0]
    assert pairs[0][1] == mono_pow(u1, 4)


def test_power_generators_match_ideal_power_route():
    for n, t, s in [(5, 3, 2), (6, 2, 2), (7, 3, 3), (4, 2, 3), (9, 4, 2)]:
        spec = PathIdealSpec(n, t)
        via_comps = {mono for _, mono in pairs_of(*power_generators(spec, s))}
        via_product = set(ideal_power(path_ideal(spec), s).generators)
        assert via_comps == via_product


def test_power_generators_validation():
    with pytest.raises(ValueError):
        power_generators(PathIdealSpec(2, 3), 2)  # zero ideal
    with pytest.raises(ValueError):
        power_generators(PathIdealSpec(5, 3), 0)
    with pytest.raises(SizeCapExceededError) as exc:
        power_generators(PathIdealSpec(9, 2), 3, max_count=10)
    assert exc.value.count == composition_count(3, 8)


def test_variable_pattern_in_overlap_regime():
    # For t <= n <= 2t every generator of I^s contains x_k (k <= n-t)
    # exactly when its composition has weight on the first k slots.
    for n, t in [(4, 2), (5, 3), (6, 3), (8, 4)]:
        spec = PathIdealSpec(n, t)
        for comp, mono in pairs_of(*power_generators(spec, 2)):
            for k in range(1, n - t + 1):
                expected = sum(comp.parts[:k])
                assert mono.exponents[k - 1] == expected


@given(
    st.integers(2, 4).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(t, 8), st.integers(1, 3))
    )
)
def test_composition_to_monomial_is_injective(nts):
    t, n, s = nts
    monos = [mono for _, mono in pairs_of(*power_generators(PathIdealSpec(n, t), s))]
    assert len(set(monos)) == len(monos)
    degs = {mono.degree for mono in monos}
    assert degs == {t * s}


def test_colon_of_power_by_last_generator_drops_one_power():
    # I^s : u_last = I^{s-1} for s >= 2.
    for n, t, s in [(5, 3, 2), (5, 3, 3), (6, 2, 2), (7, 3, 2), (4, 2, 4)]:
        spec = PathIdealSpec(n, t)
        i = path_ideal(spec)
        u_last = lines(n, t)[-1]
        assert colon_by_monomial(ideal_power(i, s), u_last) == ideal_power(i, s - 1)


def test_power_of_variable_ideal():
    # t=1 gives the maximal ideal; its square has all degree-2 monomials.
    sq = ideal_power(path_ideal(PathIdealSpec(3, 1)), 2)
    expected = minimalize(
        [m(s, 3) for s in ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]],
        ambient=3,
    )
    assert sq == expected
