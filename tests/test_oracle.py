"""Homological oracle: ranks, complexes, lcm lattices, Betti tables."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathideal.errors import AmbientMismatchError, SizeCapExceededError
from pathideal.monomials import Monomial, MonomialIdeal, minimalize, parse_monomial
from pathideal.oracle import (
    GF2,
    BettiTable,
    FieldSpec,
    SimplicialComplexFaces,
    betti_table,
    gf2_rank,
    gfp_rank,
    has_linear_resolution,
    lcm_lattice,
    projective_dimension_of_quotient,
    reduced_homology_dims,
    regularity_of_quotient,
    upper_koszul_complex,
)
from pathideal.path_ideals import PathIdealSpec, path_ideal, power_generators


def m(text: str, ambient: int) -> Monomial:
    return parse_monomial(text, ambient)


def ideal(texts: list[str], ambient: int) -> MonomialIdeal:
    return minimalize([m(s, ambient) for s in texts], ambient=ambient)


def power(n: int, t: int, s: int) -> MonomialIdeal:
    gens = [mono for _, mono in power_generators(PathIdealSpec(n, t), s)]
    return minimalize(gens, ambient=n)


# Small mixed-degree, non-squarefree ideals with syzygies beyond i = 1.
OFF_PATH_IDEALS = [
    (["x1^2", "x1*x2*x3", "x2^2*x4", "x3^3", "x4^2*x1"], 4),
    (["x1^3", "x1*x2", "x2^2*x3", "x3*x4^2", "x4^3"], 4),
    (["x1^2*x2", "x1*x3^2", "x2^2*x3", "x4^3", "x2*x4", "x1*x2*x3*x5"], 5),
]


def betti_via_public_route(i: MonomialIdeal, p: int) -> dict:
    """Recompute every entry through the per-multidegree public API.

    No lattice pruning, no cone shortcut: an independent check that the
    batched table matches a plain walk over the lcm lattice.
    """
    entries = {}
    for b in lcm_lattice(i):
        dims = reduced_homology_dims(upper_koszul_complex(i, b), FieldSpec(p))
        for idx, h in enumerate(dims):
            if h:
                entries[(idx, b.exponents)] = h
    return entries


# ---------------------------------------------------------------- ranks


def test_gf2_rank():
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0b11, 0b10, 0b01]) == 2
    assert gf2_rank([0b101, 0b101]) == 1
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([]) == 0


def test_gfp_rank():
    assert gfp_rank(np.array([[1, 2], [2, 4]]), 5) == 1
    assert gfp_rank(np.array([[1, 2], [2, 4]]), 3) == 1
    assert gfp_rank(np.array([[1, 1], [1, 2]]), 3) == 2
    # 2 == 0 over GF(2) but not over GF(3)
    assert gfp_rank(np.array([[2]]), 2) == 0
    assert gfp_rank(np.array([[2]]), 3) == 1
    assert gfp_rank(np.zeros((3, 3)), 7) == 0


def test_gfp_rank_agrees_with_bitset_route():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = np.array(
            [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        )
        bitrows = [
            sum(1 << c for c in range(cols) if mat[r, c]) for r in range(rows)
        ]
        assert gfp_rank(mat, 2) == gf2_rank(bitrows)


# ---------------------------------------------------------------- complexes


def test_from_faces_hollow_triangle():
    cx = SimplicialComplexFaces.from_faces([(1, 2), (1, 3), (2, 3)])
    assert cx.vertices == (1, 2, 3)
    assert cx.faces[1] == ((1,), (2,), (3,))
    assert cx.faces[2] == ((1, 2), (1, 3), (2, 3))
    assert cx.dim == 1
    assert cx.face_count() == 7


def test_from_faces_void_and_empty():
    assert SimplicialComplexFaces.from_faces([]).is_void
    only_empty = SimplicialComplexFaces.from_faces([()])
    assert only_empty.dim == -1
    assert only_empty.face_count() == 1


def test_complex_validates_closure():
    with pytest.raises(ValueError):
        SimplicialComplexFaces((1, 2), (((),), ((1,),), ((1, 2),)))  # no (2,)
    with pytest.raises(ValueError):
        SimplicialComplexFaces((2, 1), (((),),))  # unsorted vertices


def test_homology_contractible_cases():
    point = SimplicialComplexFaces.from_faces([(1,)])
    assert reduced_homology_dims(point) == [0, 0]
    filled = SimplicialComplexFaces.from_faces([(1, 2, 3)])
    assert reduced_homology_dims(filled) == [0, 0, 0, 0]


def test_homology_two_points():
    cx = SimplicialComplexFaces.from_faces([(1,), (3,)])
    assert reduced_homology_dims(cx) == [0, 1]
    assert reduced_homology_dims(cx, FieldSpec(3)) == [0, 1]


def test_homology_empty_face_only():
    cx = SimplicialComplexFaces.from_faces([()])
    assert reduced_homology_dims(cx) == [1]


def test_homology_void():
    assert reduced_homology_dims(SimplicialComplexFaces((), ())) == []


def test_homology_circle():
    cx = SimplicialComplexFaces.from_faces([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert reduced_homology_dims(cx) == [0, 0, 1]
    assert reduced_homology_dims(cx, FieldSpec(5)) == [0, 0, 1]


def test_homology_projective_plane_depends_on_characteristic():
    # Minimal 6-vertex triangulation of the projective plane: homology with
    # GF(2) coefficients differs from GF(3), so the field matters end to end.
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    cx = SimplicialComplexFaces.from_faces(triangles)
    assert reduced_homology_dims(cx, FieldSpec(2)) == [0, 0, 1, 1]
    assert reduced_homology_dims(cx, FieldSpec(3)) == [0, 0, 0, 0]


# ---------------------------------------------------------------- upper Koszul


def test_upper_koszul_anchor():
    i = ideal(["x1*x2", "x2*x3"], 3)
    cx = upper_koszul_complex(i, m("x1*x2*x3", 3))
    assert cx.vertices == (1, 3)
    assert cx.faces == (((),), ((1,), (3,)))
    assert reduced_homology_dims(cx) == [0, 1]


def test_upper_koszul_at_generator():
    i = ideal(["x1*x2", "x2*x3"], 3)
    cx = upper_koszul_complex(i, m("x1*x2", 3))
    assert cx.faces == (((),),)
    assert reduced_homology_dims(cx) == [1]


def test_upper_koszul_outside_ideal_is_void():
    i = ideal(["x1*x2", "x2*x3"], 3)
    assert upper_koszul_complex(i, m("x1", 3)).is_void
    assert upper_koszul_complex(MonomialIdeal(3, ()), m("x1", 3)).is_void


def test_upper_koszul_off_lattice_degree_is_contractible():
    i = ideal(["x1*x2", "x2*x3"], 3)
    cx = upper_koszul_complex(i, m("x1^2*x2", 3))
    assert reduced_homology_dims(cx) == [0, 0]


def koszul_by_definition(i: MonomialIdeal, b: Monomial) -> SimplicialComplexFaces:
    """Faces sigma within supp(b) with x^b / x^sigma in I, by enumeration."""
    supp = [j for j, e in enumerate(b.exponents) if e]
    faces = []
    for r in range(len(supp) + 1):
        for sigma in itertools.combinations(supp, r):
            quot = [e - (j in sigma) for j, e in enumerate(b.exponents)]
            if any(
                all(g <= e for g, e in zip(gen.exponents, quot))
                for gen in i.generators
            ):
                faces.append(tuple(j + 1 for j in sigma))
    return SimplicialComplexFaces.from_faces(faces)


def test_upper_koszul_matches_definition():
    ideals = [power(5, 3, 2)] + [ideal(g, a) for g, a in OFF_PATH_IDEALS]
    for i in ideals:
        degrees = [b.exponents for b in lcm_lattice(i)]
        # off-lattice degrees too: one more of each variable on a few points
        degrees += [
            tuple(e + (j == v) for j, e in enumerate(b))
            for b in degrees[:4]
            for v in range(i.ambient)
        ]
        for exps in degrees:
            b = Monomial(exps)
            assert upper_koszul_complex(i, b) == koszul_by_definition(i, b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(*([st.integers(0, 2)] * 4)), min_size=1, max_size=4),
    st.tuples(*([st.integers(0, 3)] * 4)),
)
def test_upper_koszul_matches_definition_on_random_ideals(gens, b):
    i = minimalize([Monomial(g) for g in gens], ambient=4)
    assert upper_koszul_complex(i, Monomial(b)) == koszul_by_definition(
        i, Monomial(b)
    )


def test_upper_koszul_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        upper_koszul_complex(ideal(["x1*x2"], 3), m("x1", 4))


# ---------------------------------------------------------------- lcm lattice


def test_lcm_lattice_anchor():
    i = ideal(["x1*x2", "x2*x3"], 3)
    got = {g.exponents for g in lcm_lattice(i)}
    assert got == {(1, 1, 0), (0, 1, 1), (1, 1, 1)}


def test_lcm_lattice_trivia():
    assert lcm_lattice(MonomialIdeal(4, ())) == []
    assert lcm_lattice(ideal(["x1^2*x2"], 3)) == [m("x1^2*x2", 3)]


def test_lcm_lattice_cap():
    i = ideal(["x1*x2", "x2*x3"], 3)
    with pytest.raises(SizeCapExceededError):
        lcm_lattice(i, cap=2)


def test_lcm_lattice_closed_under_joins():
    i = power(6, 2, 2)
    lat = {g.exponents for g in lcm_lattice(i)}
    pts = [np.array(e) for e in lat]
    for a in pts[:20]:
        for b in pts[:20]:
            assert tuple(np.maximum(a, b)) in lat


# ---------------------------------------------------------------- Betti tables


def test_betti_anchor_edge_path_three_vertices():
    table = betti_table(ideal(["x1*x2", "x2*x3"], 3))
    assert table.entries == {
        (0, (1, 1, 0)): 1,
        (0, (0, 1, 1)): 1,
        (1, (1, 1, 1)): 1,
    }
    assert table.totals() == {0: 2, 1: 1}
    assert table.graded() == {(0, 2): 2, (1, 3): 1}
    assert table.quotient_regularity() == 1
    assert table.quotient_projective_dimension() == 2
    assert table.is_linear()


def test_betti_anchor_edge_path_four_vertices():
    table = betti_table(path_ideal(PathIdealSpec(4, 2)))
    assert table.totals() == {0: 3, 1: 2}
    assert table.quotient_regularity() == 1
    assert table.quotient_projective_dimension() == 2
    assert table.is_linear()


def test_betti_koszul_complex_of_variables():
    table = betti_table(ideal(["x1", "x2", "x3"], 3))
    assert table.totals() == {0: 3, 1: 3, 2: 1}
    assert table.quotient_regularity() == 0
    assert table.quotient_projective_dimension() == 3


def test_betti_principal_ideal():
    table = betti_table(ideal(["x1^2*x2"], 3))
    assert table.totals() == {0: 1}
    assert table.quotient_regularity() == 2
    assert table.quotient_projective_dimension() == 1


def test_betti_zero_ideal():
    table = betti_table(MonomialIdeal(3, ()))
    assert table.is_empty()
    with pytest.raises(ValueError):
        table.quotient_regularity()
    with pytest.raises(ValueError):
        table.max_index()


def test_betti_row_zero_matches_generators():
    for i in [power(5, 3, 2), power(4, 2, 2), ideal(["x1^2", "x2^3", "x1*x2"], 2)]:
        got = {b for (idx, b) in betti_table(i).entries if idx == 0}
        assert got == {g.exponents for g in i.generators}


def test_betti_matches_public_route_on_path_powers():
    for n, t, s in [(4, 2, 1), (5, 3, 2), (5, 2, 2), (7, 3, 1), (6, 3, 2)]:
        i = power(n, t, s)
        for p in (2, 3):
            fast = betti_table(i, FieldSpec(p))
            assert fast.entries == betti_via_public_route(i, p)
    for gens, ambient in OFF_PATH_IDEALS:
        i = ideal(gens, ambient)
        assert len(set(i.generator_degrees())) > 1
        for p in (2, 3):
            fast = betti_table(i, FieldSpec(p))
            assert fast.max_index() >= 2
            assert fast.entries == betti_via_public_route(i, p)


def test_betti_lattice_cap():
    with pytest.raises(SizeCapExceededError):
        betti_table(power(6, 2, 2), lattice_cap=5)


def test_quotient_helpers_reject_zero_ideal():
    z = MonomialIdeal(3, ())
    with pytest.raises(ValueError):
        regularity_of_quotient(z)
    with pytest.raises(ValueError):
        projective_dimension_of_quotient(z)


def test_regularity_anchors():
    assert regularity_of_quotient(ideal(["x1*x2", "x2*x3"], 3)) == 1
    assert regularity_of_quotient(ideal(["x1"], 3)) == 0
    assert regularity_of_quotient(power(4, 2, 2)) == 3


def test_projective_dimension_anchors():
    assert projective_dimension_of_quotient(ideal(["x1*x2", "x2*x3"], 3)) == 2
    assert projective_dimension_of_quotient(ideal(["x1"], 3)) == 1
    assert projective_dimension_of_quotient(power(5, 3, 2)) == 3


def test_has_linear_resolution_anchors(caplog):
    assert has_linear_resolution(power(5, 3, 1))
    assert not has_linear_resolution(power(7, 3, 1))
    assert has_linear_resolution(MonomialIdeal(3, ()))
    with caplog.at_level("WARNING"):
        assert not has_linear_resolution(ideal(["x1", "x2*x3"], 3))
    assert "mixed" in caplog.text


def test_field_stability_on_a_nonlinear_case():
    i = power(7, 3, 1)
    for p in (2, 3):
        fs = FieldSpec(p)
        assert regularity_of_quotient(i, fs) == 4
        assert projective_dimension_of_quotient(i, fs) == 3
        assert not has_linear_resolution(i, fs)


def test_fieldspec_requires_prime():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    assert GF2.characteristic == 2


def test_fieldspec_bounds_characteristic():
    # 4294967311 is prime, but (p-1)^2 overflows gfp_rank's int64 products.
    with pytest.raises(ValueError, match="2\\^31"):
        FieldSpec(4294967311)
    with pytest.raises(ValueError, match="2\\^31"):
        gfp_rank(np.eye(2, dtype=np.int64), 4294967311)
    # The largest accepted prime: random 4x4 products of a 4x3 and a 3x4
    # matrix have rank 3 over it.
    p = FieldSpec(2147483647).characteristic
    rng = random.Random(3)
    for _ in range(200):
        a = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
        c = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        prod = [
            [sum(x * y for x, y in zip(row, col)) % p for col in zip(*c)]
            for row in a
        ]
        assert gfp_rank(np.array(prod, dtype=np.int64), p) == 3


# ---------------------------------------------------------------- serialization


def test_betti_table_round_trip():
    table = betti_table(power(5, 3, 2))
    assert BettiTable.from_dict(table.to_dict()) == table


def test_betti_table_from_dict_rejects_corruption():
    data = betti_table(ideal(["x1*x2", "x2*x3"], 3)).to_dict()
    bad = dict(data)
    bad["graded"] = []
    with pytest.raises(ValueError):
        BettiTable.from_dict(bad)
    bad = dict(data)
    bad["entries"] = data["entries"] + [data["entries"][0]]
    with pytest.raises(ValueError):
        BettiTable.from_dict(bad)
    bad = dict(data)
    bad["entries"] = [{**data["entries"][0], "rank": 0}]
    with pytest.raises(ValueError):
        BettiTable.from_dict(bad)


def test_betti_table_str_is_a_grid():
    text = str(betti_table(ideal(["x1*x2", "x2*x3"], 3)))
    assert "j\\i" in text and "2" in text
    assert str(betti_table(MonomialIdeal(2, ()))) == "empty Betti table"


def test_is_linear_rejects_mixed_degrees():
    table = BettiTable(2, 2, {(0, (1, 0)): 1, (0, (0, 2)): 1})
    assert not table.is_linear()


# ---------------------------------------------------------------- property


small_monomial = st.tuples(*([st.integers(0, 2)] * 4)).map(Monomial)


@settings(max_examples=30, deadline=None)
@given(st.lists(small_monomial, min_size=1, max_size=4), st.sampled_from([2, 3]))
def test_fast_table_matches_public_route_on_random_ideals(gens, p):
    i = minimalize(gens, ambient=4)
    if i.is_zero() or any(g.is_unit() for g in i.generators):
        return
    assert betti_table(i, FieldSpec(p)).entries == betti_via_public_route(i, p)
