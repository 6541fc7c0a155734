"""Homological oracle: ranks, complexes, lcm lattices, Betti tables."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pathideal.cache as cache_mod
from pathideal.cache import BettiCache
from pathideal.errors import SizeCapExceededError
import pathideal.oracle as oracle_mod
import pathideal.verify as verify_mod
from pathideal.monomials import Monomial, MonomialIdeal, minimalize
from pathideal.oracle import (
    GF2,
    FieldSpec,
    _batch_homology,
    _critical_counts,
    _face_indicators,
    _facet_pairs,
    _lcm_lattice_encoded,
    _shift_closed,
    _unique,
    _vertex_degrees,
    betti_table,
    betti_tables,
    gf2_rank,
    gfp_rank,
    lcm_lattice,
)
from pathideal.path_ideals import PathIdealSpec, line_graph_generators, path_ideal
from pathideal.verify import SweepConfig, run_sweep, sweep_cells
from support import (
    betti_via_public_route,
    contains,
    critical_counts_by_bools,
    entry_writes_checked,
    face_indicators_by_bools,
    faces_of_words,
    from_faces,
    ideal,
    koszul_by_definition,
    lcm_lattice_by_definition,
    m,
    mirror_half_by_definition,
    power,
    reduced_homology,
    table_of,
    vertex_degrees_by_bools,
    words_of_faces,
)


# Small mixed-degree, non-squarefree ideals with syzygies beyond i = 1.
OFF_PATH_IDEALS = [
    (["x1^2", "x1*x2*x3", "x2^2*x4", "x3^3", "x4^2*x1"], 4),
    (["x1^3", "x1*x2", "x2^2*x3", "x3*x4^2", "x4^3"], 4),
    (["x1^2*x2", "x1*x3^2", "x2^2*x3", "x4^3", "x2*x4", "x1*x2*x3*x5"], 5),
]


# Minimal 6-vertex triangulation of the projective plane: its homology over
# GF(2) differs from GF(3), so the field matters end to end.
RP2_TRIANGLES = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


def koszul_by_fast_path(i: MonomialIdeal, b: Monomial) -> set[tuple[int, ...]]:
    """The faces of K^b as betti_table builds them, with 1-based labels."""
    G = np.array([g.exponents for g in i.generators], dtype=np.int64)
    labels = [j + 1 for j, e in enumerate(b.exponents) if e]
    row, facets = _facet_pairs(G, np.array([b.exponents]))
    ind = faces_of_words(_face_indicators(1, row, facets, len(labels)))[0]
    return {
        tuple(v for j, v in enumerate(labels) if face >> j & 1)
        for face in np.flatnonzero(ind).tolist()
    }


def pruned_walk(i: MonomialIdeal) -> list[tuple[int, ...]]:
    """The lattice walk as betti_table runs it, dropping full simplices."""
    G = np.array([g.exponents for g in i.generators], dtype=np.int64)
    lat = _lcm_lattice_encoded(G, 10**6, prune=True)
    return [tuple(b) for b in lat.tolist()]


def non_full_lattice(i: MonomialIdeal, lattice=None) -> list[tuple[int, ...]]:
    """Points of the lattice (lcm_lattice's by default) whose K^b is not full.

    That is b = 0 (K^0 is {empty face}) or x^b / x^supp(b) outside I.
    """
    if lattice is None:
        lattice = [b.exponents for b in lcm_lattice(i)]
    return [
        b for b in lattice
        if not any(b) or not contains(i, Monomial(tuple(max(e - 1, 0) for e in b)))
    ]


def random_ideal(rng: random.Random, ambient: int, top: int, count: int) -> MonomialIdeal:
    """At most count random minimal generators, largest exponent exactly top."""
    while True:
        rows = [
            [rng.choice((0, 0, rng.randint(1, top))) for _ in range(ambient)]
            for _ in range(count)
        ]
        rows[0][rng.randrange(ambient)] = top
        i = minimalize([Monomial(tuple(r)) for r in rows], ambient=ambient)
        if max(max(g.exponents) for g in i.generators) == top:
            return i


def symmetric_ideal(rng: random.Random, ambient: int, top: int, count: int,
                    shift: bool, mirror: bool) -> MonomialIdeal:
    """count random exponent patterns with nonzero ends, entries at most top.

    Each is placed at every offset it fits when shift, else at one random
    offset, and each placement is reversed too when mirror: the generator
    set is then closed under translation, reversal or both.
    """
    rows = []
    for _ in range(count):
        width = rng.randint(1, ambient)
        ends = [rng.randint(1, top) for _ in range(min(width, 2))]
        pattern = ends[:1] + [rng.randint(0, top) for _ in range(width - 2)] + ends[1:]
        fits = ambient - width
        for at in range(fits + 1) if shift else [rng.randint(0, fits)]:
            row = (0,) * at + tuple(pattern) + (0,) * (fits - at)
            rows += [row, row[::-1]] if mirror else [row]
    return minimalize([Monomial(r) for r in rows], ambient=ambient)


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
    cx = from_faces([(1, 2), (1, 3), (2, 3)])
    assert cx == {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}


def test_from_faces_void_and_empty():
    assert from_faces([]) == set()
    assert from_faces([()]) == {()}


def test_homology_contractible_cases():
    assert reduced_homology(from_faces([(1,)])) == [0, 0]
    assert reduced_homology(from_faces([(1, 2, 3)])) == [0, 0, 0, 0]


def test_homology_two_points():
    cx = from_faces([(1,), (3,)])
    assert reduced_homology(cx) == [0, 1]
    assert reduced_homology(cx, 3) == [0, 1]


def test_homology_empty_face_only():
    assert reduced_homology({()}) == [1]


def test_homology_void():
    assert reduced_homology(set()) == []


def test_homology_circle():
    cx = from_faces([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert reduced_homology(cx) == [0, 0, 1]
    assert reduced_homology(cx, 5) == [0, 0, 1]


def test_homology_projective_plane_depends_on_characteristic():
    cx = from_faces(RP2_TRIANGLES)
    assert reduced_homology(cx, 2) == [0, 0, 1, 1]
    assert reduced_homology(cx, 3) == [0, 0, 0, 0]


# ---------------------------------------------------------------- upper Koszul


def test_upper_koszul_anchor():
    i = ideal(["x1*x2", "x2*x3"], 3)
    b = m("x1*x2*x3", 3)
    cx = koszul_by_definition(i, b)
    assert cx == {(), (1,), (3,)}
    assert koszul_by_fast_path(i, b) == cx
    assert reduced_homology(cx) == [0, 1]


def test_upper_koszul_at_generator():
    i = ideal(["x1*x2", "x2*x3"], 3)
    cx = koszul_by_definition(i, m("x1*x2", 3))
    assert cx == {()}
    assert reduced_homology(cx) == [1]


def test_upper_koszul_outside_ideal_is_void():
    i = ideal(["x1*x2", "x2*x3"], 3)
    assert koszul_by_definition(i, m("x1", 3)) == set()
    assert koszul_by_fast_path(i, m("x1", 3)) == set()
    assert koszul_by_definition(MonomialIdeal(3, ()), m("x1", 3)) == set()


def test_upper_koszul_off_lattice_degree_is_contractible():
    i = ideal(["x1*x2", "x2*x3"], 3)
    cx = koszul_by_definition(i, m("x1^2*x2", 3))
    assert reduced_homology(cx) == [0, 0]


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
            assert koszul_by_fast_path(i, b) == koszul_by_definition(i, b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(*([st.integers(0, 2)] * 4)), min_size=1, max_size=4),
    st.tuples(*([st.integers(0, 3)] * 4)),
)
def test_upper_koszul_matches_definition_on_random_ideals(gens, b):
    i = minimalize([Monomial(g) for g in gens], ambient=4)
    assert koszul_by_fast_path(i, Monomial(b)) == koszul_by_definition(
        i, Monomial(b)
    )


def facet_pairs_by_definition(G, lat) -> list[tuple[int, int]]:
    """(row, facet) for each row b of lat and generator g dividing x^b, in order."""
    pairs = []
    for r, b in enumerate(lat):
        support = [j for j, e in enumerate(b) if e]
        for g in G:
            if all(x <= e for x, e in zip(g, b)):
                facet = sum(1 << i for i, j in enumerate(support) if g[j] < b[j])
                pairs.append((r, facet))
    return pairs


def facet_pairs(G, lat) -> list[tuple[int, int]]:
    row, facets = _facet_pairs(np.asarray(G), np.asarray(lat))
    assert row.dtype == facets.dtype == np.uint32
    return list(zip(row.tolist(), facets.tolist()))


def test_facet_pairs_match_the_definition_at_support_24():
    rng = random.Random(24)
    n = 27
    lat = [[rng.randint(1, 3) for _ in range(n)] for _ in range(6)]
    for b in lat:
        for j in rng.sample(range(n), n - 24):
            b[j] = 0
    # Generators below a row of lat; every fourth one, and every one made
    # from the last row, is raised above it in one position.
    G = []
    for r in range(42):
        g = [rng.randint(0, e) for e in lat[r % 6]]
        if r % 4 == 0 or r % 6 == 5:
            g[rng.randrange(n)] += 4
        G.append(g)
    # The generator below lat[0] everywhere but its last support position.
    last = max(j for j in range(n) if lat[0][j])
    G.append([e if j == last else max(e - 1, 0) for j, e in enumerate(lat[0])])
    got = facet_pairs(np.array(G, dtype=np.uint8), np.array(lat, dtype=np.uint8))
    assert all(len([j for j in range(n) if b[j]]) == 24 for b in lat)
    assert got == facet_pairs_by_definition(G, lat)
    # Rows 0..4 have pairs; no generator divides the last row.
    assert sorted({r for r, _ in got}) == [0, 1, 2, 3, 4]
    assert got[[r for r, _ in got].index(1) - 1] == (0, (1 << 24) - 1 - (1 << 23))
    assert max(f for _, f in got) >> 23 == 1
    # One more support position is refused before any facet is built.
    wide = np.array([[1] * 25 + [0, 0]], dtype=np.uint8)
    with pytest.raises(SizeCapExceededError) as refused:
        _facet_pairs(np.array(G, dtype=np.uint8), wide)
    assert refused.value.count == 25


@pytest.mark.parametrize(
    "ambient, top, dtype",
    [(8, 4, np.uint32), (9, 4, np.int64), (21, 3, np.int64),
     (16, 4, object), (64, 1, object)],
)
def test_facet_pairs_match_the_definition_in_every_code_type(
    monkeypatch, ambient, top, dtype
):
    # The pairs come from unary codes of ambient * top bits: uint32 up to
    # 32, int64 below 64 and Python ints from 64 on.
    dtypes, unary = set(), oracle_mod._unary_codes

    def spy(rows, w):
        dtypes.add(unary(rows, w).dtype)
        return unary(rows, w)

    monkeypatch.setattr(oracle_mod, "_unary_codes", spy)
    rng = random.Random(ambient * top)
    for count in range(1, 7):
        i = random_ideal(rng, ambient, top, count)
        G = [g.exponents for g in i.generators]
        lat = pruned_walk(i)[:60] + [
            tuple(rng.choice((0, 0, 0, rng.randint(1, top))) for _ in range(ambient))
            for _ in range(20)
        ]
        lat = [b for b in lat if np.count_nonzero(b) <= oracle_mod._MAX_SUPPORT]
        assert facet_pairs(G, lat) == facet_pairs_by_definition(G, lat)
    assert dtypes == {np.dtype(dtype)}


def test_facet_pairs_on_zero_columns_and_the_unit_ideal():
    # x2 and x4 appear in no generator and no lattice point.
    i = ideal(["x1^2*x3", "x1*x3^3*x5", "x5^2", "x1^3"], 5)
    G = [g.exponents for g in i.generators]
    lat = pruned_walk(i) + [(0,) * 5, (1, 0, 1, 0, 0)]
    got = facet_pairs(G, lat)
    assert got == facet_pairs_by_definition(G, lat)
    # (0, ..., 0) and x1*x3 are outside I: they have no pair.
    assert {r for r, _ in got} == set(range(len(lat) - 2))
    # The unit ideal: its one generator divides everything, with the full facet.
    for ambient in (1, 3):
        lat = [(0,) * ambient, (2,) + (0,) * (ambient - 1), (1,) * ambient]
        got = facet_pairs([(0,) * ambient], lat)
        assert got == [(0, 0), (1, 1), (2, (1 << ambient) - 1)]


def test_face_indicators_close_the_facets_downwards():
    rng = random.Random(8)
    for k in range(11):
        rows, q = 5, 4
        facets = [[rng.randrange(1 << k) for _ in range(q)] for _ in range(rows)]
        facets[1] = facets[1][:1]  # one facet
        facets[3] = []  # no generator divides: the void complex
        facets[4] = [0] * q  # only the empty face
        row = np.array([r for r in range(rows) for _ in facets[r]])
        flat = np.array([f for fs in facets for f in fs], dtype=np.uint32)
        words = _face_indicators(rows, row, flat, k)
        assert words.shape == (rows, max(1, (1 << k) // 64)) and words.dtype == "<u8"
        ind = faces_of_words(words)
        for r in range(rows):
            want = [
                f < 1 << k and any(f & ~F == 0 for F in facets[r])
                for f in range(ind.shape[1])
            ]
            assert ind[r].tolist() == want
        assert not ind[3].any()
        assert ind[4].tolist() == [True] + [False] * (ind.shape[1] - 1)
    # No pairs at all: every row is void.
    none = _face_indicators(3, np.array([], dtype=np.intp), np.array([], np.uint32), 4)
    assert none.shape == (3, 1) and not none.any()


# ---------------------------------------------------------------- batched homology


def indicators(complexes, k: int) -> np.ndarray:
    """Face indicators of complexes on vertices 0..k-1, as _face_indicators makes them."""
    ind = np.zeros((len(complexes), 1 << k), dtype=bool)
    for r, faces in enumerate(complexes):
        for f in faces:
            ind[r, sum(1 << v for v in f)] = True
    return words_of_faces(ind)


def rank_spy(monkeypatch) -> list:
    """Record the result of every _homology_dims call, the rank route."""
    calls, real = [], oracle_mod._homology_dims

    def spy(cells, p):
        calls.append(real(cells, p))
        return calls[-1]

    monkeypatch.setattr(oracle_mod, "_homology_dims", spy)
    return calls


def test_batch_homology_matches_the_reference_on_random_complexes(monkeypatch):
    calls, settled = rank_spy(monkeypatch), 0
    for k in range(7):
        rng = random.Random(k)
        complexes = [
            from_faces(
                rng.sample(range(k), rng.randint(0, min(k, 3)))
                for _ in range(rng.randint(1, 2 * k + 1))
            )
            for _ in range(150)
        ]
        if k == 6:
            complexes.append(from_faces((v - 1 for v in f) for f in RP2_TRIANGLES))
        for p in (2, 3):
            got = {}
            for r, c, h in _batch_homology(indicators(complexes, k), k, p):
                got.setdefault(r, {})[c] = h
            for r, cx in enumerate(complexes):
                want = {c: h for c, h in enumerate(reduced_homology(cx, p)) if h}
                assert got.get(r, {}) == want
            settled += len(got)
    # Both routes ran: matching settles most complexes, a few are ranked.
    assert 0 < 10 * len(calls) < settled


def test_vertex_degrees_count_the_faces_through_each_vertex():
    rng = random.Random(3)
    for k in (3, 4, 7):
        ind = rng.choices([False, True], k=5 << k)
        ind = np.array(ind, dtype=bool).reshape(5, 1 << k)
        deg, faces = _vertex_degrees(words_of_faces(ind), k)
        assert faces.tolist() == np.count_nonzero(ind, axis=1).tolist()
        assert deg.tolist() == [
            [sum(int(ind[r, f]) for f in range(1 << k) if f >> v & 1) for v in range(k)]
            for r in range(5)
        ]


def test_batch_homology_of_cones_and_of_no_rows(monkeypatch):
    calls = rank_spy(monkeypatch)
    cones = [
        from_faces([(0,)]),
        from_faces([(0, 1, 2)]),
        from_faces([(0, 1), (1, 2)]),
        from_faces([(0, 1, 2), (0, 3), (0, 4, 5)]),
    ]
    assert list(_batch_homology(indicators(cones[:1], 1), 1, 2)) == []
    assert list(_batch_homology(indicators(cones, 6), 6, 2)) == []
    for k in (0, 2, 3, 5):
        assert list(_batch_homology(indicators([], k), k, 3)) == []
    assert _critical_counts(np.zeros((0, 1), dtype="<u8"), 4).shape == (0, 5)
    assert calls == []


def test_the_cone_filter_only_saves_work():
    # _batch_homology drops the cones before matching them; matched, a cone
    # leaves no critical face, so the filter changes no table.
    rng = random.Random(30)
    for k in range(1, 11):
        facets = []
        for _ in range(60):
            apex = 1 << rng.randrange(k)
            facets.append([apex | sum(1 << v for v in rng.sample(range(k), rng.randint(0, k)))
                           for _ in range(rng.randint(1, 2 * k))])
        rows = len(facets)
        row = np.array([r for r in range(rows) for _ in facets[r]], dtype=np.intp)
        flat = np.array([f for fs in facets for f in fs], dtype=np.uint32)
        words = _face_indicators(rows, row, flat, k)
        deg, faces = _vertex_degrees(words, k)
        assert (faces == 2 * deg.max(axis=1)).all()  # each is a cone to the filter
        assert not _critical_counts(words, k).any()


def test_bit_kernels_match_the_bool_reference_on_random_complexes(monkeypatch):
    # k < 6 exercises the 64-face floor and the in-word vertices, k > 6 the
    # vertices 2^(v-6) words apart; RP^2 on the top six vertices is ranked,
    # through the unpacked closed-star quotient.
    calls = rank_spy(monkeypatch)
    rp2 = [[sum(1 << (v - 1) for v in t) for t in RP2_TRIANGLES]]
    for k in range(11):
        rng = random.Random(100 + k)
        facets = [[], [0]]  # the void complex and {empty face}
        facets += [
            [sum(1 << v for v in rng.sample(range(k), rng.randint(0, min(k, 4))))
             for _ in range(rng.randint(1, 2 * k + 1))]
            for _ in range(40)
        ]
        if k >= 6:
            facets += [[f << (k - 6) for f in fs] for fs in rp2]
        rows = len(facets)
        row = np.array([r for r in range(rows) for _ in facets[r]], dtype=np.intp)
        flat = np.array([f for fs in facets for f in fs], dtype=np.uint32)
        words = _face_indicators(rows, row, flat, k)
        ind = faces_of_words(words)
        want = face_indicators_by_bools(rows, row, flat, k)
        assert np.array_equal(ind[:, : 1 << k], want) and not ind[:, 1 << k :].any()
        assert not want[0].any() and want[1].tolist() == [True] + [False] * ((1 << k) - 1)
        deg, faces = _vertex_degrees(words, k)
        want_deg, want_faces = vertex_degrees_by_bools(want, k)
        assert deg.shape == (rows, max(1, k)) and not deg[:, k:].any()
        assert np.array_equal(deg[:, :k], want_deg) and np.array_equal(faces, want_faces)
        crit = _critical_counts(words.copy(), k)
        assert np.array_equal(crit, critical_counts_by_bools(want, k))
        complexes = [
            {tuple(v for v in range(k) if f >> v & 1) for f in np.flatnonzero(w).tolist()}
            for w in want
        ]
        for p in (2, 3):
            got = {}
            for r, c, h in _batch_homology(words, k, p):
                got.setdefault(r, {})[c] = h
            for r, cx in enumerate(complexes):
                assert got.get(r, {}) == {c: h for c, h in enumerate(reduced_homology(cx, p)) if h}
            if k >= 6:  # RP^2: H~_1 = H~_2 = GF(2), nothing over GF(3)
                assert got.get(rows - 1, {}) == ({2: 1, 3: 1} if p == 2 else {})
    assert calls  # the ranked route ran


# ---------------------------------------------------------------- merged batches


def test_batch_rows_merge_small_sizes_and_cut_large_ones(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_CHUNK_BYTES", 1 << 12)  # 1,024 B a batch
    monkeypatch.setattr(oracle_mod, "_MERGE_BYTES", 1 << 9)
    sizes = {0: 5, 3: 10, 5: 12, 6: 3, 7: 20, 9: 1}
    ks = np.array([k for k, count in sizes.items() for _ in range(count)])
    batches = list(oracle_mod._batch_rows(ks))
    # Consecutive slices that cover the rows.
    assert [lo for lo, _, _ in batches] == [0] + [hi for _, hi, _ in batches[:-1]]
    assert batches[-1][1] == ks.size
    got = [(ks[lo:hi].tolist(), k) for lo, hi, k in batches]
    assert got == [
        ([0] * 5 + [3] * 10, 3),  # 15 rows of 8 B
        ([5] * 12, 5),  # 384 B: with the 3 rows of size 6, 960 B > 512 B
        ([6] * 3, 6),
        ([7] * 8, 7),  # 20 rows of 128 B do not fit: 8 to a batch
        ([7] * 8, 7),
        ([7] * 4, 7),
        ([9], 9),  # 512 B fit, alone
    ]
    monkeypatch.setattr(oracle_mod, "_MERGE_BYTES", 0)
    assert [k for _, _, k in oracle_mod._batch_rows(ks)] == [0, 3, 5, 6, 7, 7, 7, 9]
    assert list(oracle_mod._batch_rows(ks[:0])) == []


def test_batch_rows_cut_small_supports_at_their_scratch_array():
    # _face_indicators marks the facets of a row in max(64, 2^k) bytes, so a
    # run of one support size k <= 3 is cut at that many bytes a row, not 2^k.
    ks = np.full(600_000, 3)
    batches = list(oracle_mod._batch_rows(ks))
    assert [lo for lo, _, _ in batches] == [0] + [hi for _, hi, _ in batches[:-1]]
    assert batches[-1][1] == ks.size and {k for _, _, k in batches} == {3}
    assert max(hi - lo for lo, hi, _ in batches) * 64 <= oracle_mod._CHUNK_BYTES // 4


def face_indicator_spy(monkeypatch) -> list:
    """Record (row, facets, k) of every _face_indicators call."""
    calls = []

    def spy(rows, row, facets, k):
        calls.append((row, facets, k))
        return _face_indicators(rows, row, facets, k)

    monkeypatch.setattr(oracle_mod, "_face_indicators", spy)
    return calls


@pytest.mark.parametrize("floor", ["default", 0, "chunk"])
def test_koszul_batches_pad_rows_without_adding_faces(monkeypatch, floor):
    if floor != "default":
        merge = oracle_mod._CHUNK_BYTES if floor == "chunk" else floor
        monkeypatch.setattr(oracle_mod, "_MERGE_BYTES", merge)
    calls = face_indicator_spy(monkeypatch)
    # Support sizes 2..9, 8 to 423 points each.  The default floor merges
    # sizes 2..6 into 44 KiB; size 7 (54 KiB) fits alone, and 8 and 9 (over
    # 64 KiB each) take batches of their own.
    i = power(9, 2, 2)
    G = np.array([g.exponents for g in i.generators], dtype=np.int64)
    lat = _lcm_lattice_encoded(G, 10**6, prune=True)
    ks = np.count_nonzero(lat, axis=1)
    order = np.argsort(ks, kind="stable")  # sorted by support, as betti_tables sorts a walk
    lat, ks = lat[order], ks[order]
    oracle_mod._pooled_homology([(lat, ks, *_facet_pairs(G, lat))], 2)
    spans = list(oracle_mod._batch_rows(ks))
    assert len(spans) == len(calls)
    batches = [(lat[lo:hi], _face_indicators(hi - lo, row, facets, k), widest)
               for (lo, hi, widest), (row, facets, k) in zip(spans, calls)]
    # Every row is batched exactly once.
    rows = np.concatenate([part for part, _, _ in batches])
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, lat.tolist()))
    mixed = 0
    for (part, words, widest), (row, facets, k) in zip(batches, calls):
        sizes = np.count_nonzero(part, axis=1)
        width = max(8, 1 << k)
        assert int(sizes.max()) == widest == k
        assert words.shape == (len(part), max(1, (1 << k) // 64))
        ind = faces_of_words(words)
        # Within the per-k row budget of its widest k ...
        assert len(part) <= max(1, (oracle_mod._CHUNK_BYTES >> 2) // width)
        # ... and mixing sizes only below the floor.
        if sizes.min() < k:
            mixed += 1
            assert len(part) * width <= oracle_mod._MERGE_BYTES
        # A chunk's rows are sorted by support size, so a batch is a slice.
        assert sizes.tolist() == sorted(sizes.tolist())
        for r, size in enumerate(sizes.tolist()):
            # No face outside the row's own support, the same faces within it.
            assert not ind[r, 1 << size :].any()
            mine = row == r
            alone = faces_of_words(_face_indicators(1, row[mine] - r, facets[mine], size))[0]
            assert ind[r, : 1 << size].tolist() == alone[: 1 << size].tolist()
    assert len(batches) == {"default": 4, 0: 8, "chunk": 1}[floor]
    assert mixed == (floor != 0)


FLOORS = (0, oracle_mod._MERGE_BYTES, oracle_mod._CHUNK_BYTES)


def tables_by_floor(i: MonomialIdeal, p: int) -> list[dict]:
    """betti_table(i) over GF(p) with _MERGE_BYTES at each of FLOORS."""
    with pytest.MonkeyPatch.context() as patch:
        tables = []
        for floor in FLOORS:
            patch.setattr(oracle_mod, "_MERGE_BYTES", floor)
            tables.append(betti_table(i, FieldSpec(p)).to_dict())
    return tables


def test_tables_do_not_depend_on_the_merge_floor():
    # Path powers take the translation and mirror route; I^s + (u_j, ...)
    # is closed under neither and takes the general one.
    ideals = [power(n, t, s) for n, t, s in [(8, 2, 3), (9, 3, 2), (10, 2, 2), (7, 4, 1)]]
    for n, t, s in [(7, 2, 2), (8, 3, 2)]:
        for j in range(2, n - t + 2):
            i = augmented(n, t, s, j)
            assert not _shift_closed(i.exponents)
            ideals.append(i)
    for i in ideals:
        for p in (2, 3):
            first, *rest = tables_by_floor(i, p)
            assert rest == [first] * len(rest)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(*([st.integers(0, 2)] * 6)).map(Monomial), min_size=1, max_size=6),
    st.sampled_from([2, 3]),
)
def test_random_tables_do_not_depend_on_the_merge_floor(gens, p):
    first, *rest = tables_by_floor(minimalize(gens, ambient=6), p)
    assert rest == [first] * len(rest)


def test_default_grid_settles_in_141_batches(tmp_path, monkeypatch):
    # Pins the pooling of a sweep's tables and the merge of small support
    # sizes: a --jobs 1 sweep settles the grid's 121 tables in one oracle
    # pass of 6 batches.  One table at a time they take 141, and with one
    # batch per support size, as _MERGE_BYTES = 0 gives, 566.
    ideals, batches = [], []
    real_tables, real_homology = verify_mod.cached_betti_tables, oracle_mod._batch_homology

    def tables_spy(given, *args):
        given = list(given)
        ideals.extend(given)
        return real_tables(given, *args)

    def homology_spy(words, k, p):
        batches.append(len(words))
        return real_homology(words, k, p)

    monkeypatch.setattr(verify_mod, "cached_betti_tables", tables_spy)
    monkeypatch.setattr(oracle_mod, "_batch_homology", homology_spy)
    run_sweep(SweepConfig(cache_dir=str(tmp_path / "cache")))
    assert (len(ideals), len(batches)) == (121, 6)
    batches.clear()
    for i in ideals:
        betti_table(i)
    assert len(batches) == 141
    batches.clear()
    monkeypatch.setattr(oracle_mod, "_MERGE_BYTES", 0)
    for i in ideals:
        betti_table(i)
    assert len(batches) == 566


# ---------------------------------------------------------------- pooled tables


def grid_ideals(cfg: SweepConfig) -> dict:
    """{cell: the ideals of the tables a sweep settles for it}, first p only."""
    out = {}
    for cell in sweep_cells(cfg):
        state = verify_mod._CellState(*cell, None, cfg.power_cap, cfg.lattice_cap)
        keys = dict.fromkeys(state._table_key(*q.table)
                             for q in verify_mod._quantities(cfg, *cell) if q.table)
        out[cell] = [state._table_ideal(key) for key in keys]
    return out


def test_betti_tables_match_each_ideal_alone_on_the_default_grid():
    cfg = SweepConfig()
    by_cell = grid_ideals(cfg)
    every = [i for ideals in by_cell.values() for i in ideals]
    assert len(every) == 121
    alone = {id(i): betti_table(i) for i in every}
    shares = verify_mod._shares(dataclasses.replace(cfg, jobs=2), sweep_cells(cfg))
    lists = [every, *by_cell.values()]
    lists += [[i for cell in share for i in by_cell[cell]] for share in shares]
    for ideals in lists:
        assert betti_tables(ideals) == [alone[id(i)] for i in ideals]


def chunk_owners(monkeypatch) -> list[set]:
    """Spy: the set of ideals, numbered in walk order, of each pool's chunks."""
    gens, owner, pools = [], {}, []  # gens keeps each G alive, so its id stays its own
    real_pairs, real_pool = oracle_mod._facet_pairs, oracle_mod._pooled_homology

    def pairs(G, part):  # part is the chunk's rows, which the pool holds
        if not any(G is seen for seen in gens):
            gens.append(G)
        owner[id(part)] = next(at for at, seen in enumerate(gens) if G is seen)
        return real_pairs(G, part)

    def pooled(pool, p):
        pools.append({owner[id(part)] for part, *_ in pool})
        return real_pool(pool, p)

    monkeypatch.setattr(oracle_mod, "_facet_pairs", pairs)
    monkeypatch.setattr(oracle_mod, "_pooled_homology", pooled)
    return pools


def test_a_pool_spans_ideal_boundaries(monkeypatch):
    # With a small chunk budget the larger ideals take several chunks and
    # the smaller ones share pools, so a pool holds parts of several ideals.
    ideals = [i for ideals in grid_ideals(SweepConfig(n_max=7, s_max=2)).values()
              for i in ideals]
    alone = [betti_table(i) for i in ideals]
    monkeypatch.setattr(oracle_mod, "_CHUNK_BYTES", 1 << 14)
    pools = chunk_owners(monkeypatch)
    for p, want in [(2, alone), (3, [betti_table(i, FieldSpec(3)) for i in ideals])]:
        pools.clear()
        assert betti_tables(ideals, FieldSpec(p)) == want
        assert any(len(owners) > 1 for owners in pools)
        spans = Counter(slot for owners in pools for slot in owners)
        assert max(spans.values()) > 1


ZERO_AND_UNIT = [MonomialIdeal(4, ()), minimalize([Monomial((0, 0))], ambient=2)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(1, 6).flatmap(lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=5))),
        min_size=1, max_size=6,
    ),
    st.sampled_from([2, 3]),
    st.sampled_from([None, 1 << 10]),
    st.integers(0, 6),
)
def test_betti_tables_match_each_ideal_alone_on_random_ideals(specs, p, chunk, at):
    ideals = [minimalize([Monomial(g) for g in gens], ambient=n) for n, gens in specs]
    ideals[at:at] = ZERO_AND_UNIT
    alone = [betti_table(i, FieldSpec(p)) for i in ideals]
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:  # a pool then spans ideal boundaries
            patch.setattr(oracle_mod, "_CHUNK_BYTES", chunk)
        assert betti_tables(ideals, FieldSpec(p)) == alone
    assert alone[min(at, len(specs))].is_empty()


@pytest.mark.parametrize("chunk", [None, 1 << 12])
def test_a_refused_ideal_gets_its_error_and_the_others_their_tables(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(oracle_mod, "_CHUNK_BYTES", chunk)
    big = power(6, 2, 3)
    kept = len(_lcm_lattice_encoded(big.exponents, 10**6, prune=True, anchored=True))
    wide = ideal(["*".join(f"x{j}" for j in range(1, 26))], 25)
    ideals = [power(5, 2, 2), augmented(7, 2, 2, 3), big, ZERO_AND_UNIT[0],
              wide, ideal(["x1*x2", "x2*x3^2"], 3), power(4, 2, 1)]
    got = betti_tables(ideals, GF2, kept - 1)
    assert isinstance(got[2], SizeCapExceededError) and got[2].count == kept
    assert isinstance(got[4], SizeCapExceededError) and got[4].count == 25
    assert "face-enumeration limit" in str(got[4])
    for at in (0, 1, 3, 5, 6):
        assert got[at] == betti_table(ideals[at], GF2, kept - 1) == betti_table(ideals[at])
    with pytest.raises(SizeCapExceededError):
        betti_table(big, GF2, kept - 1)


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


def test_lcm_lattice_wide_ideal_uses_python_int_codes():
    # Squarefree, so fields are 1 bit wide: 62 variables fit in int64, and
    # 64 variables take 64 bits and leave it.
    for half in (31, 32):
        g1, g2 = Monomial((1,) * half + (0,) * half), Monomial((0,) * half + (1,) * half)
        assert lcm_lattice(minimalize([g1, g2])) == [g2, g1, Monomial((1,) * 2 * half)]
    rng = random.Random(11)
    for _ in range(10):
        ambient = rng.randint(40, 70)
        i = minimalize([
            Monomial(tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(ambient)))
            for _ in range(rng.randint(1, 5))
        ])
        got = [b.exponents for b in lcm_lattice(i)]
        assert got == sorted(lcm_lattice_by_definition(i))


def test_lcm_lattice_closed_under_joins():
    i = power(6, 2, 2)
    lat = {g.exponents for g in lcm_lattice(i)}
    pts = [np.array(e) for e in lat]
    for a in pts[:20]:
        for b in pts[:20]:
            assert tuple(np.maximum(a, b)) in lat
    for i in [power(6, 2, 2)] + [ideal(g, a) for g, a in OFF_PATH_IDEALS]:
        got = [b.exponents for b in lcm_lattice(i)]
        assert got == sorted(lcm_lattice_by_definition(i))


def test_pruned_walk_keeps_exactly_the_non_full_points():
    ideals = [power(n, t, s) for n, t, s in [(5, 2, 2), (6, 3, 2), (7, 2, 1), (5, 2, 3)]]
    ideals += [ideal(g, a) for g, a in OFF_PATH_IDEALS]
    rng = random.Random(5)
    for _ in range(30):
        ambient = rng.randint(1, 6)
        ideals.append(minimalize([
            Monomial(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(ambient)))
            for _ in range(rng.randint(1, 7))
        ]))
    for i in ideals:
        assert pruned_walk(i) == non_full_lattice(i)
    # Squarefree lattice points are never full; powers have full ones.
    assert len(pruned_walk(ideals[0])) < len(lcm_lattice(ideals[0]))


def test_pruned_walk_in_one_row_chunks(monkeypatch):
    monkeypatch.setattr(oracle_mod, "_CHUNK_BYTES", 1)
    for i in [power(5, 2, 2), power(6, 3, 2)] + [ideal(g, a) for g, a in OFF_PATH_IDEALS]:
        assert pruned_walk(i) == non_full_lattice(i)
        assert betti_table(i).entries == betti_via_public_route(i, 2)


def test_pruned_walk_on_a_wide_ideal_uses_python_int_codes():
    rng = random.Random(13)
    for _ in range(10):
        ambient = rng.randint(40, 70)
        i = minimalize([
            Monomial(tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(ambient)))
            for _ in range(rng.randint(2, 5))
        ])
        # n * w >= 64 bits, w = max exponent: the codes are Python ints.
        assert ambient * max(max(g.exponents) for g in i.generators) >= 64
        assert pruned_walk(i) == non_full_lattice(i)


def fullness_spy(monkeypatch) -> list:
    """Record the codes of every _not_full call, the walk's fullness test."""
    calls, real = [], oracle_mod._not_full

    def spy(codes, *args):
        calls.append(codes.tolist())
        return real(codes, *args)

    monkeypatch.setattr(oracle_mod, "_not_full", spy)
    return calls


def augmented(n: int, t: int, s: int, j: int) -> MonomialIdeal:
    """I^s + (u_j, ..., u_{n-t+1}), the sweep's ideal that is not shift-closed."""
    lines = [tuple(u) for u in line_graph_generators(PathIdealSpec(n, t)).tolist()]
    gens = [g.exponents for g in power(n, t, s).generators] + lines[j - 1 :]
    return minimalize([Monomial(g) for g in gens], ambient=n)


def test_pruned_walk_tests_each_code_once(monkeypatch):
    calls = fullness_spy(monkeypatch)
    for i, anchored in [(power(8, 2, 4), True), (augmented(8, 2, 3, 4), False)]:
        assert _shift_closed(i.exponents) == anchored
        calls.clear()
        lat = _lcm_lattice_encoded(i.exponents, 10**6, prune=True, anchored=anchored)
        tested = [c for codes in calls for c in codes]
        assert len(tested) == len(set(tested))
        # Some points were dropped as full simplices, and every kept one was tested.
        assert len(calls) > 2 and len(lat) < len(tested)
    # The mirror walk tests the smaller code of each pair, once.
    for i, anchored in [(power(8, 2, 4), True), (power(6, 2, 3), False)]:
        n, w = i.ambient, int(i.exponents.max())
        tested = []
        for mirror in (False, True):
            calls.clear()
            lat = _lcm_lattice_encoded(i.exponents, 10**6, prune=True, anchored=anchored,
                                       mirror=mirror)
            tested.append([c for codes in calls for c in codes])
        half = tested[1]
        assert len(half) == len(set(half)) and len(lat) < len(half) < len(tested[0])
        rows = np.array([[(c >> w * (n - 1 - j) & (1 << w) - 1).bit_count() for j in range(n)]
                         for c in half])
        assert mirror_half_by_definition(rows, oracle_mod._spans(rows, anchored)).all()


def test_walk_cap_counts_kept_points_only(monkeypatch):
    # (6,2,3) keeps K anchored points and tests more: the cap is met at K.
    calls = fullness_spy(monkeypatch)
    i = power(6, 2, 3)
    G = np.array([g.exponents for g in i.generators], dtype=np.int64)
    kept = len(_lcm_lattice_encoded(G, 10**6, prune=True, anchored=True))
    tested = sum(map(len, calls))
    assert kept < tested
    assert betti_table(i, lattice_cap=kept) == betti_table(i)
    with pytest.raises(SizeCapExceededError, match=f"cap {kept - 1} ") as refused:
        betti_table(i, lattice_cap=kept - 1)
    assert refused.value.count == kept


def walks_with_and_without_mirror(i: MonomialIdeal) -> tuple:
    """(lat, full, shift, mirror): _walk's points and the walk that keeps both of a pair."""
    _, lat, _, shift, mirror = oracle_mod._walk(i, 10**6)
    full = _lcm_lattice_encoded(i.exponents, 10**6, prune=True, anchored=shift)
    return lat, full, shift, mirror


@pytest.mark.parametrize("seed", range(4))
def test_mirror_walk_keeps_the_smaller_point_of_each_pair(seed):
    # Random generator sets of each (translation, reversal) kind: the walk
    # that keeps one point of each pair keeps exactly the rows that the
    # reference picks from the walk that keeps both, and the cap counts both.
    rng = random.Random(seed)
    kinds = Counter()
    for k in range(100):
        i = symmetric_ideal(rng, rng.randint(2, 7), rng.randint(1, 3), rng.randint(1, 3),
                            shift=k % 2 == 0, mirror=k % 4 < 2)
        lat, full, shift, mirror = walks_with_and_without_mirror(i)
        kinds[shift, mirror] += 1
        if mirror:
            with pytest.raises(SizeCapExceededError) as refused:
                oracle_mod._walk(i, len(full) - 1)
            assert refused.value.count == len(full)
            full = full[mirror_half_by_definition(full, oracle_mod._spans(full, shift))]
        assert np.array_equal(lat, full)
    assert len(kinds) == 4


@pytest.mark.parametrize("shift, count, seed", [(True, 2, 3), (False, 3, 0)])
def test_mirror_walk_past_63_bits(shift, count, seed):
    # n * w >= 64, w = max exponent: the codes, and their mirrors, are Python ints.
    i = symmetric_ideal(random.Random(seed), 11, 6, count, shift=shift, mirror=True)
    assert 11 * max(max(g.exponents) for g in i.generators) >= 64
    lat, full, anchored, mirror = walks_with_and_without_mirror(i)
    assert (anchored, mirror) == (shift, True) and len(full) > len(lat) > 20
    keep = mirror_half_by_definition(full, oracle_mod._spans(full, shift))
    assert np.array_equal(lat, full[keep])


def test_unary_walk_matches_the_definition_on_random_ideals():
    rng = random.Random(17)
    for top in range(1, 7):
        for _ in range(8):
            i = random_ideal(rng, rng.randint(1, 6), top, rng.randint(1, 6))
            lattice = sorted(lcm_lattice_by_definition(i))
            assert [b.exponents for b in lcm_lattice(i)] == lattice
            assert pruned_walk(i) == non_full_lattice(i, lattice)


@pytest.mark.parametrize(
    "ambient, top, dtype",
    [(63, 1, np.int64), (21, 3, np.int64), (9, 7, np.int64),
     (64, 1, object), (32, 2, object), (16, 4, object), (8, 8, object),
     (32, 1, np.uint32), (16, 2, np.uint32), (8, 4, np.uint32), (33, 1, np.int64)],
)
def test_unary_walk_switches_to_python_ints_at_64_bits(monkeypatch, ambient, top, dtype):
    dtypes = set()
    unique = oracle_mod._unique

    def spy(codes):
        dtypes.add(codes.dtype)
        return unique(codes)

    monkeypatch.setattr(oracle_mod, "_unique", spy)
    rng = random.Random(ambient * top)
    for count in range(1, 6):
        i = random_ideal(rng, ambient, top, count)
        lattice = sorted(lcm_lattice_by_definition(i))
        assert [b.exponents for b in lcm_lattice(i)] == lattice
        assert pruned_walk(i) == non_full_lattice(i, lattice)
    assert dtypes == {np.dtype(dtype)}


def test_unary_walk_on_zero_columns_and_the_unit_ideal():
    # x2 and x4 appear in no generator; their fields stay empty.
    i = ideal(["x1^2*x3", "x1*x3^3*x5", "x5^2", "x1^3"], 5)
    lattice = sorted(lcm_lattice_by_definition(i))
    assert all(b[1] == b[3] == 0 for b in lattice)
    assert [b.exponents for b in lcm_lattice(i)] == lattice
    assert pruned_walk(i) == non_full_lattice(i, lattice)
    # The unit ideal: one generator, all of whose columns are zero.
    for ambient in (0, 1, 3):
        unit = minimalize([Monomial((0,) * ambient)], ambient=ambient)
        assert pruned_walk(unit) == [(0,) * ambient]
        assert lcm_lattice(unit) == [Monomial((0,) * ambient)]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_unique_is_the_sorted_set(dtype):
    rng = random.Random(3)
    pool = [-7, 0, 1, 5, 40, 2**40] + ([2**63, 2**70 + 1, -2**65] if dtype is object else [])
    for size in (0, 1, 2, 50, 400):
        codes = np.array([rng.choice(pool) for _ in range(size)], dtype=dtype)
        got = _unique(codes)
        assert got.dtype == codes.dtype
        assert got.tolist() == sorted(set(codes.tolist()))
    # A 2-D chunk of joins is flattened.
    grid = np.array([[3, 1, 3], [2, 1, 0]], dtype=dtype)
    assert _unique(grid).tolist() == [0, 1, 2, 3]


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


def test_betti_tables_of_the_zero_ideal_alone_and_pooled():
    # No generators: the walk is empty and writes the empty table.
    others = [power(5, 2, 2), ideal(["x1*x2", "x2*x3^2"], 3)]
    for ambient in (0, 1, 5):
        zero = MonomialIdeal(ambient, ())
        for p in (2, 3):
            empty = oracle_mod.BettiTable(ambient, p, (), (), ())
            alone, = betti_tables([zero], FieldSpec(p))
            first, pooled, last = betti_tables([others[0], zero, others[1]], FieldSpec(p))
            assert alone == pooled == empty and pooled.degrees.shape == (0, ambient)
            assert [first, last] == [betti_table(i, FieldSpec(p)) for i in others]


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
        assert len(set(i.exponents.sum(axis=1).tolist())) > 1
        for p in (2, 3):
            fast = betti_table(i, FieldSpec(p))
            assert fast.max_index() >= 2
            assert fast.entries == betti_via_public_route(i, p)


def test_betti_unit_ideal(monkeypatch):
    # K^0 = {empty face} has H~_{-1} = 1, so (1) is resolved by R itself:
    # the empty face is the one critical face, and no rank is taken.
    calls = rank_spy(monkeypatch)
    for zero in ((), (0,), (0, 0)):
        i = minimalize([Monomial(zero)])
        for p in (2, 3):
            assert betti_table(i, FieldSpec(p)).entries == {(0, zero): 1}
            assert betti_via_public_route(i, p) == {(0, zero): 1}
    assert calls == []


def window(b: tuple[int, ...]) -> tuple[int, ...]:
    """b up to its last nonzero position."""
    return b[: max((j for j, e in enumerate(b, 1) if e), default=0)]


def core(b: tuple[int, ...]) -> tuple[int, ...]:
    """b with its leading and trailing zeros trimmed."""
    return window(window(b)[::-1])[::-1]


def translates(w: tuple[int, ...], ambient: int) -> set[tuple[int, ...]]:
    """w placed at every offset at which it fits in ambient variables."""
    pad = ambient - len(w)
    return {(0,) * at + w + (0,) * (pad - at) for at in range(pad + 1)}


def test_betti_computes_one_of_each_mirror_pair(monkeypatch):
    visited = []
    real = oracle_mod._facet_pairs

    def spy(G, lat):
        visited.extend(tuple(b) for b in lat.tolist())
        return real(G, lat)

    monkeypatch.setattr(oracle_mod, "_facet_pairs", spy)
    # Path powers are fixed by translation and by the reversal: only points
    # with b_1 > 0 are computed, one of each mirror pair of windows b[:m],
    # m the last nonzero position.  Palindromic windows are computed once
    # and written once, with their own rank.
    for n, t, s in [(5, 2, 2), (6, 3, 2), (4, 2, 1), (7, 3, 1)]:
        visited.clear()
        i = power(n, t, s)
        table = betti_table(i)
        windows = [window(b) for b in visited]
        assert len(visited) == len(set(visited))
        assert all(b[0] > 0 and w <= w[::-1] for b, w in zip(visited, windows))
        placed = {b for w in windows for c in (w, w[::-1]) for b in translates(c, n)}
        assert placed == set(non_full_lattice(i))
        # One point per class of translates and window mirrors, no more.
        classes = {min(core(b), core(b)[::-1]) for b in non_full_lattice(i)}
        assert len(visited) == len(classes) < len(placed)
        assert any(b == b[::-1] for (_, b) in table.entries)
        assert table.entries == betti_via_public_route(i, 2)
    # A generator set that is not closed under reversal or translation is
    # walked in full.
    visited.clear()
    i = ideal(["x1*x2", "x2*x3^2"], 3)
    assert betti_table(i).entries == betti_via_public_route(i, 2)
    assert visited == non_full_lattice(i)


def test_betti_stanley_reisner_projective_plane(monkeypatch):
    # By Hochster's formula, beta_{i, x1...x6}(I) = dim H~_{4-i}(RP^2).
    faces = from_faces(RP2_TRIANGLES)
    i = minimalize([
        Monomial(tuple(int(v in sigma) for v in range(1, 7)))
        for sigma in from_faces([range(1, 7)]) - faces
    ])
    top = (1,) * 6
    calls = rank_spy(monkeypatch)
    gf2 = betti_table(i, FieldSpec(2))
    ranked, calls[:] = list(calls), []
    gf3 = betti_table(i, FieldSpec(3))
    # Critical faces do not depend on p, so the entries that do were ranked:
    # the same complexes over both fields, with H~_1 = H~_2 = 1 over GF(2).
    assert len(ranked) == len(calls) > 0
    assert any({1: 1, 2: 1}.items() <= dims.items() for dims in ranked)
    assert gf2.entries[(2, top)] == gf2.entries[(3, top)] == 1
    assert (2, top) not in gf3.entries and (3, top) not in gf3.entries
    assert gf2.totals() == {0: 10, 1: 15, 2: 7, 3: 1}
    assert gf3.totals() == {0: 10, 1: 15, 2: 6}
    for p, table in ((2, gf2), (3, gf3)):
        assert table.entries == betti_via_public_route(i, p)


def test_betti_of_a_path_power_takes_no_rank(monkeypatch):
    calls = rank_spy(monkeypatch)
    table = betti_table(power(10, 2, 2), FieldSpec(3))
    assert len(table.entries) == 947
    assert calls == []


def test_default_grid_tables_match_their_pinned_digests(tmp_path, monkeypatch):
    # Every entry of the grid's 121 tables, not only the rows read from them:
    # the SHA-256 of each table's to_dict(), keyed by its cache key.
    pinned = Path(__file__).resolve().parent / "data" / "default_grid_tables.json"
    got, real = {}, verify_mod.cached_betti_tables

    def spy(ideals, fieldspec, cache, lattice_cap):
        ideals = list(ideals)
        tables = real(ideals, fieldspec, cache, lattice_cap)
        for i, table in zip(ideals, tables):
            blob = json.dumps(table.to_dict(), sort_keys=True, separators=(",", ":"))
            key = cache_mod.betti_cache_key(i, fieldspec.characteristic, lattice_cap)
            got[key] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return tables

    monkeypatch.setattr(verify_mod, "cached_betti_tables", spy)
    run_sweep(SweepConfig(cache_dir=str(tmp_path / "cache")))
    assert got == json.loads(pinned.read_text(encoding="utf-8"))


def test_betti_matches_the_benchmark_ladder_goldens():
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    ladder = json.loads(golden.read_text(encoding="utf-8"))["ladder"]
    assert len(ladder) == 5
    for cell, want in ladder.items():
        n, t, s, p = map(int, cell.replace("@", ",").split(","))
        with entry_writes_checked() as checked:  # the broadcast write too
            table = betti_table(power(n, t, s), FieldSpec(p))
        assert checked == [table]
        blob = json.dumps(table.to_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == want["digest"]
        assert len(table.entries) == want["entries"]
        assert table.quotient_regularity() == want["reg"]


def test_betti_lattice_cap():
    with pytest.raises(SizeCapExceededError):
        betti_table(power(6, 2, 2), lattice_cap=5)


def test_quotient_helpers_reject_zero_ideal():
    table = betti_table(MonomialIdeal(3, ()))
    with pytest.raises(ValueError):
        table.quotient_regularity()
    with pytest.raises(ValueError):
        table.quotient_projective_dimension()


def test_regularity_anchors():
    assert betti_table(ideal(["x1*x2", "x2*x3"], 3)).quotient_regularity() == 1
    assert betti_table(ideal(["x1"], 3)).quotient_regularity() == 0
    assert betti_table(power(4, 2, 2)).quotient_regularity() == 3


def test_projective_dimension_anchors():
    edges = ideal(["x1*x2", "x2*x3"], 3)
    assert betti_table(edges).quotient_projective_dimension() == 2
    assert betti_table(ideal(["x1"], 3)).quotient_projective_dimension() == 1
    assert betti_table(power(5, 3, 2)).quotient_projective_dimension() == 3


def test_has_linear_resolution_anchors():
    assert betti_table(power(5, 3, 1)).is_linear()
    assert not betti_table(power(7, 3, 1)).is_linear()
    assert not betti_table(ideal(["x1", "x2*x3"], 3)).is_linear()


def test_field_stability_on_a_nonlinear_case():
    i = power(7, 3, 1)
    for p in (2, 3):
        table = betti_table(i, FieldSpec(p))
        assert table.quotient_regularity() == 4
        assert table.quotient_projective_dimension() == 3
        assert not table.is_linear()


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


def test_betti_table_round_trip(tmp_path):
    # Through a cache entry: the empty table and unit ideals (ambient 0
    # included) too.
    cache = BettiCache(tmp_path)
    tables = [
        betti_table(power(5, 3, 2)),
        betti_table(power(4, 2, 2), FieldSpec(3)),
        betti_table(MonomialIdeal(2, ())),
        betti_table(minimalize([Monomial((0, 0))], ambient=2)),
        table_of(0, 2, {(0, ()): 1}),
    ]
    for k, table in enumerate(tables):
        cache.store(f"k{k}", table)
        assert cache.lookup(f"k{k}") == table
    assert (cache.hits, cache.misses) == (len(tables), 0)


# Values of every stored width, 1 to 8 bytes, small enough that the sums of
# a table's roll-ups fit in int64.
def small_or_wide(low):
    return st.integers(low, 3) | st.integers(low, 2**59)


random_tables = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sampled_from([2, 3, 2**31 - 1]),
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.tuples(*[small_or_wide(0)] * n)),
        small_or_wide(1), max_size=6,
    ),
))


@settings(max_examples=80, deadline=None)
@given(random_tables)
def test_cache_round_trip_of_random_tables(drawn):
    table = table_of(*drawn)
    with tempfile.TemporaryDirectory() as directory:
        cache = BettiCache(directory)
        cache.store("k", table)
        got = cache.lookup("k")
    assert got == table and cache.hits == 1
    assert json.dumps(got.to_dict()) == json.dumps(table.to_dict())
    assert str(got) == str(table)
    # The same rows in reverse order, re-sealed, fail the byte-string order
    # check whatever their width and trailing zeros.
    count, header = table.ranks.size, cache_mod._HEADER.size
    if count > 1:
        raw = cache_mod._encode("k", table)
        row = (table.ambient + 1) * raw[header - 2]
        rows = [raw[header + r * row : header + (r + 1) * row] for r in range(count)]
        body = raw[:header] + b"".join(rows[::-1]) + raw[header + count * row : -32]
        with pytest.raises(ValueError, match="order"):
            cache_mod._decode(cache_mod._sealed(body), "k")


def test_betti_table_str_is_a_grid():
    text = str(betti_table(ideal(["x1*x2", "x2*x3"], 3)))
    assert "j\\i" in text and "2" in text
    assert str(betti_table(MonomialIdeal(2, ()))) == "empty Betti table"


def test_is_linear_rejects_mixed_degrees():
    table = table_of(2, 2, {(0, (1, 0)): 1, (0, (0, 2)): 1})
    assert not table.is_linear()


# ---------------------------------------------------------------- property


small_monomial = st.tuples(*([st.integers(0, 2)] * 4)).map(Monomial)


@settings(max_examples=30, deadline=None)
@given(st.lists(small_monomial, min_size=1, max_size=4), st.sampled_from([2, 3]))
def test_fast_table_matches_public_route_on_random_ideals(gens, p):
    i = minimalize(gens, ambient=4)
    assert betti_table(i, FieldSpec(p)).entries == betti_via_public_route(i, p)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(*([st.integers(0, 2)] * 4)), min_size=1, max_size=3),
    st.sampled_from([2, 3]),
)
def test_fast_table_matches_public_route_on_mirror_closed_ideals(gens, p):
    i = minimalize([Monomial(g) for g in gens + [g[::-1] for g in gens]])
    with entry_writes_checked():
        assert betti_table(i, FieldSpec(p)).entries == betti_via_public_route(i, p)


seeds_in_ambient = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(
        st.tuples(*[st.sampled_from((0, 0, 1, 2))] * n).filter(any),
        min_size=1, max_size=3,
    ),
))


@settings(max_examples=40, deadline=None)
@given(seeds_in_ambient, st.booleans(), st.integers(0, 2**16))
def test_fast_table_matches_public_route_on_shift_closed_ideals(seeds, mirrored, pick):
    # Every translate of each seed (and of its reversal, if mirrored),
    # minimalized: closed under translation, rarely a path power.  Near
    # misses take the general route: one end generator (g_1 = 0 or g_n = 0)
    # dropped, the unit ideal, ambient 1.
    ambient, rows = seeds
    cores = {core(row) for row in rows} | {core(row[::-1]) for row in rows if mirrored}
    i = minimalize(
        [Monomial(b) for c in cores for b in translates(c, ambient)], ambient=ambient
    )
    assume(len(i.generators) <= 10)
    gens = [g.exponents for g in i.generators]
    assert _shift_closed(i.exponents) == (ambient > 1)
    ends = [g for g in gens if not g[0] or not g[-1]]
    assert not any(_shift_closed(np.array([h for h in gens if h != g]).reshape(-1, ambient))
                   for g in ends)
    assert not _shift_closed(np.zeros((1, ambient), dtype=np.int64))
    near = [minimalize([Monomial((0,) * ambient)])]
    if ends:
        drop = ends[pick % len(ends)]
        near.append(MonomialIdeal(ambient, [g for g in gens if g != drop]))
    with entry_writes_checked():
        for j in [i] + near:
            for p in (2, 3):
                assert betti_table(j, FieldSpec(p)).entries == betti_via_public_route(j, p)
