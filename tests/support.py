"""Shared test helpers: monomial shorthands and reference routes.

m parses the text form that format_monomial renders; mono_divides,
mono_pow, support, mono_mul, mono_quotient and contains are the
one-Monomial-at-a-time arithmetic the object routes are built from.

augmented_by_minimalize is the route a sweep cell once took to its
augmented ideals.  minimalize_by_tuples is the tuple route of minimalize,
a dict of exponent tuples and their sorted list, against which the array
route is checked.
json_cache_key is the cache key of earlier releases.

The object routes are the library's colon, power and linearity algorithms
as loops over Monomial objects, one colon step and one product at a time,
against which the exponent-matrix routes of the package are checked.  The
composition route lists a path ideal's power generators one composition at
a time, each multiplied out by its own loop.

table_of builds a BettiTable from an {(i, b): rank} mapping.  The entry
loop writes the walked entries of a table one translate and mirror image at
a time, as the reference for the oracle's broadcast write
(entry_writes_checked compares the two on every table built inside it).
mirror_half_by_definition picks the lex-smaller point of each mirror pair
from the rows of a walk that kept both, as the reference for the walk that
keeps one.

The reference route computes Betti numbers from the definitions,
independently of the oracle's kernel: the lcm lattice from all nonempty
generator subsets, the upper Koszul complex K^b from x^b / x^sigma in I,
and reduced homology from explicit boundary matrices ranked by the public
gfp_rank.  It is meant for ideals with at most about 10 generators.

The bool kernels are the oracle's face kernels on one boolean per face, a
(rows, 2^k) array whose column f is the face with vertex bitmask f: the
downward closure of the facets, the vertex degrees and the critical faces
of the element matchings, one vertex at a time.  The oracle's bit kernels,
64 faces to a word, are checked against them; faces_of_words and
words_of_faces convert between the two layouts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from contextlib import contextmanager
from typing import Iterator, Mapping

import numpy as np

from pathideal.errors import (
    ColonFormMismatchError,
    ExponentOverflowError,
    SizeCapExceededError,
)
from pathideal.linearity import (
    QuasiLinearResult,
    QuotientCertificate,
    QuotientFailure,
    closed_form_colon,
)
from pathideal.monomials import (
    EXPONENT_CAP,
    Monomial,
    MonomialIdeal,
    _same_ambient,
    minimalize,
)
import pathideal.oracle as oracle_mod
from pathideal.oracle import BettiTable, gfp_rank
from pathideal.path_ideals import Composition, PathIdealSpec, power_generators

Face = tuple[int, ...]

_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def m(text: str, ambient: int) -> Monomial:
    """Parse the text form, e.g. ``x1^2*x3`` or ``1``."""
    text = text.strip()
    exps = [0] * ambient
    if text == "1":
        return Monomial(tuple(exps))
    for term in text.split("*"):
        match = _TERM_RE.match(term.strip())
        if match is None:
            raise ValueError(f"malformed monomial term {term!r} in {text!r}")
        idx, exp = int(match.group(1)), int(match.group(2) or 1)
        if not 1 <= idx <= ambient:
            raise ValueError(f"variable x{idx} outside ambient {ambient}")
        exps[idx - 1] += exp
    return Monomial(tuple(exps))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b (componentwise <=)."""
    _same_ambient(a, b)
    return all(x <= y for x, y in zip(a.exponents, b.exponents))


def mono_pow(a: Monomial, k: int) -> Monomial:
    if k < 0:
        raise ValueError("negative power")
    if a.degree * k > EXPONENT_CAP:
        raise ExponentOverflowError(
            f"degree {a.degree * k} above cap {EXPONENT_CAP}"
        )
    return Monomial(tuple(e * k for e in a.exponents))


def support(a: Monomial) -> frozenset[int]:
    """1-based indices of the variables dividing a."""
    return frozenset(i + 1 for i, e in enumerate(a.exponents) if e)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    _same_ambient(a, b)
    exps = tuple(x + y for x, y in zip(a.exponents, b.exponents))
    if sum(exps) > EXPONENT_CAP:
        raise ExponentOverflowError(f"degree {sum(exps)} above cap {EXPONENT_CAP}")
    return Monomial(exps)


def mono_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / gcd(a, b), i.e. componentwise max(a_k - b_k, 0)."""
    _same_ambient(a, b)
    return Monomial(tuple(max(x - y, 0) for x, y in zip(a.exponents, b.exponents)))


def contains(ideal: MonomialIdeal, mono: Monomial) -> bool:
    """Ideal membership: some generator divides mono."""
    return any(mono_divides(g, mono) for g in ideal.generators)


def ideal(texts: list[str], ambient: int) -> MonomialIdeal:
    return minimalize([m(s, ambient) for s in texts], ambient=ambient)


def power(n: int, t: int, s: int) -> MonomialIdeal:
    return minimalize(power_generators(PathIdealSpec(n, t), s)[1])


def augmented_by_minimalize(power: MonomialIdeal, lines: np.ndarray,
                            j: int) -> MonomialIdeal:
    """I^s + (u_j, ..., u_m), minimalized from the rows of both."""
    return minimalize(np.concatenate((power.exponents, lines[j - 1 :])))


def minimalize_by_tuples(gens, ambient: int | None = None) -> MonomialIdeal:
    """minimalize over a dict of exponent tuples and their sorted list."""
    gens = list(gens)
    if not gens:
        if ambient is None:
            raise ValueError("ambient required for an empty generating set")
        return MonomialIdeal(ambient, ())
    amb = gens[0].ambient
    for g in gens[1:]:
        _same_ambient(gens[0], g)
    by_exps = {g.exponents: g for g in gens}
    ordered = sorted(by_exps)
    kept = [e for e, keep in zip(ordered, minimal_by_levels(ordered)) if keep]
    return MonomialIdeal(amb, kept)


def ideal_of_rows_by_tuples(rows: np.ndarray, ambient: int) -> MonomialIdeal:
    """The ideal the rows of an exponent matrix generate, through tuples."""
    return minimalize_by_tuples(map(Monomial, map(tuple, rows.tolist())), ambient)


def minimal_by_levels(exps: list[tuple[int, ...]]) -> list[bool]:
    """For distinct exponent tuples: True where no other tuple divides it.

    Each degree level is compared with the minimal tuples of the lower ones.
    """
    degrees = [sum(e) for e in exps]
    minimal = [True] * len(exps)
    below: list[tuple[int, ...]] = []
    for d in sorted(set(degrees)):
        level = [k for k, deg in enumerate(degrees) if deg == d]
        for k in level:
            minimal[k] = not any(all(map(int.__le__, a, exps[k])) for a in below)
        below += [exps[k] for k in level if minimal[k]]
    return minimal


def compositions_desc(total: int, k: int) -> Iterator[Composition]:
    """All compositions of total into k parts, lexicographically decreasing."""
    if total < 0 or k < 1:
        raise ValueError(f"bad composition shape total={total}, k={k}")

    parts = [total] + [0] * (k - 1)
    while True:
        yield Composition(tuple(parts))
        # the successor: the last nonzero part but the final one gives one
        # unit to its right neighbour, which also takes the final part
        i = k - 2
        while i >= 0 and not parts[i]:
            i -= 1
        if i < 0:
            return
        last, parts[-1] = parts[-1], 0
        parts[i] -= 1
        parts[i + 1] = last + 1


def composition_to_monomial(spec: PathIdealSpec, comp: Composition) -> Monomial:
    """u_1^{a_1} * ... * u_k^{a_k} for the composition (a_1, ..., a_k)."""
    k = spec.num_generators
    if len(comp.parts) != k:
        raise ValueError(
            f"composition has {len(comp.parts)} parts, spec needs {k}"
        )
    exps = [0] * spec.n
    for i, a in enumerate(comp.parts):
        for j in range(i, i + spec.t):
            exps[j] += a
    return Monomial(tuple(exps))


def power_generators_by_compositions(
    spec: PathIdealSpec, s: int
) -> list[tuple[Composition, Monomial]]:
    """power_generators as a loop over the compositions, one product each."""
    return [
        (c, composition_to_monomial(spec, c))
        for c in compositions_desc(s, spec.num_generators)
    ]


def pairs_of(counts: np.ndarray, rows: np.ndarray) -> list[tuple[Composition, Monomial]]:
    """The (composition, generator) objects of power_generators' two matrices."""
    return [(Composition(tuple(c)), Monomial(tuple(e)))
            for c, e in zip(counts.tolist(), rows.tolist())]


def matrices_of(pairs: list[tuple[Composition, Monomial]]) -> tuple[np.ndarray, np.ndarray]:
    """The composition and exponent matrices of (composition, generator) pairs."""
    counts = np.array([c.parts for c, _ in pairs], dtype=np.int64)
    return counts, np.array([g.exponents for _, g in pairs], dtype=np.int64)


def colon_by_objects(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """I : m, minimalized from the quotients g / gcd(g, m)."""
    return minimalize_by_tuples(
        (mono_quotient(g, m) for g in ideal.generators), ambient=ideal.ambient
    )


def power_by_objects(ideal: MonomialIdeal, s: int, max_products: int) -> MonomialIdeal:
    """I^s from every s-fold product, multiplied left to right."""
    if ideal.is_zero():
        return ideal
    q = len(ideal.generators)
    count = math.comb(q + s - 1, s)
    if count > max_products:
        raise SizeCapExceededError(
            f"I^{s} needs {count} products of {q} generators, cap {max_products}",
            count=count,
        )
    products = []
    for combo in itertools.combinations_with_replacement(ideal.generators, s):
        acc = combo[0]
        for g in combo[1:]:
            acc = mono_mul(acc, g)
        products.append(acc)
    return minimalize_by_tuples(products, ambient=ideal.ambient)


def linear_quotients_by_objects(
    spec: PathIdealSpec, pairs: list[tuple[Composition, Monomial]]
) -> QuotientCertificate | QuotientFailure:
    """The prefix-colon test in the order given, each colon minimalized."""
    ordered = [c for c, _ in pairs]
    monos = [g for _, g in pairs]
    check_closed_form = spec.t <= spec.n <= 2 * spec.t
    colon_vars, counts = [], []
    for k in range(1, len(ordered)):
        quotients = (mono_quotient(monos[i], monos[k]) for i in range(k))
        colon = minimalize_by_tuples(quotients, ambient=spec.n)
        for g in colon.generators:
            if g.degree != 1:
                return QuotientFailure(k + 1, ordered[k], g)
        found = frozenset(next(iter(support(g))) for g in colon.generators)
        if check_closed_form:
            predicted = closed_form_colon(ordered[k])
            if found != predicted:
                raise ColonFormMismatchError(
                    f"colon at position {k + 1} gave {sorted(found)}, "
                    f"closed form predicts {sorted(predicted)}"
                )
        colon_vars.append(found)
        counts.append(len(found))
    return QuotientCertificate(tuple(ordered), tuple(colon_vars), tuple(counts))


def quasi_linear_by_objects(ideal: MonomialIdeal) -> QuasiLinearResult:
    """(G(I) \\ {u}) : u for every u in stored order, each minimalized."""
    if len(ideal.generators) < 2:
        return QuasiLinearResult(True, None)
    for u in ideal.generators:
        rest = minimalize_by_tuples(
            (g for g in ideal.generators if g != u), ambient=ideal.ambient
        )
        for g in colon_by_objects(rest, u).generators:
            if g.degree != 1:
                return QuasiLinearResult(False, (u, g))
    return QuasiLinearResult(True, None)


def from_faces(faces) -> set[Face]:
    """The downward closure of the given faces, as sorted vertex tuples."""
    return {
        sub
        for f in map(sorted, map(set, faces))
        for r in range(len(f) + 1)
        for sub in itertools.combinations(f, r)
    }


def koszul_by_definition(i: MonomialIdeal, b: Monomial) -> set[Face]:
    """Faces sigma within supp(b) with x^b / x^sigma in I (1-based labels)."""
    exps = b.exponents
    supp = [j for j, e in enumerate(exps) if e]
    return {
        tuple(j + 1 for j in sigma)
        for r in range(len(supp) + 1)
        for sigma in itertools.combinations(supp, r)
        if contains(i, Monomial(tuple(e - (j in sigma) for j, e in enumerate(exps))))
    }


def reduced_homology(faces: set[Face], p: int = 2) -> list[int]:
    """Reduced homology dimensions [H~_{-1}, H~_0, ...]; [] for the void."""
    if not faces:
        return []
    top = max(map(len, faces))
    groups = [sorted(f for f in faces if len(f) == g) for g in range(top + 1)]
    # ranks[g]: rank of the boundary from faces with g vertices to g - 1.
    ranks = [0] * (top + 2)
    for g in range(1, top + 1):
        index = {f: c for c, f in enumerate(groups[g - 1])}
        mat = np.zeros((len(groups[g]), len(index)), dtype=np.int64)
        for r, f in enumerate(groups[g]):
            for j in range(g):
                mat[r, index[f[:j] + f[j + 1 :]]] = (-1) ** j
        ranks[g] = gfp_rank(mat, p)
    return [len(groups[g]) - ranks[g] - ranks[g + 1] for g in range(top + 1)]


def faces_of_words(words: np.ndarray) -> np.ndarray:
    """Boolean (rows, 64 * words a row): column f marks face f, bit f % 64 of word f // 64."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little").view(bool)


def words_of_faces(ind: np.ndarray) -> np.ndarray:
    """The face indicators ind, (rows, 2^k) booleans, as (rows, max(1, 2^k / 64)) words."""
    rows, width = ind.shape
    padded = np.zeros((rows, max(64, width)), dtype=bool)
    padded[:, :width] = ind
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def face_indicators_by_bools(rows: int, row, facets, k: int) -> np.ndarray:
    """Boolean (rows, 2^k): row r marks every subset of the facets[i] with row[i] == r."""
    ind = np.zeros((rows, 1 << k), dtype=bool)
    ind[np.asarray(row, dtype=np.intp), np.asarray(facets, dtype=np.intp)] = True
    for v in range(k):
        pairs = ind.reshape(rows, 1 << (k - 1 - v), 2, 1 << v)
        pairs[:, :, 0] |= pairs[:, :, 1]
    return ind


def vertex_degrees_by_bools(ind: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(deg, faces): faces through each vertex, (rows, k), and all, (rows,)."""
    f = np.arange(1 << k)
    deg = np.zeros((ind.shape[0], k), dtype=np.int64)
    for v in range(k):
        deg[:, v] = np.count_nonzero(ind[:, f >> v & 1 == 1], axis=1)
    return deg, np.count_nonzero(ind, axis=1)


def critical_counts_by_bools(ind: np.ndarray, k: int) -> np.ndarray:
    """(rows, k + 1) critical faces by size after the element matchings on v = 0, ..., k - 1."""
    rows = ind.shape[0]
    ind = ind.copy()
    for v in range(k):
        pairs = ind.reshape(rows, 1 << (k - 1 - v), 2, 1 << v)
        both = pairs[:, :, 0] & pairs[:, :, 1]
        pairs[:, :, 0] ^= both
        pairs[:, :, 1] ^= both
    sizes = np.array([f.bit_count() for f in range(1 << k)])
    counts = np.zeros((rows, k + 1), dtype=np.int64)
    for c in range(k + 1):
        counts[:, c] = np.count_nonzero(ind[:, sizes == c], axis=1)
    return counts


def lcm_lattice_by_definition(i: MonomialIdeal) -> set[tuple[int, ...]]:
    """The lcms of every nonempty subset of the generators."""
    gens = [g.exponents for g in i.generators]
    return {
        tuple(map(max, zip(*subset)))
        for r in range(1, len(gens) + 1)
        for subset in itertools.combinations(gens, r)
    }


def betti_via_public_route(i: MonomialIdeal, p: int) -> dict:
    """Every Betti entry of I over GF(p), computed from the definitions."""
    entries = {}
    for b in lcm_lattice_by_definition(i):
        dims = reduced_homology(koszul_by_definition(i, Monomial(b)), p)
        entries.update({(idx, b): h for idx, h in enumerate(dims) if h})
    return entries


def json_cache_key(ideal: MonomialIdeal, characteristic: int, lattice_cap: int) -> str:
    """The cache key of earlier releases: SHA-256 over a canonical JSON payload."""
    payload = {
        "ambient": ideal.ambient,
        "char": characteristic,
        "generators": [g.exponents for g in ideal.generators],
        "lattice_cap": lattice_cap,
        "oracle_version": oracle_mod.ORACLE_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def table_of(ambient: int, p: int, entries: Mapping) -> BettiTable:
    """The table with the given {(i, multidegree): rank} entries."""
    keys = sorted(entries)
    return BettiTable(
        ambient, p, [i for i, _ in keys],
        np.array([b for _, b in keys], dtype=np.int64).reshape(len(keys), ambient),
        [entries[k] for k in keys],
    )


def write_entries_by_loop(n, p, points, index, ranks, shift, mirror) -> BettiTable:
    """_write_entries as a loop over entries, writing each copy into a dict."""
    entries: dict = {}
    spans = oracle_mod._spans(points, shift).tolist()
    for b, i, h, m in zip(points.tolist(), index.tolist(), ranks.tolist(), spans):
        window = tuple(b[:m])
        for w in {window, window[::-1]} if mirror else (window,):
            for at in range(n - m + 1):
                entries[(i, (0,) * at + w + (0,) * (n - m - at))] = h
    return table_of(n, p, entries)


def mirror_half_by_definition(lat: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Which rows b of lat have b[:m] <=_lex rev(b[:m]), m = span, palindromes too."""
    rev = oracle_mod._reversed_windows(lat, span)
    first = (lat != rev).argmax(axis=1)
    rows = np.arange(lat.shape[0])
    return lat[rows, first] <= rev[rows, first]


@contextmanager
def entry_writes_checked():
    """Check every table betti_table writes inside it against the entry loop.

    Yields the list of the tables checked.
    """
    real, checked = oracle_mod._write_entries, []

    def write(*args):
        table = real(*args)
        assert table == write_entries_by_loop(*args)
        checked.append(table)
        return table

    oracle_mod._write_entries = write
    try:
        yield checked
    finally:
        oracle_mod._write_entries = real
