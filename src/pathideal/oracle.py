"""Brute-force multigraded Betti numbers over a finite prime field.

The rank of the i-th syzygy module of a monomial ideal I in multidegree b
equals the dimension of the (i-1)-st reduced homology of the upper Koszul
complex K^b(I), whose faces are the squarefree subsets sigma of supp(b) with
x^b / x^sigma in I.  Only multidegrees in the lcm lattice of the generators
can contribute, so the oracle closes the generator set under joins with the
generators, walking only the lattice points whose K^b is not a full simplex,
and of those one of each mirror pair when the reversal of the variables
fixes the generators and only those with b_1 > 0 when translation along
the path does: the others are mirrors and translates.  K^b is built from
its facets, one per generator dividing x^b.  A batch of complexes is
settled at once: cones are dropped, the rest are reduced by a sequence of
element matchings, an acyclic matching, and a complex whose critical faces
all have one size has that many homology classes.  Only the few others
are ranked, relative to the closed star of one vertex.

Everything here is exact: GF(2) ranks use integer bitsets, odd primes use
dense modular Gaussian elimination.  Rational homology is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import SizeCapExceededError
from .monomials import _CHUNK_BYTES, Monomial, MonomialIdeal

__all__ = [
    "DEFAULT_LATTICE_CAP",
    "ORACLE_VERSION",
    "FieldSpec",
    "GF2",
    "BettiTable",
    "gf2_rank",
    "gfp_rank",
    "lcm_lattice",
    "betti_table",
    "betti_tables",
]

# Hard cap on the number of distinct multidegrees visited per ideal.  For
# lcm_lattice it counts the whole lattice; for betti_table the points its
# walk keeps, those whose K^b is not a full simplex: only the anchored ones
# (b_1 > 0) when the generators are closed under translation, as the powers
# of path ideals are, but both of each mirror pair, though one is walked.
DEFAULT_LATTICE_CAP = 200_000

# Version of the oracle's answers; cached tables from another version are
# recomputed.
ORACLE_VERSION = 2

# Exclusive bound on the field characteristic.
_MAX_CHARACTERISTIC = 1 << 31

# Largest support size for which the 2^k face enumeration is attempted.
_MAX_SUPPORT = 24

# Chunks of scratch arrays stay within the byte budget _CHUNK_BYTES: lattice
# and facet chunks take _CHUNK_BYTES // (q * n * 8) multidegrees.  A lattice
# chunk joins or tests each of its unary codes against the q generator codes,
# one uint32 or int64 each (Python ints past 63 bits), a 1/n share of the
# budget, and a mirror walk spreads the n fields of as many codes at most to
# reverse them, the whole budget.  A facet chunk tests each (multidegree,
# generator) on their codes, a code and a flag each.  Each pair of them that
# divides then holds its row, generator and facet as uint32 and, at any one
# time, 3n bytes of gathered columns for exponents below 256 (two exponent
# rows and their comparison, or the comparison and the bit ranks) and one
# uint32 column: 16 + 3n bytes a pair, within the 8 * n of the budget once
# n >= 4.  A batch of the chunk adds a uint32 copy and flat index per pair,
# which numpy widens to intp as it scatters.  Chunks of several ideals are
# pooled while their costs, q * n * 8 bytes a row, fit the budget; merging
# them adds about 30 bytes a pair (a uint32 place, an intp order and the
# sorted copies).  A batch of face indicators peaks in the boolean scratch
# array its facets are marked in, max(64, 2^k) bytes a row for its widest
# support size k; the words packed from it are 1/8 of that, and the copy of
# its complexes that are not cones and the scratch words that its closure
# and homology add are as large again each.  _batch_rows cuts one support
# size at _CHUNK_BYTES / 4 bytes of that array; the sizes it merges fit
# _MERGE_BYTES at max(8, 2^k) bytes a row, so their array is 8x that at most.

# Support sizes whose face indicators, padded to the widest of them, fit in
# _MERGE_BYTES share one batch.  Every batch costs about 0.2 ms of numpy
# calls whatever its size; below this floor the padding costs less than that,
# above it a batch of one size is large enough to pay for itself.
_MERGE_BYTES = 1 << 16


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A finite prime field GF(p), the coefficient field for homology.

    p must be below 2^31, so that gfp_rank's int64 products (p-1)^2 cannot
    overflow.
    """

    characteristic: int = 2

    def __post_init__(self):
        if self.characteristic >= _MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {self.characteristic} is too large: "
                f"GF(p) arithmetic needs p < 2^31"
            )
        if not _is_prime(self.characteristic):
            raise ValueError(f"characteristic {self.characteristic} is not prime")


GF2 = FieldSpec(2)


# ---------------------------------------------------------------------------
# exact rank computations
# ---------------------------------------------------------------------------

def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a matrix given as int bitsets, one per row."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def gfp_rank(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p), p < 2^31, by row-echelon Gaussian elimination."""
    if p >= _MAX_CHARACTERISTIC:
        raise ValueError(f"GF({p}) arithmetic needs p < 2^31")
    m = np.mod(np.asarray(mat, dtype=np.int64), p)
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        if inv != 1:
            m[r] = (m[r] * inv) % p
        below = r + 1 + np.flatnonzero(m[r + 1 :, c])
        if below.size:
            m[below] = (m[below] - np.outer(m[below, c], m[r])) % p
        r += 1
    return r


# ---------------------------------------------------------------------------
# homology core (bitmask faces)
# ---------------------------------------------------------------------------

def _homology_dims(cells: list[int], p: int) -> dict[int, int]:
    """Relative homology dimensions {d: dim H_d(K, L)} over GF(p).

    cells are the vertex bitmasks of the faces of K not in the subcomplex L;
    a cell with d + 1 vertices has dimension d, and the boundary drops the
    faces in L.  Every dimension that has cells is covered.
    """
    groups: dict[int, list[int]] = {}
    for m in cells:
        groups.setdefault(m.bit_count() - 1, []).append(m)
    rank: dict[int, int] = {}
    for d, here in groups.items():
        if d - 1 not in groups:
            continue
        index = {m: i for i, m in enumerate(groups[d - 1])}
        # Row r is the boundary of here[r]; the face dropping the j-th
        # lowest vertex has sign (-1)^j.
        mat = np.zeros((len(here), len(index)), dtype=np.int64)
        for r, m in enumerate(here):
            rest, sign = m, 1
            while rest:
                low = rest & -rest
                i = index.get(m ^ low)
                if i is not None:
                    mat[r, i] = sign
                rest ^= low
                sign = p - sign
        if p == 2:
            packed = np.packbits(mat.astype(bool), axis=1, bitorder="little")
            rank[d] = gf2_rank([int.from_bytes(row, "little") for row in packed])
        else:
            rank[d] = gfp_rank(mat, p)
    return {
        d: len(here) - rank.get(d, 0) - rank.get(d + 1, 0)
        for d, here in groups.items()
    }


# Face indicators are bits, 64 faces to a little-endian 64-bit word, face f
# at bit f % 64 of word f // 64.  _WITHOUT_VERTEX[v] marks the bits of the
# faces without vertex v, v < 6.
_WITHOUT_VERTEX = tuple(
    np.uint64(sum(1 << f for f in range(64) if not f >> v & 1)) for v in range(6)
)


def _refuse_wide(k: int) -> None:
    """Raise SizeCapExceededError if support size k is past _MAX_SUPPORT."""
    if k > _MAX_SUPPORT:
        raise SizeCapExceededError(
            f"support size {k} exceeds face-enumeration limit {_MAX_SUPPORT}",
            count=k,
        )


def _facet_pairs(G: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facets of the upper Koszul complexes K^b, one per generator dividing x^b.

    K^b is generated by one facet per generator g dividing x^b, the support
    positions j with g_j < b_j.  Returns (row, facet), both uint32: for
    each pair of a row b of lat and a generator g dividing x^b, in row
    order, the row's index and that facet as a bitmask over the support of
    b, bit i standing for its i-th position.  A row with no pair has a void
    K^b.  The pairs are found on the unary codes of the walk (_unary_codes),
    by one and-not each; only their facets are computed, from the columns
    they gather in the exponents' own dtype.  Each column's bit is shifted
    into place on its own, so the (pair, column) temporaries take a byte each.
    """
    on = lat > 0
    _refuse_wide(int(np.count_nonzero(on, axis=1).max(initial=0)))
    q = G.shape[0]
    w = max(1, int(G.max(initial=0)), int(lat.max(initial=0)))
    codes = _unary_codes(np.concatenate((G, lat)), w)
    gens, rows = codes[:q], codes[q:]
    divides = np.flatnonzero((gens & ~rows[:, None]) == 0).astype(np.uint32)
    row, gen = np.divmod(divides, np.uint32(q))
    rank = np.cumsum(on, axis=1, dtype=np.uint8) - on  # support positions before j
    below = np.take(G, gen, axis=0) < np.take(lat, row, axis=0)
    ranks = np.take(rank, row, axis=0)
    # The columns' bits are distinct, so or-ing them sums them.
    facets = np.zeros(row.size, dtype=np.uint32)
    for j in range(lat.shape[1]):
        facets |= np.left_shift(below[:, j], ranks[:, j], dtype=np.uint32)
    return row, facets


def _face_indicators(
    rows: int, row: np.ndarray, facets: np.ndarray, k: int
) -> np.ndarray:
    """(rows, max(1, 2^k / 64)) uint64 words: row r marks the faces of one complex.

    The complex of row r is the down-closure of the facets[i] with
    row[i] == r, uint32 bitmasks over k vertices; a row with no facet is
    void.  Every facet holds the empty face, so the closure marks it in
    every row that has a facet.  Face f is bit f % 64 of word f // 64
    (_WITHOUT_VERTEX); the vertices added for k < 6, and those above a
    row's own support in a batch padded to a wider one, lie in no face.
    The facets are marked through one flat index in a boolean scratch
    array of max(64, 2^k) columns, packed 64 to a word, then closed
    downwards one vertex v at a time: for v < 6 the face sigma + v is in
    the word of sigma, 2^v bits higher; for larger v it is 2^(v-6) words
    further on.  The flat index is uint32, so a batch holds fewer than 2^32
    faces; _batches' hold 2^25 at most.
    """
    width = max(64, 1 << k)
    ind = np.zeros((rows, width), dtype=bool)
    at = row.astype(np.uint32, copy=False) * np.uint32(width) + facets
    ind.reshape(-1)[at] = True
    words = np.packbits(ind, axis=1, bitorder="little").view("<u8")
    above = np.empty_like(words)
    for v in range(min(k, 6)):
        np.right_shift(words, np.uint64(1 << v), out=above)
        above &= _WITHOUT_VERTEX[v]
        words |= above
    for v in range(6, k):
        pairs = words.reshape(rows, 1 << (k - 1 - v), 2, 1 << (v - 6))
        pairs[:, :, 0] |= pairs[:, :, 1]
    return words


def _batch_rows(ks: np.ndarray):
    """Yield (lo, hi, k): one batch, the rows lo..hi-1, and its widest support size.

    ks holds the support size of each row, in ascending order.  Consecutive
    sizes share a batch while its rows, each max(8, 2^k) bytes at its
    widest k, fit in _MERGE_BYTES.  A size whose rows alone do not fit is
    cut into batches of its own, _CHUNK_BYTES / 4 at max(64, 2^k) a row.
    """
    floor = min(_MERGE_BYTES, _CHUNK_BYTES >> 2)
    starts = np.flatnonzero(np.diff(ks, prepend=-1)).tolist()
    held = top = None  # the first row of the batch being merged, its size
    for lo, hi in zip(starts, starts[1:] + [ks.size]):
        k = int(ks[lo])
        width = max(8, 1 << k)
        if held is not None and (hi - held) * width > floor:
            yield held, lo, top
            held = None
        if (hi - lo) * width <= floor:
            held, top = lo if held is None else held, k
            continue
        per = max(1, (_CHUNK_BYTES >> 2) // max(64, width))
        for at in range(lo, hi, per):
            yield at, min(at + per, hi), k
    if held is not None:
        yield held, ks.size, top


def _koszul_chunk(G: np.ndarray, lat: np.ndarray, ks: np.ndarray):
    """(part, ks, row, facets): the rows of lat by support size, with their facet pairs.

    ks holds the support size of each row of lat; the rows are sorted by
    it, stably, and so are the sizes returned.
    """
    order = np.argsort(ks, kind="stable")
    part = lat[order]
    return (part, ks[order], *_facet_pairs(G, part))


def _batches(ks: np.ndarray, row: np.ndarray, facets: np.ndarray):
    """Yield (lo, words, k): face indicators of K^b for the rows lo, lo + 1, ...

    ks are the rows' support sizes, in ascending order, and (row, facets)
    their facet pairs in row order, so that a batch (_batch_rows) is a
    slice of both.  A batch is padded to its widest support size k.  The
    vertices above a row's own support lie in no face, so they are never a
    cone point, never matched and never critical, and the batch settles
    each complex as one of its own size would.
    """
    for lo, hi, k in _batch_rows(ks):
        i, j = np.searchsorted(row, (lo, hi))
        yield lo, _face_indicators(hi - lo, row[i:j] - lo, facets[i:j], k), k


def _vertex_degrees(words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(deg, faces): faces through each vertex, (rows, max(1, k)), and all, (rows,).

    words is a batch of face indicators on k vertices (_face_indicators).
    For k = 0, deg is one column of zeros, so that its max and argmax over
    a row are defined.
    """
    rows, width = words.shape
    deg = np.zeros((rows, max(1, k)), dtype=np.int64)
    through = np.empty_like(words)
    for v in range(min(k, 6)):
        np.bitwise_and(words, ~_WITHOUT_VERTEX[v], out=through)
        deg[:, v] = np.bitwise_count(through).sum(axis=1)
    per_word = np.bitwise_count(words)
    for v in range(6, k):
        pairs = per_word.reshape(rows, width >> (v - 5), 2, 1 << (v - 6))
        deg[:, v] = pairs[:, :, 1].sum(axis=(1, 2))
    return deg, per_word.sum(axis=1)


def _critical_counts(words: np.ndarray, k: int) -> np.ndarray:
    """(rows, k + 1) counts of the critical faces of each row, by size.

    Element matchings on v = 0, ..., k - 1 in turn pair each face sigma
    without v with sigma + v while both are unmatched.  The empty face takes
    part, so the faces left unmatched are the critical cells of an acyclic
    matching on the augmented chain complex, and H~(K) is the homology of a
    complex with one generator in dimension c - 1 per critical face of c
    vertices.  words, a batch of face indicators on k vertices, is
    overwritten.  For v < 6 both faces of a pair share a word, 2^v bits
    apart; for larger v they sit 2^(v-6) words apart.
    """
    rows, width = words.shape
    both = np.empty_like(words)
    for v in range(min(k, 6)):
        shift = np.uint64(1 << v)
        np.right_shift(words, shift, out=both)
        both &= words
        both &= _WITHOUT_VERTEX[v]
        words ^= both
        both <<= shift
        words ^= both
    for v in range(6, k):
        pairs = words.reshape(rows, width >> (v - 5), 2, 1 << (v - 6))
        paired = both.reshape(pairs.shape)[:, :, 0]
        np.bitwise_and(pairs[:, :, 0], pairs[:, :, 1], out=paired)
        pairs[:, :, 0] ^= paired
        pairs[:, :, 1] ^= paired
    # Few faces are left: find their words first, then the bits in them.
    r, w = np.nonzero(words)
    bits = np.unpackbits(words[r, w].view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    j, bit = np.nonzero(bits)
    r, f = r[j], 64 * w[j] + bit
    counts = np.bincount(r * (k + 1) + np.bitwise_count(f),
                         minlength=rows * (k + 1))
    return counts.reshape(rows, k + 1)


def _star_quotients(ind: np.ndarray, star: np.ndarray):
    """Yield the cells of K relative to st(v), v = star[r], for each row of ind.

    The closed star st(v) of a vertex is a cone, so H~_d(K) = H_d(K, st v).
    The cells of K left are the faces sigma with sigma + v not in K; there
    are |K| - 2 deg v of them, the fewest for the vertex of largest degree.
    ind is boolean, one column per face; cells are sorted bitmasks.  Only
    the complexes whose critical faces lie in two or more dimensions come
    here, so every row has a vertex.
    """
    for r in range(ind.shape[0]):
        faces = np.flatnonzero(ind[r])
        bit = 1 << int(star[r])
        rest = faces[faces & bit == 0]
        yield rest[~ind[r, rest | bit]].tolist()


def _batch_homology(words: np.ndarray, k: int, p: int):
    """Yield (r, c, h) for each row r of words and each h = dim H~_{c-1}(K) > 0.

    words is a batch of face indicators on k vertices (_face_indicators).
    A complex is a cone, and contributes nothing, when |K| = 2 max deg v.
    The others are matched (_critical_counts).  When the critical faces all
    have c vertices, the Morse complex has zero differential, so their
    number is dim H~_{c-1} and no rank is taken.  Complexes with critical
    faces of two or more sizes are unpacked to one boolean per face and
    ranked on the closed-star quotient of their vertex of largest degree.
    """
    deg, faces = _vertex_degrees(words, k)
    live = np.flatnonzero(faces > 2 * deg.max(axis=1))
    crit = _critical_counts(words[live], k)
    dims = np.count_nonzero(crit, axis=1)
    single = crit[dims == 1]
    yield from zip(
        live[dims == 1].tolist(), single.argmax(axis=1).tolist(), single.max(axis=1).tolist()
    )
    ranked = live[dims > 1]
    ind = np.unpackbits(words[ranked].view(np.uint8), axis=1, bitorder="little")
    quotients = _star_quotients(ind.view(bool), deg[ranked].argmax(axis=1))
    for r, cells in zip(ranked.tolist(), quotients):
        for d, h in _homology_dims(cells, p).items():
            if h:
                yield r, d + 1, h


# ---------------------------------------------------------------------------
# lcm lattice
# ---------------------------------------------------------------------------

def _unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of codes, sorted, by one sort and a neighbour test.

    codes is flattened and sorted in place, so callers pass an array of
    their own.
    """
    codes = codes.reshape(-1)
    codes.sort()
    if codes.size == 0:
        return codes
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def _unary_fields(n: int, w: int):
    """(code, shifts): the scalar type of n unary fields w bits wide, their shifts.

    x1's field is the highest.  Codes are uint32 when n * w <= 32, int64
    when n * w < 64 and Python ints (dtype object) otherwise; np.object_(x)
    is x itself.
    """
    dtype = np.uint32 if n * w <= 32 else np.int64 if n * w < 64 else object
    shifts = np.array([w * (n - 1 - j) for j in range(n)], dtype=dtype)
    return np.dtype(dtype).type, shifts


def _unary_codes(rows: np.ndarray, w: int) -> np.ndarray:
    """The unary codes of the rows of an exponent matrix, fields w bits wide."""
    code, shifts = _unary_fields(rows.shape[1], w)
    field = code((1 << w) - 1)
    return ((field >> (code(w) - rows.astype(shifts.dtype))) << shifts).sum(
        axis=1, dtype=shifts.dtype
    )


def _not_full(codes: np.ndarray, gens: np.ndarray, low, step: int) -> np.ndarray:
    """The codes b whose K^b is not the full simplex on supp b, in their order.

    Those are b = 0 and the b for which no generator code divides the code
    (b >> 1) & low of x^b / x^supp(b); step codes are tested at a time.
    """
    keep = np.empty(codes.size, dtype=bool)
    one = codes.dtype.type(1)
    for lo in range(0, codes.size, step):
        part = codes[lo : lo + step]
        topped = (part[:, None] >> one) & low  # x^b / x^supp(b)
        keep[lo : lo + step] = (part == 0) | ((gens & ~topped) != 0).all(axis=1)
    return codes[keep]


def _lcm_lattice_encoded(G: np.ndarray, cap: int, prune: bool = False,
                         anchored: bool = False, mirror: bool = False) -> np.ndarray:
    """The lcm lattice of the generator rows of G, as rows in lex order.

    Rows are coded in unary (_unary_codes): field j holds b_j low set bits,
    every field is w = max G bits wide, and x1 has the highest field, so
    the order of codes is the order of rows.  The join with a generator is
    a bitwise or, g divides x^b iff code(g) & ~code(b) == 0, and
    (code >> 1) & low, where low clears the top bit of every field, codes
    x^b / x^supp(b).  Every scalar the codes meet has their type, so no
    promotion widens them.  Each round joins the newest points with every
    generator, a chunk of rows at a time; seen holds every code met so far,
    so no code is joined or tested twice.

    With prune, a point b != 0 whose K^b is the full simplex on supp b (some
    generator divides x^b / x^supp(b)) is dropped as soon as it appears and
    never joined further.  That returns exactly the other lattice points,
    because the full points form an up-set, closed under joining with any
    generator: every lcm-chain to a kept point passes through kept points.

    With anchored, the walk starts from the generators with g_1 > 0 only and
    returns exactly the points with b_1 > 0: each is g v h_1 v ... v h_r for
    some such g, and every point on that chain has b_1 > 0 and lies below
    its end, so with prune too the up-set argument holds as before.

    With mirror (the reversal of the variables fixes the generators), each
    code met is replaced by the smaller of itself and its mirror before it
    is deduplicated, so one of each pair is kept; with anchored, the mirror
    reverses the window b[:m], m the last nonzero position.  The anchored
    points of span m are closed under joins with the generators of span
    <= m, which that reversal permutes, and their least ones are the joins
    g v h, g_1 > 0, h of span m.  So the first round joins every g, g_1 > 0,
    and each point is reached along the mirrors of its chain.  The cap counts
    the points kept, the first too, and both of a pair: 2 a code until the
    count could refuse, when the palindromes are found and count once.
    """
    q, n = G.shape
    w = max(1, int(G.max(initial=0)))
    code, shifts = _unary_fields(n, w)
    field = code((1 << w) - 1)
    low = code(sum((int(field) >> 1) << int(s) for s in shifts))
    ones = code(sum(1 << int(s) for s in shifts))
    gens = _unary_codes(G, w)
    step = max(1, _CHUNK_BYTES // max(1, q * n * 8))

    def rev(codes):  # with anchored, times the lowest bit: the window moves up n - m fields
        fields = codes >> shifts[:, None]
        fields &= field
        fields <<= shifts[::-1, None]
        flipped = fields.sum(axis=0, dtype=shifts.dtype)
        return flipped * (codes & -codes) if anchored else flipped

    def canon(codes):  # distinct and sorted; with mirror, the smaller of each pair
        codes = _unique(codes)
        return _unique(np.minimum(codes, rev(codes))) if mirror else codes

    start = gens[G[:, 0] > 0] if anchored else gens
    seen = canon(start.copy())
    frontier = _not_full(seen, gens, low, step) if prune else seen
    kept, count = [frontier], frontier.size * (1 + mirror)
    joined = start if anchored and mirror else frontier
    while joined.size:
        if count > cap and mirror:  # a chunk of q * step codes at a time
            count = sum(c.size + int(np.count_nonzero(rev(c) != c)) for k in kept
                        for c in np.split(k, range(q * step, k.size, q * step)))
        if count > cap:
            raise SizeCapExceededError(
                f"lcm lattice exceeded cap {cap} (reached {count})", count=count
            )
        fresh = []
        for lo in range(0, joined.size, step):
            codes = canon(joined[lo : lo + step, None] | gens)
            pos = np.minimum(np.searchsorted(seen, codes), seen.size - 1)
            fresh.append(codes[seen[pos] != codes])
        # One chunk's codes are already distinct and sorted.
        tested = fresh[0] if len(fresh) == 1 else _unique(np.concatenate(fresh))
        # A stable sort merges the two sorted runs in linear time.
        seen = np.concatenate((seen, tested))
        seen.sort(kind="stable")
        joined = frontier = _not_full(tested, gens, low, step) if prune else tested
        kept.append(frontier)
        count += frontier.size * (1 + mirror)
    points = np.sort(np.concatenate(kept))
    # b_j is the number of set bits in field j.  Adding (code >> i) & ones
    # over i < w counts them into the bottom of each field; a count is at
    # most w < 2^w, so it never carries into the next field.
    counts = sum(((points >> code(i)) & ones for i in range(w)), code(0))
    return ((counts[:, None] >> shifts) & field).astype(np.int64)


def lcm_lattice(
    ideal: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP
) -> list[Monomial]:
    """The full lcm lattice: all lcms of nonempty generator subsets, sorted.

    Unlike the walk betti_table makes, nothing is pruned.
    """
    if ideal.is_zero():
        return []
    lat = _lcm_lattice_encoded(ideal.exponents, cap)
    return [Monomial(tuple(int(x) for x in row)) for row in lat]


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BettiTable:
    """Multigraded Betti numbers of a monomial ideal over GF(p).

    Entry k is beta_{index[k], degrees[k]} = ranks[k] > 0: index holds the
    homological indices, degrees the multidegrees (one row of ambient
    exponents each) and ranks the ranks.  The entries are in strictly
    increasing (i, b) order.  The arrays are int64 and read-only, because a
    sweep cell shares one table among its rows.  Tables are equal when their
    entries are; graded and total numbers are roll-ups of them.
    """

    ambient: int
    characteristic: int
    index: np.ndarray
    degrees: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.int64)
        arrays = {
            "index": index,
            "degrees": np.asarray(self.degrees, dtype=np.int64).reshape(
                index.size, self.ambient
            ),
            "ranks": np.asarray(self.ranks, dtype=np.int64),
        }
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.ambient, self.characteristic) == (
            other.ambient, other.characteristic
        ) and all(
            np.array_equal(a, b)
            for a, b in zip((self.index, self.degrees, self.ranks),
                            (other.index, other.degrees, other.ranks))
        )

    @cached_property
    def entries(self) -> Mapping[tuple[int, tuple[int, ...]], int]:
        """{(i, multidegree): rank}, read-only; built on first access."""
        keys = zip(self.index.tolist(), map(tuple, self.degrees.tolist()))
        return MappingProxyType(dict(zip(keys, self.ranks.tolist())))

    @cached_property
    def total_degrees(self) -> np.ndarray:
        """The total degree |b| of each entry, read-only; the roll-ups share it."""
        sums = self.degrees.sum(axis=1)
        sums.setflags(write=False)
        return sums

    def is_empty(self) -> bool:
        return not self.ranks.size

    def totals(self) -> dict[int, int]:
        # index is sorted, so each i is one run
        starts = np.flatnonzero(np.diff(self.index, prepend=-1))
        sums = np.add.reduceat(self.ranks, starts)
        return dict(zip(self.index[starts].tolist(), sums.tolist()))

    def graded(self) -> dict[tuple[int, int], int]:
        """Graded Betti numbers {(i, total degree j): rank}."""
        order = np.lexsort((self.total_degrees, self.index))
        i, j = self.index[order], self.total_degrees[order]
        starts = np.flatnonzero(np.diff(i, prepend=-1) | np.diff(j, prepend=-1))
        sums = np.add.reduceat(self.ranks[order], starts)
        return dict(zip(zip(i[starts].tolist(), j[starts].tolist()), sums.tolist()))

    def max_index(self) -> int:
        if not self.ranks.size:
            raise ValueError("empty Betti table")
        return int(self.index[-1])

    def quotient_regularity(self) -> int:
        """reg R/I = max(|b| - i) - 1 over the nonzero entries of I."""
        if not self.ranks.size:
            raise ValueError("empty Betti table")
        return int((self.total_degrees - self.index).max()) - 1

    def quotient_projective_dimension(self) -> int:
        """pd R/I = 1 + max homological index of I."""
        return 1 + self.max_index()

    def is_linear(self) -> bool:
        """True iff generated in one degree d with all entries at j = i + d.

        That is: an entry has i = 0, and |b| - i is the same for every entry.
        """
        if not self.ranks.size or self.index[0]:
            return False
        strand = self.total_degrees - self.index
        return bool((strand == strand[0]).all())

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "char": self.characteristic,
            "entries": [
                {"i": i, "multidegree": b, "rank": r}
                for i, b, r in zip(
                    self.index.tolist(), self.degrees.tolist(), self.ranks.tolist()
                )
            ],
            "graded": [
                {"i": i, "j": j, "rank": r}
                for (i, j), r in self.graded().items()
            ],
        }

    def __str__(self) -> str:
        if not self.ranks.size:
            return "empty Betti table"
        graded = self.graded()
        imax = self.max_index()
        lines = ["j\\i " + " ".join(f"{i:>5}" for i in range(imax + 1))]
        js = sorted({j for (_, j) in graded})
        for j in js:
            row = [graded.get((i, j), 0) for i in range(imax + 1)]
            lines.append(
                f"{j:>3} " + " ".join(f"{r:>5}" if r else "    ." for r in row)
            )
        return "\n".join(lines)


def _shift_closed(G: np.ndarray) -> bool:
    """Whether the generators, the rows of G, are closed under translation.

    That is: there are two or more variables, no generator is 1, and
    shifting the generators with g_1 = 0 one place left gives exactly those
    with g_n = 0.  Generators are sorted, and the shift keeps their order.
    """
    return bool(
        G.shape[1] > 1
        and G.any(axis=1).all()
        and np.array_equal(G[G[:, 0] == 0, 1:], G[G[:, -1] == 0, :-1])
    )


def _spans(lat: np.ndarray, anchored: bool) -> np.ndarray:
    """The window m of each row: its last nonzero position when anchored, else n."""
    n = lat.shape[1]
    if anchored:
        return n - (lat[:, ::-1] > 0).argmax(axis=1)
    return np.full(lat.shape[0], n)


def _reversed_windows(lat: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Each row b of lat with its window b[:m], m = span, reversed.

    Rows are zero past their span, and stay so.
    """
    j = np.arange(lat.shape[1])
    at = span[:, None] - 1 - j
    return lat[np.arange(lat.shape[0])[:, None], np.where(at >= 0, at, j)]


def _big_endian(values: np.ndarray) -> np.ndarray:
    """The values, nonnegative, as big-endian unsigned ints of the narrowest width.

    Read as byte strings, rows of the result compare as the rows of values
    do lexicographically.
    """
    width = np.min_scalar_type(int(values.max(initial=0))).itemsize
    return values.astype(f">u{width}")


def _write_entries(
    n: int, p: int, points: np.ndarray, index: np.ndarray, ranks: np.ndarray,
    shift: bool, mirror: bool,
) -> BettiTable:
    """The table of the walked entries beta_{index[k], points[k]} = ranks[k].

    With mirror, the reversed window of each point is an entry too, once
    for a palindrome.  With shift, every entry is written at each offset its
    window b[:m], m the last nonzero position, fits.  The copies are made by
    broadcasting and sorted into (i, b) order; no two coincide, because the
    walked points are distinct anchored windows and one of each mirror pair.
    """
    span = _spans(points, shift)
    if mirror:
        rev = _reversed_windows(points, span)
        new = (rev != points).any(axis=1)
        points = np.concatenate((points, rev[new]))
        index, ranks, span = (np.concatenate((a, a[new])) for a in (index, ranks, span))
    # a copy of entry row at each offset at <= n - span: it moves b right
    row, at = np.nonzero(np.arange(n + 1) <= (n - span)[:, None])
    source = np.arange(n) - at[:, None]
    rows = np.column_stack(
        (index[row], np.where(source >= 0, points[row[:, None], source], 0))
    )
    keys = _big_endian(rows)
    order = np.argsort(keys.view(f"S{keys.itemsize * (n + 1)}").ravel())
    rows = rows[order]
    return BettiTable(n, p, rows[:, 0], rows[:, 1:], ranks[row[order]])


def _walk(ideal: MonomialIdeal, lattice_cap: int):
    """(G, lat, ks, shift, mirror): the points whose complexes are settled.

    lat is the pruned walk, anchored when shift (_shift_closed) holds, and
    walked one point of each mirror pair when mirror does: the reversal of
    the variables maps the sorted generator rows G onto themselves.  G and
    lat come in the narrowest type that holds their exponents, in which
    they compare fastest.  ks holds the support size of each point.  Both
    caps, the lattice cap and _MAX_SUPPORT, are checked here.
    """
    G = ideal.exponents
    shift = _shift_closed(G)
    mirror = ideal.ambient > 1 and np.array_equal(G[np.lexsort(G.T), ::-1], G)
    lat = _lcm_lattice_encoded(G, lattice_cap, prune=True, anchored=shift, mirror=mirror)
    small = np.min_scalar_type(max(int(G.max(initial=0)), int(lat.max(initial=0))))
    lat = lat.astype(small)
    ks = np.count_nonzero(lat, axis=1)
    _refuse_wide(int(ks.max(initial=0)))
    return G.astype(small), lat, ks, shift, mirror


def _pooled_homology(pool: list, p: int):
    """Yield (j, rows, c, h): dim H~_{c-1} K^b = h > 0 at those rows of chunk pool[j].

    pool holds chunks (part, ks, row, facets) of any ideals.  A pool of one
    chunk is batched as it is; the rows of several are merged by support
    size first, stably, and their facet pairs follow their rows.  K^b is
    built from the facets alone, so a batch settles the complexes of
    several ideals at once.  rows, c and h are arrays, one item per class.
    """
    if len(pool) == 1:
        (_, ks, row, facets), = pool
    else:
        starts = np.cumsum([0] + [len(ks) for _, ks, _, _ in pool])
        ks = np.concatenate([ks for _, ks, _, _ in pool])
        merged = np.argsort(ks, kind="stable")
        ks = ks[merged]
        at = np.empty(merged.size, dtype=np.uint32)  # the merged place of each row
        at[merged] = np.arange(merged.size, dtype=np.uint32)
        row = at[np.concatenate([row + np.uint32(start)
                                 for (_, _, row, _), start in zip(pool, starts.tolist())])]
        by = np.argsort(row, kind="stable")
        row, facets = row[by], np.concatenate([f for *_, f in pool])[by]
    found = []
    for lo, words, k in _batches(ks, row, facets):
        hits = np.array(list(_batch_homology(words, k, p)), dtype=np.int64).reshape(-1, 3)
        hits[:, 0] += lo
        found.append(hits)
    rows, c, h = np.concatenate(found).T
    if len(pool) == 1:
        yield 0, rows, c, h
        return
    rows = merged[rows]
    owner = np.searchsorted(starts, rows, side="right") - 1
    by = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[by], np.arange(len(pool) + 1))
    for j in np.flatnonzero(np.diff(bounds)).tolist():
        mine = by[bounds[j] : bounds[j + 1]]
        yield j, rows[mine] - starts[j], c[mine], h[mine]


def betti_tables(
    ideals: Iterable[MonomialIdeal],
    fieldspec: FieldSpec = GF2,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> list[BettiTable | SizeCapExceededError]:
    """The full multigraded Betti table of each ideal over GF(p), in order.

    An ideal whose walk trips the lattice cap, or whose support is too wide
    for the face enumeration, gets the SizeCapExceededError instead, and the
    other ideals still get their tables.

    Only lattice points whose K^b is not a full simplex are visited.
    beta_{i,b} depends only on the generators dividing x^b, which build K^b.
    So when the generators are closed under translation (_shift_closed),
    beta_{i,b} = beta_{i,shift b} for every b with b_1 = 0: only the points
    with b_1 > 0 are walked, and each entry is written at every offset its
    window b[:m], m the last nonzero position, fits.  When the reversal
    x_i -> x_{n+1-i} fixes the generators, it maps K^b onto K^{rev b}, so
    beta_{i,b} = beta_{i,rev b}; with translation, beta_{i,b} equals the
    beta of the reversed window rev(b[:m]).  Then the walk keeps one of
    each pair, within the window, and only it is computed.

    Each ideal walks its own lattice, under its own caps, and finds its own
    facet pairs a chunk at a time (_koszul_chunk).  beta_{i,b} depends on
    K^b alone, so the chunks of consecutive ideals are pooled while their
    costs fit _CHUNK_BYTES, and each pool is settled in batches by element
    matchings (_pooled_homology); a rank is taken only for the complexes
    whose critical faces have two or more sizes.
    """
    p = fieldspec.characteristic
    ideals = list(ideals)
    tables: list = [None] * len(ideals)
    walks = {}  # slot -> (shift, mirror) of each ideal walked
    found = {}  # slot -> [points], [i], [rank] of its walked entries
    pool, owners, held = [], [], 0  # chunks, the slot of each, their cost
    none = np.zeros(0, dtype=np.int64)

    def settle():
        for j, rows, c, h in _pooled_homology(pool, p):
            for entries, new in zip(found[owners[j]], (pool[j][0][rows], c, h)):
                entries.append(new)
        pool.clear()
        owners.clear()

    for slot, ideal in enumerate(ideals):
        n = ideal.ambient
        if ideal.is_zero():
            tables[slot] = BettiTable(n, p, (), (), ())
            continue
        try:
            G, lat, ks, shift, mirror = _walk(ideal, lattice_cap)
        except SizeCapExceededError as exc:
            # Dropping the traceback frees the walk it holds.
            tables[slot] = exc.with_traceback(None)
            continue
        walks[slot] = shift, mirror
        found[slot] = ([np.zeros((0, n), dtype=np.int64)], [none], [none])
        # A chunk's rows cost q * n * 8 bytes each; a full pool is settled
        # before the next chunk's facet pairs are found.
        row_cost = max(1, G.size * 8)
        step = max(1, _CHUNK_BYTES // row_cost)
        for lo in range(0, lat.shape[0], step):
            cost = min(step, lat.shape[0] - lo) * row_cost
            if pool and held + cost > _CHUNK_BYTES:
                settle()
                held = 0
            pool.append(_koszul_chunk(G, lat[lo : lo + step], ks[lo : lo + step]))
            owners.append(slot)
            held += cost
    if pool:
        settle()
    for slot, entries in found.items():
        tables[slot] = _write_entries(ideals[slot].ambient, p,
                                      *map(np.concatenate, entries), *walks[slot])
    return tables


def betti_table(
    ideal: MonomialIdeal,
    fieldspec: FieldSpec = GF2,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """The full multigraded Betti table of one ideal over GF(p): betti_tables([ideal])[0].

    Raises the SizeCapExceededError that betti_tables puts in its place.
    """
    table = betti_tables([ideal], fieldspec, lattice_cap)[0]
    if isinstance(table, SizeCapExceededError):
        raise table
    return table
