"""Exact arithmetic for monomials and monomial ideals in a fixed ambient ring.

Monomials are dense exponent vectors over variables x1..xn.  Ideals store
their unique minimal generating set as an int64 exponent matrix, rows sorted
lexicographically, so equal ideals compare equal structurally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AmbientMismatchError,
    ExponentOverflowError,
    SizeCapExceededError,
)

__all__ = [
    "EXPONENT_CAP",
    "POWER_PRODUCT_CAP",
    "Monomial",
    "MonomialIdeal",
    "format_monomial",
    "minimalize",
    "colon_by_monomial",
    "ideal_power",
]

# Hard cap on any single exponent or total degree; exceeding it is an error,
# never a silent wrap.
EXPONENT_CAP = 1 << 16

# Default cap on the number of s-fold generator products enumerated by
# ideal_power and power_generators.
POWER_PRODUCT_CAP = 200_000

# Byte budget for the scratch arrays of one chunk of a numpy pass.
_CHUNK_BYTES = 1 << 24


@dataclass(frozen=True)
class Monomial:
    """A monomial as a dense exponent vector; the zero vector is the unit 1."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if min(self.exponents, default=0) < 0:
            raise ValueError(f"negative exponent in {self.exponents!r}")
        if max(self.exponents, default=0) > EXPONENT_CAP:
            raise ExponentOverflowError(
                f"exponent above cap {EXPONENT_CAP} in {self.exponents!r}"
            )

    @property
    def ambient(self) -> int:
        """Number of variables of the ambient ring."""
        return len(self.exponents)

    @property
    def degree(self) -> int:
        """Total degree."""
        return sum(self.exponents)

    def is_unit(self) -> bool:
        return not any(self.exponents)

    def __str__(self) -> str:
        return format_monomial(self)


def format_monomial(m: Monomial) -> str:
    """Render the text form: ``*``-joined powers, ``1`` for the unit."""
    if m.is_unit():
        return "1"
    parts = []
    for i, e in enumerate(m.exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def _same_ambient(a: Monomial, b: Monomial) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatchError(
            f"ambient mismatch: {a.ambient} vs {b.ambient} variables"
        )


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal held as its minimal generating set.

    exponents is a read-only int64 matrix with one minimal generator per
    row: the rows strictly increase lexicographically and no row divides
    another.  The zero ideal has no rows.  Build instances through
    minimalize() unless the rows are already in this canonical form, which
    is checked unless validate is False.  generators gives the rows as
    Monomials, built on first access, for printing.
    """

    ambient: int
    exponents: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not validate:
            return
        if self.ambient < 0:
            raise ValueError("negative ambient")
        E = _as_rows(self.exponents, self.ambient).copy()
        E.setflags(write=False)
        object.__setattr__(self, "exponents", E)
        S = E[_lex_order(E)]
        same = (S[1:] == S[:-1]).all(axis=1)
        if same.any():
            raise ValueError(f"duplicate generator {_monomial(S[same.argmax()])}")
        if not np.array_equal(S, E):
            raise ValueError("generators not sorted canonically")
        minimal = _minimal_rows(E)
        if minimal is not None and not minimal.all():
            b = E[minimal.argmin()]
            a = E[((E <= b).all(axis=1) & (E != b).any(axis=1)).argmax()]
            raise ValueError(f"non-minimal generators {_monomial(a)}, {_monomial(b)}")

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, map(tuple, self.exponents.tolist())))

    def is_zero(self) -> bool:
        return not len(self.exponents)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ambient == other.ambient and np.array_equal(self.exponents,
                                                                other.exponents)

    def __hash__(self):
        return hash((self.ambient, len(self.exponents), self.exponents.tobytes()))

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _monomial(row: np.ndarray) -> Monomial:
    return Monomial(tuple(row.tolist()))


def _as_rows(rows, ambient: int) -> np.ndarray:
    """rows as an int64 matrix of ambient columns, checked as Monomial checks."""
    E = np.asarray(rows)
    if E.ndim == 1 and not E.size:
        E = E.reshape(0, ambient)  # no generators
    if E.ndim != 2:
        raise ValueError(f"exponent matrix of {E.ndim} dimensions")
    if E.shape[1] != ambient:
        raise AmbientMismatchError(
            f"generator ambient {E.shape[1]} != ideal ambient {ambient}"
        )
    if E.size and E.dtype.kind not in "iu":
        raise ValueError(f"exponents must be integers, not {E.dtype}")
    E = E.astype(np.int64, copy=False)
    # negative exponents read as unsigned are above the cap too
    if E.size and E.view(np.uint64).max() > EXPONENT_CAP:
        _monomial(E[((E < 0) | (E > EXPONENT_CAP)).any(axis=1).argmax()])  # raises
    return E


def _lex_order(E: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows of E lexicographically."""
    if not E.shape[1]:
        return np.arange(len(E))
    return np.lexsort(E.T[::-1])


def minimalize(gens, ambient: int | None = None) -> MonomialIdeal:
    """The ideal generated by gens: duplicates and divisible generators dropped.

    gens is an integer matrix with one exponent vector per row, or an
    iterable of Monomials.  The ambient is the width of the matrix or of the
    Monomials; pass it explicitly to build the zero ideal from no Monomials.
    The rows are sorted with one lexsort, duplicates dropped by comparing
    neighbours, and the minimal ones kept.
    """
    if not isinstance(gens, np.ndarray):
        gens = list(gens)
        if not gens and ambient is None:
            raise ValueError("ambient required for an empty generating set")
        for g in gens[1:]:
            _same_ambient(gens[0], g)
        width = gens[0].ambient if gens else ambient
        gens = np.array([g.exponents for g in gens], dtype=np.int64).reshape(
            len(gens), width)
    amb = gens.shape[-1] if gens.ndim else 0
    if ambient is not None and ambient != amb:
        raise AmbientMismatchError(f"ambient mismatch: {ambient} vs {amb}")
    S = _sorted_distinct(_as_rows(gens, amb))
    minimal = _minimal_rows(S)
    if minimal is not None:
        S = S[minimal]
    S.setflags(write=False)
    # Sorted, distinct and minimal by construction.
    return MonomialIdeal(amb, S, validate=False)


def _minimal_rows(E: np.ndarray) -> np.ndarray | None:
    """For distinct exponent vectors: True where no other vector divides it.

    A proper divisor has a smaller degree, so the rows are taken in
    increasing degree, and each degree level is compared only with the
    minimal rows of the lower levels, by _last_divisor.  Vectors of a
    single degree need no comparison: for them the result is None, which
    means that every row is minimal.
    """
    deg = E.sum(axis=1)
    if not deg.size or deg.min() == deg.max():
        return None
    order = np.argsort(deg, kind="stable")
    D, deg = E[order], deg[order]
    starts = (np.flatnonzero(deg[1:] != deg[:-1]) + 1).tolist()  # of each level
    kept = np.ones(len(E), dtype=bool)
    below = D[: starts[0]]
    for lo, hi in zip(starts, starts[1:] + [len(D)]):
        kept[lo:hi] = _last_divisor(D[lo:hi], below) == 0
        if hi < len(D):
            below = np.concatenate((below, D[lo:hi][kept[lo:hi]]))
    minimal = np.empty(len(E), dtype=bool)
    minimal[order] = kept
    return minimal


def _sorted_distinct(E: np.ndarray) -> np.ndarray:
    """The distinct rows of E in increasing lexicographic order."""
    S = E[_lex_order(E)]
    fresh = (S[1:] != S[:-1]).any(axis=1)
    if not fresh.all():
        S = S[np.concatenate(([True], fresh))]
    return S


def _last_divisor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """For each row of A: 1 + the largest k such that row k of B divides it, else 0.

    A chunk of A's rows at a time, so that the (rows, len(B), n) comparison
    stays within _CHUNK_BYTES; a test for "some row of B divides it" reads
    the result as > 0.
    """
    last = np.zeros(len(A), dtype=np.intp)
    if not len(B):
        return last
    step = max(1, _CHUNK_BYTES // max(B.size, 1))
    for a in range(0, len(A), step):
        divides = (B <= A[a : a + step, None, :]).all(axis=2)
        last[a : a + step] = np.where(divides.any(axis=1),
                                      len(B) - divides[:, ::-1].argmax(axis=1), 0)
    return last


def _colon_of_rows(rows: np.ndarray, m: np.ndarray) -> MonomialIdeal:
    """The colon by the exponent vector m of the ideal the rows generate."""
    return minimalize(np.maximum(rows - m, 0), len(m))


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal I : m, minimalized."""
    if m.ambient != ideal.ambient:
        raise AmbientMismatchError(
            f"ambient mismatch: {m.ambient} vs {ideal.ambient}"
        )
    return _colon_of_rows(ideal.exponents, np.array(m.exponents, dtype=np.int64))


def _power_products(E: np.ndarray, s: int, max_products: int):
    """The s-fold products of the rows of E, a chunk at a time within _CHUNK_BYTES.

    Yields (counts, rows) per chunk: counts[r, i] is how often row i of E is
    a factor of product r, and rows[r] = counts[r] @ E.  The factor multisets
    come in lexicographic order, so their counts are lexicographically
    decreasing.  Raises SizeCapExceededError when there are more than
    max_products products, and ExponentOverflowError naming the first
    partial product whose degree is above EXPONENT_CAP; never truncates.
    """
    q, n = E.shape
    count = math.comb(q + s - 1, s)
    if count > max_products:
        raise SizeCapExceededError(
            f"I^{s} needs {count} products of {q} generators, cap {max_products}",
            count=count,
        )
    degrees = E.sum(axis=1)
    # no product is over the cap unless s copies of the largest one are
    bounded = s == 1 or s * int(degrees.max()) <= EXPONENT_CAP
    combos = itertools.combinations_with_replacement(range(q), s)
    step = max(1, _CHUNK_BYTES // (8 * (s * n + q)))
    for lo in range(0, count, step):
        flat = itertools.chain.from_iterable(itertools.islice(combos, step))
        size = min(step, count - lo)
        idx = np.fromiter(flat, dtype=np.intp, count=size * s).reshape(size, s)
        over = [] if bounded else degrees[idx].sum(axis=1) > EXPONENT_CAP
        if np.any(over):
            # name the first partial product over the cap
            partial = list(itertools.accumulate(degrees[idx[over.argmax()]].tolist()))
            first = next(d for d in partial[1:] if d > EXPONENT_CAP)
            raise ExponentOverflowError(f"degree {first} above cap {EXPONENT_CAP}")
        cells = idx + q * np.arange(len(idx))[:, None]  # flat (product, factor)
        counts = np.bincount(cells.ravel(), minlength=len(idx) * q)
        yield counts.reshape(-1, q), E[idx].sum(axis=1)


def ideal_power(
    ideal: MonomialIdeal, s: int, max_products: int = POWER_PRODUCT_CAP
) -> MonomialIdeal:
    """The power I^s via all s-fold generator products, minimalized.

    Aborts with SizeCapExceededError when the product count would exceed
    max_products; never truncates silently.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if ideal.is_zero():
        return ideal
    products = [rows for _, rows in _power_products(ideal.exponents, s, max_products)]
    return minimalize(np.concatenate(products), ideal.ambient)
