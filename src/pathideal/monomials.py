"""Exact arithmetic for monomials and monomial ideals in a fixed ambient ring.

Monomials are dense exponent vectors over variables x1..xn.  Ideals store
their unique minimal generating set, sorted lexicographically by exponent
vector, so equal ideals compare equal structurally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from typing import Iterable

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
    "mono_divides",
    "mono_pow",
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

    def support(self) -> frozenset[int]:
        """1-based indices of the variables dividing this monomial."""
        return frozenset(i + 1 for i, e in enumerate(self.exponents) if e)

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


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held as its minimal generating set.

    Generators are pairwise incomparable under divisibility and sorted
    lexicographically by exponent vector.  The zero ideal has no generators.
    Build instances through minimalize() unless the input is already in this
    canonical form, which is checked unless validate is False.
    """

    ambient: int
    generators: tuple[Monomial, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not validate:
            return
        if self.ambient < 0:
            raise ValueError("negative ambient")
        seen: set[tuple[int, ...]] = set()
        for g in self.generators:
            if g.ambient != self.ambient:
                raise AmbientMismatchError(
                    f"generator ambient {g.ambient} != ideal ambient {self.ambient}"
                )
            if g.exponents in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g.exponents)
        exps = [g.exponents for g in self.generators]
        if exps != sorted(exps):
            raise ValueError("generators not sorted canonically")
        minimal = _minimal_rows(exps)
        if not all(minimal):
            b = self.generators[minimal.index(False)]
            a = next(g for g in self.generators if g != b and mono_divides(g, b))
            raise ValueError(f"non-minimal generators {a}, {b}")

    def is_zero(self) -> bool:
        return not self.generators

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def minimalize(gens: Iterable[Monomial], ambient: int | None = None) -> MonomialIdeal:
    """Drop duplicates and any generator divisible by another one.

    The ambient is inferred from the generators; pass it explicitly to build
    the zero ideal from an empty iterable.
    """
    gens = list(gens)
    if not gens:
        if ambient is None:
            raise ValueError("ambient required for an empty generating set")
        return MonomialIdeal(ambient, ())
    amb = gens[0].ambient
    if ambient is not None and ambient != amb:
        raise AmbientMismatchError(f"ambient mismatch: {ambient} vs {amb}")
    for g in gens[1:]:
        _same_ambient(gens[0], g)
    by_exps = {g.exponents: g for g in gens}
    ordered = sorted(by_exps)
    kept = [by_exps[e] for e, keep in zip(ordered, _minimal_rows(ordered)) if keep]
    # Sorted, distinct, one ambient and minimal by construction.
    return MonomialIdeal(amb, tuple(kept), validate=False)


def _minimal_rows(exps: list[tuple[int, ...]]) -> list[bool]:
    """For distinct exponent vectors: True where no other vector divides it.

    A proper divisor has a smaller degree, so each degree level is compared
    only with the minimal vectors of the lower levels, a chunk of rows at a
    time within _CHUNK_BYTES.  Vectors of a single degree need no comparison.
    """
    degrees = [sum(e) for e in exps]
    levels = sorted(set(degrees))
    if len(levels) < 2:
        return [True] * len(exps)
    E = np.array(exps, dtype=np.int64)
    deg = np.array(degrees)
    minimal = np.ones(len(exps), dtype=bool)
    below = E[deg == levels[0]]
    for d in levels[1:]:
        rows = np.flatnonzero(deg == d)
        step = max(1, _CHUNK_BYTES // below.size)
        for lo in range(0, rows.size, step):
            part = rows[lo : lo + step]
            divided = (below <= E[part, None, :]).all(axis=2).any(axis=1)
            minimal[part] = ~divided
        below = np.concatenate([below, E[rows[minimal[rows]]]])
    return minimal.tolist()


def _exponent_matrix(gens: Iterable[Monomial], ambient: int) -> np.ndarray:
    """The exponent vectors of gens as the rows of an int64 matrix."""
    rows = [g.exponents for g in gens]
    return np.array(rows, dtype=np.int64).reshape(len(rows), ambient)


def _ideal_of_rows(rows: np.ndarray, ambient: int) -> MonomialIdeal:
    """The ideal generated by the rows of an exponent matrix, minimalized.

    Monomials are built only for the minimal rows.
    """
    ordered = sorted(set(map(tuple, rows.tolist())))
    kept = [Monomial(e) for e, keep in zip(ordered, _minimal_rows(ordered)) if keep]
    return MonomialIdeal(ambient, tuple(kept), validate=False)


def _colon_of_rows(rows: np.ndarray, m: Monomial) -> MonomialIdeal:
    """The colon by m of the ideal generated by the rows of an exponent matrix."""
    quotients = np.maximum(rows - np.array(m.exponents, dtype=np.int64), 0)
    return _ideal_of_rows(quotients, m.ambient)


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal I : m, minimalized."""
    if m.ambient != ideal.ambient:
        raise AmbientMismatchError(
            f"ambient mismatch: {m.ambient} vs {ideal.ambient}"
        )
    return _colon_of_rows(_exponent_matrix(ideal.generators, ideal.ambient), m)


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
    combos = itertools.combinations_with_replacement(range(q), s)
    step = max(1, _CHUNK_BYTES // (8 * (s * n + q)))
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, step))
        idx = np.fromiter(flat, dtype=np.intp).reshape(-1, s)
        if not idx.size:
            return
        over = np.flatnonzero(degrees[idx].sum(axis=1) > EXPONENT_CAP)
        if s > 1 and over.size:
            # name the first partial product over the cap
            partial = list(itertools.accumulate(degrees[idx[over[0]]].tolist()))
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
    E = _exponent_matrix(ideal.generators, ideal.ambient)
    products = [rows for _, rows in _power_products(E, s, max_products)]
    return _ideal_of_rows(np.concatenate(products), ideal.ambient)
