"""Path ideals of path graphs and the composition bookkeeping for their powers.

For a path graph on vertices x1..xn, the t-path ideal is generated by the
monomials u_i = x_i * x_{i+1} * ... * x_{i+t-1} for i = 1..n-t+1.  Every
minimal generator of the s-th power is u_1^{a_1} * ... * u_k^{a_k} for
exactly one composition (a_1, ..., a_k) of s into k = n-t+1 parts: the
multiplicities of the factors of an s-fold product of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .monomials import (
    POWER_PRODUCT_CAP,
    Monomial,
    MonomialIdeal,
    _exponent_matrix,
    _power_products,
    minimalize,
)

__all__ = [
    "PathIdealSpec",
    "Composition",
    "line_graph_generators",
    "path_ideal",
    "power_generators",
    "composition_count",
]


@dataclass(frozen=True)
class PathIdealSpec:
    """Parameters of a t-path ideal on a path with n vertices."""

    n: int
    t: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")

    @property
    def num_generators(self) -> int:
        """Number of t-paths, n - t + 1, or 0 when n < t."""
        return max(self.n - self.t + 1, 0)


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of non-negative parts with a fixed sum."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if min(self.parts) < 0:
            raise ValueError(f"negative part in {self.parts!r}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def line_graph_generators(spec: PathIdealSpec) -> list[Monomial]:
    """The path monomials u_1, ..., u_{n-t+1}; empty when n < t."""
    gens = []
    for i in range(spec.num_generators):
        exps = [0] * spec.n
        for j in range(i, i + spec.t):
            exps[j] = 1
        gens.append(Monomial(tuple(exps)))
    return gens


def path_ideal(spec: PathIdealSpec) -> MonomialIdeal:
    """The t-path ideal itself; the zero ideal when n < t."""
    return minimalize(line_graph_generators(spec), ambient=spec.n)


def composition_count(total: int, k: int) -> int:
    """Number of compositions of total into k non-negative parts."""
    if total < 0 or k < 1:
        raise ValueError(f"bad composition shape total={total}, k={k}")
    return math.comb(total + k - 1, k - 1)


def power_generators(
    spec: PathIdealSpec, s: int, max_count: int = POWER_PRODUCT_CAP
) -> list[tuple[Composition, Monomial]]:
    """Minimal generators of the s-th power, paired with their compositions.

    Each s-fold product of u_1, ..., u_{n-t+1} is read with its composition,
    the multiplicities of its factors, in lexicographically decreasing
    composition order: the first entry is u_1^s and the last u_{n-t+1}^s.
    Requires n >= t and s >= 1; the caps are those of ideal_power.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if spec.num_generators == 0:
        raise ValueError(f"zero ideal: n={spec.n} < t={spec.t}")
    E = _exponent_matrix(line_graph_generators(spec), spec.n)
    pairs: list[tuple[Composition, Monomial]] = []
    for counts, rows in _power_products(E, s, max_count):
        pairs += zip(map(Composition, map(tuple, counts.tolist())),
                     map(Monomial, map(tuple, rows.tolist())))
    return pairs
