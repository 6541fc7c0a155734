"""Path ideals of path graphs and the composition bookkeeping for their powers.

For a path graph on vertices x1..xn, the t-path ideal is generated by the
monomials u_i = x_i * x_{i+1} * ... * x_{i+t-1} for i = 1..n-t+1.  Every
minimal generator of the s-th power is u_1^{a_1} * ... * u_k^{a_k} for
exactly one composition (a_1, ..., a_k) of s into k = n-t+1 parts, so powers
are enumerated through compositions rather than by multiplying ideals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ExponentOverflowError, SizeCapExceededError
from .monomials import (
    EXPONENT_CAP,
    POWER_PRODUCT_CAP,
    Monomial,
    MonomialIdeal,
    minimalize,
)

__all__ = [
    "PathIdealSpec",
    "Composition",
    "line_graph_generators",
    "path_ideal",
    "composition_to_monomial",
    "compositions_desc",
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


def composition_to_monomial(spec: PathIdealSpec, comp: Composition) -> Monomial:
    """u_1^{a_1} * ... * u_k^{a_k} for the composition (a_1, ..., a_k)."""
    k = spec.num_generators
    if len(comp.parts) != k:
        raise ValueError(
            f"composition has {len(comp.parts)} parts, spec needs {k}"
        )
    exps = [0] * spec.n
    for i, a in enumerate(comp.parts):
        if a:
            for j in range(i, i + spec.t):
                exps[j] += a
    if sum(exps) > EXPONENT_CAP:
        raise ExponentOverflowError(
            f"degree {sum(exps)} above cap {EXPONENT_CAP}"
        )
    return Monomial(tuple(exps))


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


def composition_count(total: int, k: int) -> int:
    """Number of compositions of total into k non-negative parts."""
    if total < 0 or k < 1:
        raise ValueError(f"bad composition shape total={total}, k={k}")
    return math.comb(total + k - 1, k - 1)


def power_generators(
    spec: PathIdealSpec, s: int, max_count: int = POWER_PRODUCT_CAP
) -> list[tuple[Composition, Monomial]]:
    """Minimal generators of the s-th power, paired with their compositions.

    Returned in lexicographically decreasing composition order, so the first
    entry is u_1^s and the last is u_{n-t+1}^s.  Requires n >= t and s >= 1.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if spec.num_generators == 0:
        raise ValueError(f"zero ideal: n={spec.n} < t={spec.t}")
    k = spec.num_generators
    count = composition_count(s, k)
    if count > max_count:
        raise SizeCapExceededError(
            f"power has {count} generators, cap {max_count}", count=count
        )
    return [
        (c, composition_to_monomial(spec, c)) for c in compositions_desc(s, k)
    ]
