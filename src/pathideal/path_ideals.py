"""Path ideals of path graphs and the composition bookkeeping for their powers.

For a path graph on vertices x1..xn, the t-path ideal is generated by the
monomials u_i = x_i * x_{i+1} * ... * x_{i+t-1} for i = 1..n-t+1.  Every
minimal generator of the s-th power is u_1^{a_1} * ... * u_k^{a_k} for
exactly one composition (a_1, ..., a_k) of s into k = n-t+1 parts: the
multiplicities of the factors of an s-fold product of generators.  Both are
carried as int64 matrices, one row per product; a Composition is built only
to report one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .monomials import POWER_PRODUCT_CAP, MonomialIdeal, _power_products

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

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@lru_cache(maxsize=256)
def line_graph_generators(spec: PathIdealSpec) -> np.ndarray:
    """The path monomials u_1, ..., u_{n-t+1}, one exponent row each.

    A read-only int64 (n - t + 1, n) matrix, shared by the callers of one
    spec; it has no rows when n < t.
    """
    at = np.arange(spec.n) - np.arange(spec.num_generators)[:, None]
    rows = ((at >= 0) & (at < spec.t)).astype(np.int64)
    rows.setflags(write=False)
    return rows


def path_ideal(spec: PathIdealSpec) -> MonomialIdeal:
    """The t-path ideal itself; the zero ideal when n < t.  u_{n-t+1} < ... < u_1."""
    rows = line_graph_generators(spec)[::-1].copy()
    rows.setflags(write=False)
    return MonomialIdeal(spec.n, rows, validate=False)


def composition_count(total: int, k: int) -> int:
    """Number of compositions of total into k non-negative parts."""
    if total < 0 or k < 1:
        raise ValueError(f"bad composition shape total={total}, k={k}")
    return math.comb(total + k - 1, k - 1)


def power_generators(
    spec: PathIdealSpec, s: int, max_count: int = POWER_PRODUCT_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """The s-fold products of u_1, ..., u_{n-t+1}, as two read-only int64 matrices.

    Row r of the first is the composition of product r, the multiplicities
    of its factors, and row r of the second its exponent vector, a minimal
    generator of the s-th power.  Rows come in lexicographically decreasing
    composition order: the first is u_1^s and the last u_{n-t+1}^s.
    Requires n >= t and s >= 1; the caps are those of ideal_power.
    """
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if spec.num_generators == 0:
        raise ValueError(f"zero ideal: n={spec.n} < t={spec.t}")
    chunks = list(_power_products(line_graph_generators(spec), s, max_count))
    counts, rows = (np.concatenate(part) for part in zip(*chunks))
    for matrix in (counts, rows):
        matrix.setflags(write=False)
    return counts, rows
