"""Closed-form evaluators for regularity, Betti numbers, and related counts.

Everything here is exact integer arithmetic; the companion oracle module
recomputes the same quantities homologically so sweeps can confront the two.
"""

from __future__ import annotations

import math

__all__ = [
    "gamma",
    "reg_power",
    "betti_closed_form",
    "pd_closed_form",
    "s_k_closed_form",
    "linear_resolution_predicate",
    "reg_power_augmented",
]


def gamma(n: int, t: int) -> int:
    """Regularity of R/I for the t-path ideal on n vertices (first power).

    Writing n = p(t+1) + d with 0 <= d <= t, the value is p(t-1) when d < t
    and (p+1)(t-1) when d = t.  It vanishes whenever n < t or t = 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    p, d = divmod(n, t + 1)
    return (p + 1) * (t - 1) if d == t else p * (t - 1)


def reg_power(n: int, t: int, s: int) -> int:
    """Regularity of R/I^s: gamma(n, t) + t(s - 1), for n >= t >= 2, s >= 1."""
    if not n >= t >= 2:
        raise ValueError(f"need n >= t >= 2, got n={n}, t={t}")
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    return gamma(n, t) + t * (s - 1)


def betti_closed_form(n: int, t: int, s: int, i: int) -> int:
    """Total Betti number beta_i(I^s) in the overlap regime t <= n <= 2t.

    Equals sum over k of C(n-t, k) * C(s, k) * C(k, i); the resolution is
    linear, so this is also the unique graded value at degree i + s*t.
    """
    if not t <= n <= 2 * t or t < 1:
        raise ValueError(f"need t <= n <= 2t with t >= 1, got n={n}, t={t}")
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if i < 0:
        raise ValueError(f"homological index must be >= 0, got {i}")
    return sum(
        math.comb(n - t, k) * math.comb(s, k) * math.comb(k, i)
        for k in range(i, n - t + 1)
    )


def pd_closed_form(n: int, t: int, s: int) -> int:
    """Projective dimension of R/I^s for t <= n <= 2t: min(n-t+1, s+1)."""
    if not t <= n <= 2 * t or t < 1:
        raise ValueError(f"need t <= n <= 2t with t >= 1, got n={n}, t={t}")
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    return min(n - t + 1, s + 1)


def s_k_closed_form(n: int, t: int, s: int, k: int) -> int:
    """Number of colon steps with exactly k variables: C(n-t, k) * C(s, k)."""
    if not t <= n <= 2 * t or t < 1:
        raise ValueError(f"need t <= n <= 2t with t >= 1, got n={n}, t={t}")
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if not 1 <= k <= n - t:
        raise ValueError(f"need 1 <= k <= n-t, got k={k}")
    return math.comb(n - t, k) * math.comb(s, k)


def linear_resolution_predicate(n: int, t: int) -> bool:
    """True iff every power of the path ideal has a linear resolution."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    return t <= n <= 2 * t


def reg_power_augmented(n: int, t: int, s: int, j: int) -> int:
    """Regularity of R/(I^s + (u_j, ..., u_{n-t+1})): gamma(n, t) + t(s - 1).

    Appending the trailing path generators u_j, ..., u_{n-t+1} to I^s does
    not change the regularity.  Stated for n >= 2t + 1 and 2 <= j <= n-t+1.
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    if n < 2 * t + 1:
        raise ValueError(f"need n >= 2t + 1, got n={n}, t={t}")
    if s < 1:
        raise ValueError(f"power must be >= 1, got {s}")
    if not 2 <= j <= n - t + 1:
        raise ValueError(f"need 2 <= j <= n-t+1, got j={j}")
    return gamma(n, t) + t * (s - 1)
