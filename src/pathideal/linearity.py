"""Linear-quotient certificates and quasi-linearity checks for power ideals.

Generators of a power are ordered lexicographically by their composition,
largest first.  Coloning each generator against its predecessors then yields
ideals generated by variables exactly in the overlap regime t <= n <= 2t,
where the variable set also follows a closed form read off the composition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ColonFormMismatchError
from .monomials import (_CHUNK_BYTES, Monomial, MonomialIdeal, _colon_of_rows,
                        _lex_order, _monomial)
from .path_ideals import Composition, PathIdealSpec, line_graph_generators

__all__ = [
    "QuotientCertificate",
    "QuotientFailure",
    "QuasiLinearResult",
    "QuasiLinearBreak",
    "closed_form_colon",
    "linear_quotients_check",
    "quasi_linear_check",
    "quasi_linear_witness",
]


@dataclass(frozen=True)
class QuotientCertificate:
    """Successful linear-quotient run over an ordered generating set.

    colon_variables[m] holds the 1-based variable indices generating the
    colon of order[m + 1] against its predecessors; variable_counts mirrors
    the set sizes.
    """

    order: tuple[Composition, ...]
    colon_variables: tuple[frozenset[int], ...]
    variable_counts: tuple[int, ...]

    def census(self) -> dict[int, int]:
        """How many colon steps produced exactly k variables, per k."""
        return dict(sorted(Counter(self.variable_counts).items()))


@dataclass(frozen=True)
class QuotientFailure:
    """First position whose prefix colon is not generated by variables."""

    position: int  # 1-based index into the processing order
    composition: Composition
    offender: Monomial


@dataclass(frozen=True)
class QuasiLinearResult:
    """Outcome of checking (G(I) \\ {u}) : u for every generator u."""

    is_quasi_linear: bool
    witness: tuple[Monomial, Monomial] | None  # (generator, offending colon gen)


@dataclass(frozen=True)
class QuasiLinearBreak:
    """Evidence that the top power generator breaks quasi-linearity.

    For alpha = u_{n-t+1}^s and J generated by the remaining power
    generators, the colon J : alpha is recorded together with the two facts
    that force a non-variable generator: x_{n-t} is the unique degree-one
    generator, and it does not divide u_1^s.
    """

    excluded: Monomial
    colon_generators: tuple[Monomial, ...]
    variable: int
    unique_degree_one: bool
    variable_misses_first_power: bool

    @property
    def valid(self) -> bool:
        return self.unique_degree_one and self.variable_misses_first_power


def closed_form_colon(comp: Composition) -> frozenset[int]:
    """Predicted colon variables {lambda - 1 : part lambda > 0, lambda >= 2}.

    Positions are 1-based; the first part contributes nothing because there
    is no variable x_0.
    """
    return frozenset(
        idx for idx, part in enumerate(comp.parts) if part and idx >= 1
    )


def _colon_steps(E: np.ndarray, keep: np.ufunc, start: int = 0):
    """Which colons of rows of E by one row are generated by variables.

    Step u, for each row u from start on, colons the rows i with keep(i, u)
    by row u: its quotient rows are max(E[i] - E[u], 0).  The colon is
    generated by variables iff every quotient row has a positive entry at a
    variable that some degree-1 quotient row holds.  Such a covered row is
    divisible by that variable, and an uncovered row can only be divided
    by another uncovered row, so the colon's minimal generators of degree
    other than 1 are the minimal uncovered rows; no step is minimalized.
    Steps and their row masks go a chunk at a time within _CHUNK_BYTES.
    Yields u, the variables held by degree-1 rows (a list of bools, one per
    variable) and the uncovered quotient rows, or None when there are none.
    """
    q, n = E.shape
    step = max(1, _CHUNK_BYTES // (8 * q * max(n, 1)))
    rows = np.arange(q)
    for lo in range(start, q, step):
        Q = np.maximum(E[None, :, :] - E[lo : lo + step, None, :], 0)
        mask = keep(rows[None, :], rows[lo : lo + step, None])
        positive = Q > 0
        linear = mask & (Q.sum(axis=2) == 1)
        variables = (positive & linear[:, :, None]).any(axis=1)
        uncovered = mask & ~(positive & variables[:, None, :]).any(axis=2)
        failed = uncovered.any(axis=1).tolist()
        for b, held in enumerate(variables.tolist()):
            yield lo + b, held, Q[b][uncovered[b]] if failed[b] else None


def _least_row(rows: np.ndarray) -> Monomial:
    """The lexicographically least row of an exponent matrix, as a Monomial.

    It is the first minimal generator of the ideal the rows generate: a
    proper divisor of a row is lexicographically smaller than it, so the
    least row has no divisor among the rows.
    """
    return _monomial(rows[_lex_order(rows)[0]])


def linear_quotients_check(
    spec: PathIdealSpec, counts: np.ndarray, rows: np.ndarray
) -> QuotientCertificate | QuotientFailure:
    """Run the prefix-colon test over power generators in the order given.

    counts and rows are the composition and exponent matrices of a power
    of the spec's ideal, one product per row, in the order to certify;
    power_generators returns them in the lexicographically decreasing one.
    Each step colons one generator against all earlier ones; success means
    every such colon is generated by variables.  In the overlap regime
    t <= n <= 2t the brute-force variable set must also match
    closed_form_colon, x_{l-1} for each position l >= 2 with a positive
    part, and a mismatch raises ColonFormMismatchError.
    """
    q, n = rows.shape
    order = tuple(map(Composition, map(tuple, counts.tolist())))
    predicted = None
    if spec.t <= spec.n <= 2 * spec.t:
        # one row of bools per step, one per variable, as _colon_steps holds them
        predicted = np.zeros((q, n), dtype=bool)
        predicted[:, : counts.shape[1] - 1] = counts[:, 1:] > 0
        predicted = predicted.tolist()
    colon_vars: list[frozenset[int]] = []
    for m, held, uncovered in _colon_steps(rows, np.less, start=1):  # rows i < m
        if uncovered is not None:
            # the colon's first minimal generator of degree other than 1
            return QuotientFailure(m + 1, order[m], _least_row(uncovered))
        found = frozenset(j + 1 for j, h in enumerate(held) if h)
        if predicted is not None and held != predicted[m]:
            raise ColonFormMismatchError(
                f"colon at position {m + 1} gave {sorted(found)}, "
                f"closed form predicts {sorted(closed_form_colon(order[m]))}"
            )
        colon_vars.append(found)
    return QuotientCertificate(order, tuple(colon_vars), tuple(map(len, colon_vars)))


def quasi_linear_check(ideal: MonomialIdeal) -> QuasiLinearResult:
    """Check whether (G(I) \\ {u}) : u is variable-generated for every u.

    The ideal must be generated in a single degree; fewer than two
    generators pass vacuously.  Generators are scanned in stored order and
    the first failure is returned as a witness.
    """
    E = ideal.exponents
    degs = E.sum(axis=1)
    if len(E) and degs.min() != degs.max():
        raise ValueError(f"mixed generator degrees {np.unique(degs).tolist()}")
    if len(E) < 2:
        return QuasiLinearResult(True, None)
    for u, _, uncovered in _colon_steps(E, np.not_equal):
        if uncovered is not None:
            offender = _least_row(uncovered)
            return QuasiLinearResult(False, (_monomial(E[u]), offender))
    return QuasiLinearResult(True, None)


def quasi_linear_witness(
    spec: PathIdealSpec, counts: np.ndarray, rows: np.ndarray
) -> QuasiLinearBreak:
    """Build the explicit quasi-linearity breaker for t >= 2 and n >= 2t + 1.

    counts and rows are the composition and exponent matrices of the power
    I^s, as power_generators returns them; s is read from the compositions.
    Excluding alpha = u_{n-t+1}^s, the colon of the remaining power
    generators by alpha has x_{n-t} as its only degree-one generator (it
    arises from u_{n-t} * u_{n-t+1}^{s-1}), yet x_{n-t} does not divide
    u_1^s, so the colon cannot be generated by variables.
    """
    if spec.t < 2 or spec.n < 2 * spec.t + 1:
        raise ValueError(f"need t >= 2 and n >= 2t+1, got n={spec.n}, t={spec.t}")
    s = int(counts[0].sum())
    lines = line_graph_generators(spec)
    alpha = s * lines[-1]
    colon = _colon_of_rows(rows[(rows != alpha).any(axis=1)], alpha)
    var = spec.n - spec.t
    degree_one = colon.exponents[colon.exponents.sum(axis=1) == 1]
    unique = len(degree_one) == 1 and bool(degree_one[0, var - 1] == 1)
    return QuasiLinearBreak(
        excluded=_monomial(alpha),
        colon_generators=colon.generators,
        variable=var,
        unique_degree_one=unique,
        variable_misses_first_power=bool(lines[0, var - 1] == 0),
    )
