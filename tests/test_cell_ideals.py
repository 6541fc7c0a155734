"""A sweep cell's augmented ideals and colon-lemma check against minimalize.

The cell derives every I^s + (u_j, ..., u_m) from one divisibility pass
over I^s, and checks I^s : u = I^(s-1) as two containments; both must agree
with minimalizing each ideal on its own, whatever the chunk size.  The
default grid's cache keys are pinned, so that caches filled by earlier
releases stay warm.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import pathideal.monomials as monomials_mod
from pathideal.monomials import (POWER_PRODUCT_CAP, Monomial, MonomialIdeal,
                                 colon_by_monomial, ideal_power, minimalize)
from pathideal.oracle import DEFAULT_LATTICE_CAP
from pathideal.path_ideals import (PathIdealSpec, line_graph_generators, path_ideal,
                                   power_generators)
from pathideal.verify import (SweepConfig, _CellState, _colon_equals, run_sweep,
                              sweep_cells)
from support import augmented_by_minimalize, contains, mono_mul, mono_quotient, power

CACHE_KEYS = Path(__file__).resolve().parent / "data" / "default_grid_cache_keys.json"


@pytest.fixture(params=[None, 300], ids=["default-chunks", "300-byte-chunks"])
def chunk_bytes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(monomials_mod, "_CHUNK_BYTES", request.param)
    return request.param


def products(n: int, t: int, s: int) -> np.ndarray:
    return power_generators(PathIdealSpec(n, t), s)[1]


def u(n: int, t: int, k: int) -> np.ndarray:
    return line_graph_generators(PathIdealSpec(n, t))[k - 1]


def test_augmented_ideals_are_the_minimalized_sums(chunk_bytes):
    cells = [cell for cell in sweep_cells(SweepConfig()) if cell[2] >= 2]
    cells += [(12, 4, 2), (10, 2, 3), (20, 2, 2)]
    checked = 0
    for n, t, s in cells:
        state = _CellState(n, t, s, None, POWER_PRODUCT_CAP, DEFAULT_LATTICE_CAP)
        lines = line_graph_generators(state.spec)
        for j in range(1, len(lines) + 2):  # j = 1 gives I, j = m + 1 gives I^s
            built = state.augmented(j)
            assert built == augmented_by_minimalize(state.power_ideal(), lines, j)
            MonomialIdeal(n, built.exponents)  # canonical: validation passes
            checked += 1
    assert checked == 207


def test_default_grid_keeps_its_cache_keys(tmp_path):
    cache = tmp_path / "cache"
    report = run_sweep(SweepConfig(cache_dir=str(cache)))
    assert report.summary["fail"] == 0
    stored = sorted(path.stem for path in cache.glob("*.pibt"))
    assert stored == json.loads(CACHE_KEYS.read_text(encoding="utf-8"))
    assert len(stored) == 121


def test_colon_check_agrees_with_the_colon_ideal(chunk_bytes):
    outcomes = []
    for t in range(2, 5):
        for n in range(t, 10):
            spec = PathIdealSpec(n, t)
            for s in (2, 3):
                lower = ideal_power(path_ideal(spec), s - 1)
                for k in range(1, spec.num_generators + 1):
                    by_ideals = colon_by_monomial(
                        power(n, t, s), Monomial(tuple(u(n, t, k).tolist()))) == lower
                    checked = _colon_equals(power(n, t, s).exponents, u(n, t, k),
                                            products(n, t, s - 1))
                    assert checked is by_ideals, (n, t, s, k)
                    outcomes.append(checked)
    assert (len(outcomes), outcomes.count(False)) == (170, 92)


def containments(G: np.ndarray, u_row: np.ndarray, L: np.ndarray) -> tuple[bool, bool]:
    """(a) L u in (G) and (b) (G) : u in (L), one Monomial at a time."""
    def monos(rows):
        return [Monomial(tuple(r)) for r in rows.tolist()]

    ideal, lower = minimalize(G), minimalize(L)
    u_mono = Monomial(tuple(u_row.tolist()))
    return (all(contains(ideal, mono_mul(l, u_mono)) for l in monos(L)),
            all(contains(lower, mono_quotient(g, u_mono)) for g in monos(G)))


@pytest.mark.parametrize("fault, broken", [
    ("middle u_k", "b"),  # I^3 : x3*x4 holds x1*x2^2*x5, which is not in I^2
    ("lower power", "a"),  # I^(s-2) u is not in I^s
])
def test_colon_check_fails_when_one_containment_does(chunk_bytes, fault, broken):
    n, t, s = 7, 2, 3
    G = power(n, t, s).exponents
    if fault == "middle u_k":
        u_row, L = u(n, t, 3), products(n, t, s - 1)
    else:
        u_row, L = u(n, t, n - t + 1), products(n, t, s - 2)
    a, b = containments(G, u_row, L)
    assert (a, b) == (broken != "a", broken != "b")
    assert _colon_equals(G, u_row, L) is False
