"""Shared test helpers: monomial shorthands and a reference Betti route.

The reference route computes Betti numbers from the definitions,
independently of the oracle's kernel: the lcm lattice from all nonempty
generator subsets, the upper Koszul complex K^b from x^b / x^sigma in I,
and reduced homology from explicit boundary matrices ranked by the public
gfp_rank.  It is meant for ideals with at most about 10 generators.
"""

from __future__ import annotations

import itertools

import numpy as np

from pathideal.monomials import Monomial, MonomialIdeal, minimalize, parse_monomial
from pathideal.oracle import gfp_rank
from pathideal.path_ideals import PathIdealSpec, power_generators

Face = tuple[int, ...]


def m(text: str, ambient: int) -> Monomial:
    return parse_monomial(text, ambient)


def ideal(texts: list[str], ambient: int) -> MonomialIdeal:
    return minimalize([m(s, ambient) for s in texts], ambient=ambient)


def power(n: int, t: int, s: int) -> MonomialIdeal:
    gens = [mono for _, mono in power_generators(PathIdealSpec(n, t), s)]
    return minimalize(gens, ambient=n)


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
        if i.contains(Monomial(tuple(e - (j in sigma) for j, e in enumerate(exps))))
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
