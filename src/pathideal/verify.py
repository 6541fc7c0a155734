"""Sweep engine confronting every closed-form value with the oracle.

A sweep walks a grid of (n, t, s) cells.  Each cell emits one row per
checked quantity carrying the closed-form value, the oracle value, a status,
and the elapsed milliseconds.  Cells whose enumeration caps trip are marked
skipped, never silently dropped; report-only quantities use status info and
cannot fail a run.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from ._version import __version__
from .cache import BettiCache, cached_betti_tables, resolve_cache_dir
from .errors import ColonFormMismatchError, PathIdealError, SizeCapExceededError
from .formulas import (
    linear_resolution_predicate,
    pd_closed_form,
    reg_power,
    reg_power_augmented,
    s_k_closed_form,
    betti_closed_form,
)
from .linearity import (
    QuotientCertificate,
    linear_quotients_check,
    quasi_linear_check,
    quasi_linear_witness,
)
from .monomials import (POWER_PRODUCT_CAP, MonomialIdeal, _last_divisor, _lex_order,
                        _power_products, _sorted_distinct, minimalize)
from .oracle import DEFAULT_LATTICE_CAP, BettiTable, FieldSpec
from .path_ideals import (PathIdealSpec, composition_count, line_graph_generators,
                          path_ideal, power_generators)

__all__ = [
    "SweepConfig",
    "Row",
    "VerificationReport",
    "sweep_cells",
    "run_sweep",
    "emit_table",
    "CSV_COLUMNS",
]

log = logging.getLogger(__name__)

CSV_COLUMNS = ["n", "t", "s", "quantity", "formula", "oracle", "status", "ms"]


@dataclass(frozen=True)
class SweepConfig:
    """Grid and resource limits for a verification sweep.

    Cells run t over [t_min, t_max], n over [max(t, n_min), n_max] and
    s over [s_min, s_max]; cells with s >= 3 additionally keep n <= deep_n_max
    to bound oracle cost.  The first characteristic drives every oracle
    quantity; any further ones re-run the field-dependent quantities with a
    ``@p<char>`` suffix on the quantity name.
    """

    t_min: int = 2
    t_max: int = 4
    n_min: int | None = None
    n_max: int = 9
    s_min: int = 1
    s_max: int = 3
    deep_n_max: int = 7
    chars: tuple[int, ...] = (2,)
    power_cap: int = POWER_PRODUCT_CAP
    lattice_cap: int = DEFAULT_LATTICE_CAP
    augmented_s_max: int = 2
    jobs: int = 1
    cache_dir: str | None = None

    def __post_init__(self):
        limits = [getattr(self, f.name) for f in fields(self)
                  if f.name not in ("chars", "cache_dir")]
        if any(type(v) is not int for v in (*limits, *self.chars) if v is not None):
            raise ValueError("grid bounds, caps, jobs and chars must be integers")
        if self.t_min < 2:
            raise ValueError("t_min must be >= 2")
        if self.s_min < 1:
            raise ValueError("s_min must be >= 1")
        if not self.chars:
            raise ValueError("need at least one characteristic")
        if len(set(self.chars)) < len(self.chars):
            raise ValueError(f"repeated characteristic in chars {self.chars}")
        for p in self.chars:
            FieldSpec(p)  # validates primality
        if self.power_cap < 1 or self.lattice_cap < 1:
            raise ValueError("caps must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cache_dir is not None and type(self.cache_dir) is not str:
            raise ValueError("cache_dir must be a string or null")
        if not sweep_cells(self):
            raise ValueError("the grid has no cell")


@dataclass(frozen=True)
class Row:
    """One checked quantity in one sweep cell."""

    n: int
    t: int
    s: int
    quantity: str
    formula: Any
    oracle: Any
    status: str  # pass | fail | skipped | info
    ms: float
    repro: str | None = None

    def to_dict(self, include_ms: bool = True) -> dict:
        out = {column: getattr(self, column) for column in CSV_COLUMNS[:-1]}
        if include_ms:
            out["ms"] = round(self.ms, 3)
        if self.repro is not None:
            out["repro"] = self.repro
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Row":
        return cls(
            n=int(data["n"]),
            t=int(data["t"]),
            s=int(data["s"]),
            quantity=data["quantity"],
            formula=data["formula"],
            oracle=data["oracle"],
            status=data["status"],
            ms=float(data.get("ms", 0.0)),
            repro=data.get("repro"),
        )


@dataclass
class VerificationReport:
    """Everything a sweep produced, ready for JSON or CSV emission."""

    config: dict
    environment: dict
    rows: list[Row]
    summary: dict

    def failures(self) -> list[Row]:
        return [r for r in self.rows if r.status == "fail"]

    def to_dict(self, include_ms: bool = True) -> dict:
        return {
            "config": self.config,
            "environment": self.environment,
            "rows": [r.to_dict(include_ms) for r in self.rows],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        # Without indent, json uses its C encoder.
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def canonical_json(self) -> str:
        """Deterministic serialization of the answers.

        Leaves out what cannot change an answer: the rows' ms, and the
        config's jobs and cache_dir (to_json keeps them for --config replay).
        """
        data = self.to_dict(include_ms=False)
        data["config"] = {k: v for k, v in self.config.items()
                          if k not in ("jobs", "cache_dir")}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            config=data["config"],
            environment=data["environment"],
            rows=[Row.from_dict(r) for r in data["rows"]],
            summary=data["summary"],
        )

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))


def sweep_cells(cfg: SweepConfig) -> list[tuple[int, int, int]]:
    """The (n, t, s) grid of a config, ordered as the report orders rows."""
    cells = []
    for t in range(cfg.t_min, cfg.t_max + 1):
        lo = max(t, cfg.n_min if cfg.n_min is not None else t)
        for n in range(lo, cfg.n_max + 1):
            for s in range(cfg.s_min, cfg.s_max + 1):
                if s >= 3 and n > cfg.deep_n_max:
                    continue
                cells.append((n, t, s))
    return sorted(cells)


class _CellState:
    """Lazily built, memoized objects of one cell, for the sweep and the CLI."""

    def __init__(self, n: int, t: int, s: int, cache: BettiCache | None,
                 power_cap: int, lattice_cap: int):
        self.n, self.t, self.s = n, t, s
        self.spec = PathIdealSpec(n, t)
        self.cache = cache
        self.power_cap, self.lattice_cap = power_cap, lattice_cap
        self._memo: dict[Any, Any] = {}

    def _get(self, key: Any, build: Callable[[], Any]) -> Any:
        # Errors are memoized too, so each quantity of a capped or broken
        # cell reports the same error without redoing the work.
        if key not in self._memo:
            try:
                self._memo[key] = build()
            except PathIdealError as exc:
                self._memo[key] = exc
        value = self._memo[key]
        if isinstance(value, PathIdealError):
            raise value
        return value

    def pairs(self):
        return self._get(
            "pairs",
            lambda: power_generators(self.spec, self.s, max_count=self.power_cap),
        )

    def power_ideal(self):
        """I^s, minimalized from the cell's own products; (0) when n < t."""
        if not self.spec.num_generators:
            return path_ideal(self.spec)
        return self._get("power", lambda: minimalize(self.pairs()[1]))

    def quotients(self):
        # from the cell's capped pairs, so the power cap skips these rows too
        return self._get(
            "quotients", lambda: linear_quotients_check(self.spec, *self.pairs())
        )

    def augmented(self, j: int) -> MonomialIdeal:
        """I^s + (u_j, ..., u_m) for s >= 2, as one row mask.

        Its minimal generators are the u_k with k >= j and the generators of
        I^s that no such u_k divides: no generator of I^s, of degree st > t,
        divides a u_k, and the u_k share one degree.  The rows of both are
        lex-sorted together once per cell, with a level each: k for u_k, and
        for a generator the largest k with u_k dividing it (0 if none).  A
        row belongs to the ideal of j exactly when (level >= j) equals its
        line flag, and the kept rows are in canonical form.
        """
        def build():
            G = self.power_ideal().exponents
            lines = line_graph_generators(self.spec)
            rows = np.concatenate((G, lines))
            level = np.concatenate((_last_divisor(G, lines),
                                    np.arange(1, len(lines) + 1)))
            line = np.arange(len(rows)) >= len(G)
            order = _lex_order(rows)
            return rows[order], level[order], line[order]

        rows, level, line = self._get("augmentation", build)
        kept = rows[(level >= j) == line]
        kept.setflags(write=False)
        return MonomialIdeal(self.n, kept, validate=False)

    def _table_key(self, p: int, j: int | None) -> tuple:
        # At s = 1 every u_j is a generator of I, so the sum is I itself.
        return ("table", None if self.s == 1 else j, p)

    def _table_ideal(self, key: tuple) -> MonomialIdeal:
        _, j, _ = key
        return self.power_ideal() if j is None else self.augmented(j)

    def table(self, p: int, j: int | None = None) -> BettiTable:
        """The table of I^s, or of I^s + (u_j, ..., u_{n-t+1}), over GF(p).

        Memoized by (j, p), so the cache is read at most once per table and
        cell; at s = 1, j is dropped.  A sweep settles its tables ahead of
        its rows; one not yet settled, as the CLI's, is settled here alone.
        """
        key = self._table_key(p, j)
        if key not in self._memo:
            _settle_tables([self], [[(p, j)]], self.cache, self.lattice_cap)
        return self._get(key, None)  # settled: only the error check runs


def _settle_tables(states: list[_CellState], wanted: list, cache: BettiCache,
                   lattice_cap: int) -> None:
    """Memoize the tables (p, j) in wanted[i] of states[i], one oracle pass per p.

    A table whose ideal cannot be built memoizes the ideal's error, the
    object its _get already holds, and a refused table its cap's error.
    """
    by_char: dict[int, dict] = {}
    for state, tables in zip(states, wanted):
        for p, j in tables:
            key = state._table_key(p, j)
            try:
                by_char.setdefault(p, {})[state, key] = state._table_ideal(key)
            except PathIdealError as exc:
                state._memo[key] = exc
    for p, ideals in by_char.items():
        found = cached_betti_tables(ideals.values(), FieldSpec(p), cache, lattice_cap)
        for (state, key), table in zip(ideals, found):
            state._memo[key] = table


@dataclass(frozen=True)
class _Quantity:
    """A checked row; if it fails, ``pathideal <command> <cell> <flags>`` reruns it."""

    name: str
    formula: Any
    oracle: Callable[[Any], Any]
    command: str
    flags: str = ""
    report_only: bool = False
    # (p, j) of the table the oracle is handed, if any, else it is handed the
    # cell's state; a sweep settles these tables before its rows run
    table: tuple[int, int | None] | None = None


def _generators(state: _CellState) -> Any:
    # Distinct and pairwise incomparable products are all minimal, so each
    # minimal generator of I^s has exactly one composition.
    _, rows = state.pairs()
    if len(state.power_ideal().exponents) == len(rows):
        return len(rows)
    if len(np.unique(rows, axis=0)) != len(rows):
        return "duplicate power generators"
    return "a power generator divides another"


def _betti(d: int, table: BettiTable) -> Any:
    off = table.total_degrees - table.index != d
    if off.any():
        stray = zip(table.index[off].tolist(), table.total_degrees[off].tolist())
        return f"entries off the linear strand: {sorted(stray)}"
    totals = table.totals()
    return [totals.get(i, 0) for i in range(table.max_index() + 1)]


def _linear_quotients(state: _CellState) -> Any:
    try:
        outcome = state.quotients()
    except ColonFormMismatchError as exc:
        return f"closed-form mismatch: {exc}"
    if isinstance(outcome, QuotientCertificate):
        return True
    return f"colon at position {outcome.position} not variable-generated"


def _census(state: _CellState) -> Any:
    outcome = state.quotients()
    if not isinstance(outcome, QuotientCertificate):
        return "no certificate"
    census = outcome.census()
    return [census.get(k, 0) for k in range(1, state.n - state.t + 1)]


def _quasi_linear(state: _CellState) -> bool:
    return quasi_linear_check(state.power_ideal()).is_quasi_linear


def _witness(state: _CellState) -> str:
    w = quasi_linear_witness(state.spec, *state.pairs())
    if not w.valid:
        return "witness facts violated"
    if any(g.degree != 1 for g in w.colon_generators):
        return f"x{w.variable}"
    return "colon is variable-generated"


def _colon_equals(G: np.ndarray, u: np.ndarray, products: np.ndarray) -> bool:
    """Whether (G) : u is the ideal that the rows of products generate.

    G is the lex-sorted minimal generators of I^s and the products those of
    I^(s-1); with L the distinct products in lex order, the two containments
    are (a) L u in (G) and (b) each colon row max(g - u, 0) in (L).  Since G
    and L each have one degree, st and t(s - 1), the colon is (L) only if
    the rows that u divides, less u, are L itself: each such g - u is then a
    row of L and each l + u a row of G.  That settles (a), and (b) on those
    rows; the colon rows of the others are tested against L.
    """
    L = _sorted_distinct(products)
    divides = (G >= u).all(axis=1)
    if not np.array_equal(G[divides] - u, L):
        return False
    return bool((_last_divisor(np.maximum(G[~divides] - u, 0), L) > 0).all())


def _colon_lemma(state: _CellState) -> bool:
    """I^s : u_{n-t+1} = I^(s-1), with I^(s-1) as its s - 1 fold products."""
    lines = line_graph_generators(state.spec)
    products = _power_products(lines, state.s - 1, state.power_cap)
    return _colon_equals(state.power_ideal().exponents, lines[-1],
                         np.concatenate([rows for _, rows in products]))


def _quantities(cfg: SweepConfig, n: int, t: int, s: int) -> Iterator[_Quantity]:
    """The quantities checked on cell (n, t, s), in the order they are run.

    Every grid cell has n >= t.  The overlap n <= 2t checks the linear
    resolution's invariants; beyond it, the quasi-linearity breaker.
    """
    overlap = n <= 2 * t
    yield _Quantity("generators", composition_count(s, n - t + 1), _generators, "gens")
    for p in cfg.chars:
        at = "" if p == cfg.chars[0] else f"@p{p}"
        char = f"--char {p}"
        table = (p, None)
        yield _Quantity(f"reg{at}", reg_power(n, t, s), BettiTable.quotient_regularity,
                        "reg", char, table=table)
        yield _Quantity(f"linear_resolution{at}", linear_resolution_predicate(n, t),
                        BettiTable.is_linear, "betti", char, table=table)
        if overlap:
            betti = [betti_closed_form(n, t, s, i) for i in range(min(n - t, s) + 1)]
            yield _Quantity(f"betti{at}", betti, partial(_betti, s * t), "betti", char,
                            table=table)
            yield _Quantity(f"pd{at}", pd_closed_form(n, t, s),
                            BettiTable.quotient_projective_dimension, "betti", char,
                            table=table)
    if overlap:
        census = [s_k_closed_form(n, t, s, k) for k in range(1, n - t + 1)]
        quotients = "--mode quotients"
        yield _Quantity("linear_quotients", True, _linear_quotients, "check", quotients)
        yield _Quantity("s_k_census", census, _census, "check", quotients)
    else:
        quasi = "--mode quasi"
        yield _Quantity("quasi_linear", False, _quasi_linear, "check", quasi)
        yield _Quantity("quasi_linear_witness", f"x{n - t}", _witness, "check", quasi)
    # the sweep settings these rows depend on, so that the repro reruns them
    sweep = (f"--char {cfg.chars[0]} --deep-n-max {cfg.deep_n_max} "
             f"--augmented-s-max {cfg.augmented_s_max} --power-cap {cfg.power_cap} "
             f"--lattice-cap {cfg.lattice_cap}")
    if s >= 2:
        yield _Quantity("colon_lemma", True, _colon_lemma, "verify", sweep)
    if s <= cfg.augmented_s_max:
        for j in range(2, n - t + 2):
            yield _Quantity(
                f"reg_augmented_j{j}",
                reg_power(n, t, s) if overlap else reg_power_augmented(n, t, s, j),
                BettiTable.quotient_regularity, "verify", sweep,
                report_only=overlap, table=(cfg.chars[0], j),
            )


def _row(state: _CellState, q: _Quantity) -> Row:
    """Run one quantity's oracle on its table or the cell; judge it against the formula."""
    n, t, s = state.n, state.t, state.s
    t0 = time.perf_counter()
    try:
        arg = state if q.table is None else state.table(*q.table)
        status, oracle = "pass", q.oracle(arg)
    except SizeCapExceededError as exc:
        status, oracle = "skipped", None
        log.info("cell (%d,%d,%d) %s skipped: %s", n, t, s, q.name, exc)
    except PathIdealError as exc:
        # One broken cell must not abort the sweep, or its pool.
        status, oracle = "fail", f"{type(exc).__name__}: {exc}"
        log.warning("cell (%d,%d,%d) %s failed: %s", n, t, s, q.name, exc)
    ms = (time.perf_counter() - t0) * 1000.0
    if status == "pass" and q.report_only:
        status = "info"
        if oracle != q.formula:
            log.warning(
                "report-only mismatch at (%d,%d,%d) %s: formula %r, oracle %r",
                n, t, s, q.name, q.formula, oracle,
            )
    elif status == "pass" and oracle != q.formula:
        status = "fail"
    repro = None
    if status == "fail":
        if q.command == "verify":
            cell = (f"--t-min {t} --t-max {t} --n-min {n} --n-max {n} "
                    f"--s-min {s} --s-max {s}")
        else:
            cell = f"--n {n} --t {t} --power {s}"
        repro = " ".join(filter(None, ("pathideal", q.command, cell, q.flags)))
    return Row(n, t, s, q.name, q.formula, oracle, status, ms, repro=repro)


def _shares(cfg: SweepConfig, cells: list) -> list[list[tuple[int, int, int]]]:
    """The cells dealt into min(jobs, cells) shares of about equal oracle cost.

    Cells go largest first, each to the share with the least cost so far.
    A cell's cost is the generator count of I^s times the number of
    tables it settles on the first characteristic: I^s and, where they
    are checked, its n - t augmented ideals.
    """
    def cost(cell):
        n, t, s = cell
        augmented = n - t if 2 <= s <= cfg.augmented_s_max else 0
        return composition_count(s, n - t + 1) * (1 + augmented)

    shares = [[] for _ in range(min(cfg.jobs, len(cells)))]
    loads = [0] * len(shares)
    for cell in sorted(cells, key=cost, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(cell)
        loads[least] += cost(cell)
    return [sorted(share) for share in shares]


def _share_rows(cfg: SweepConfig, cells: list) -> tuple[list[Row], int]:
    """The rows of a share of cells, and the number of cache entries it evicted.

    The tables that the rows read are settled first, all together, so no
    row's ms holds a table's build time.
    """
    cache = BettiCache(cfg.cache_dir)
    states = [_CellState(*cell, cache, cfg.power_cap, cfg.lattice_cap) for cell in cells]
    quantities = [list(_quantities(cfg, *cell)) for cell in cells]
    wanted = [dict.fromkeys(q.table for q in qs if q.table is not None) for qs in quantities]
    _settle_tables(states, wanted, cache, cfg.lattice_cap)
    rows = [_row(state, q) for state, qs in zip(states, quantities) for q in qs]
    return rows, cache.evictions


def run_sweep(cfg: SweepConfig) -> VerificationReport:
    """Run every cell of the grid and assemble the deterministic report.

    The grid is dealt into shares (_shares), one per worker process. A
    single share runs in this process, so the process pool's modules are
    imported only when a sweep first deals two or more shares.
    """
    shares = _shares(cfg, sweep_cells(cfg))
    share_rows = partial(_share_rows, cfg)
    if len(shares) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            parts = list(pool.map(share_rows, shares))
    else:
        parts = list(map(share_rows, shares))
    evicted = sum(count for _, count in parts)
    if evicted:
        log.warning("evicted %d corrupt or outdated cache entries from %s",
                    evicted, resolve_cache_dir(cfg.cache_dir))
    rows = sorted((row for part, _ in parts for row in part),
                  key=lambda r: (r.n, r.t, r.s, r.quantity))
    summary = {status: sum(r.status == status for r in rows)
               for status in ("pass", "fail", "skipped", "info")}
    summary["total"] = len(rows)
    config = asdict(cfg)
    config["chars"] = list(cfg.chars)
    return VerificationReport(
        config=config,
        environment={
            "package": "pathideal",
            "version": __version__,
            "characteristics": list(cfg.chars),
        },
        rows=rows,
        summary=summary,
    )


def _render_cell(value: Any) -> str:
    """CSV rendering: bare text for strings, JSON forms for everything else."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if type(value) is int:  # ints and bools as json.dumps writes them, but faster
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    return json.dumps(value, separators=(",", ":"))


def emit_table(
    report: VerificationReport, fmt: str, path: str | None = None
) -> str:
    """Serialize the report as csv or json; write to path when given."""
    if fmt == "json":
        text = report.to_json() + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in report.rows:
            writer.writerow(
                [
                    r.n,
                    r.t,
                    r.s,
                    r.quantity,
                    _render_cell(r.formula),
                    _render_cell(r.oracle),
                    r.status,
                    f"{r.ms:.3f}",
                ]
            )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PathIdealError(f"cannot write report to {path}: {exc}") from exc
    return text
