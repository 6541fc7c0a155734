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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable

from ._version import __version__
from .cache import BettiCache, cached_betti_table
from .errors import ColonFormMismatchError, PathIdealError, SizeCapExceededError
from .formulas import (
    gamma,
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
from .monomials import (
    colon_by_monomial,
    ideal_power,
    minimalize,
)
from .oracle import DEFAULT_LATTICE_CAP, BettiTable, FieldSpec
from .path_ideals import (
    PathIdealSpec,
    composition_count,
    line_graph_generators,
    path_ideal,
    power_generators,
)

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
    power_cap: int = 200_000
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
        if self.t_max < self.t_min:
            raise ValueError("empty t range")
        if self.n_max < self.t_min:
            raise ValueError("empty n range")
        if self.s_min < 1 or self.s_max < self.s_min:
            raise ValueError("bad s range")
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
        out = {
            "n": self.n,
            "t": self.t,
            "s": self.s,
            "quantity": self.quantity,
            "formula": self.formula,
            "oracle": self.oracle,
            "status": self.status,
        }
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
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def canonical_json(self) -> str:
        """Deterministic serialization; runtime (ms) fields excluded."""
        return json.dumps(
            self.to_dict(include_ms=False),
            sort_keys=True,
            separators=(",", ":"),
        )

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
    """Lazily built, memoized per-cell objects shared across quantities."""

    def __init__(self, cfg: SweepConfig, n: int, t: int, s: int, cache: BettiCache):
        self.cfg = cfg
        self.n, self.t, self.s = n, t, s
        self.spec = PathIdealSpec(n, t)
        self.cache = cache
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
            lambda: power_generators(self.spec, self.s, max_count=self.cfg.power_cap),
        )

    def power_ideal(self):
        return self._get(
            "power",
            lambda: ideal_power(
                path_ideal(self.spec), self.s, max_products=self.cfg.power_cap
            ),
        )

    def quotients(self):
        self.pairs()  # the cell's power cap skips these rows like the others
        return self._get(
            "quotients", lambda: linear_quotients_check(self.spec, self.s)
        )

    def table(self, p: int) -> BettiTable:
        return self._get(
            ("table", p),
            lambda: cached_betti_table(
                self.power_ideal(),
                FieldSpec(p),
                self.cache,
                self.cfg.lattice_cap,
            ),
        )


def _cell_rows(cfg: SweepConfig, n: int, t: int, s: int) -> list[Row]:
    cache = BettiCache(cfg.cache_dir)
    state = _CellState(cfg, n, t, s, cache)
    rows: list[Row] = []

    def add(
        quantity: str,
        formula: Any,
        oracle_fn: Callable[[], Any],
        repro: str | None = None,
        report_only: bool = False,
    ) -> None:
        t0 = time.perf_counter()
        status = "pass"
        oracle_val: Any = None
        try:
            oracle_val = oracle_fn()
        except SizeCapExceededError as exc:
            status = "skipped"
            log.info("cell (%d,%d,%d) %s skipped: %s", n, t, s, quantity, exc)
        except PathIdealError as exc:
            # One broken cell must not abort the sweep, or its pool.
            status = "fail"
            oracle_val = f"{type(exc).__name__}: {exc}"
            log.warning("cell (%d,%d,%d) %s failed: %s", n, t, s, quantity, exc)
        ms = (time.perf_counter() - t0) * 1000.0
        if status == "pass":
            if report_only:
                status = "info"
                if oracle_val != formula:
                    log.warning(
                        "report-only mismatch at (%d,%d,%d) %s: formula %r, oracle %r",
                        n, t, s, quantity, formula, oracle_val,
                    )
            elif oracle_val != formula:
                status = "fail"
        rows.append(
            Row(
                n, t, s, quantity, formula, oracle_val, status, ms,
                repro=repro if status == "fail" else None,
            )
        )

    primary = cfg.chars[0]
    in_overlap = t <= n <= 2 * t
    beyond = n >= 2 * t + 1

    def generators_oracle() -> Any:
        pairs = state.pairs()
        exps = [m.exponents for _, m in pairs]
        if len(set(exps)) != len(exps):
            return "duplicate power generators"
        brute = state.power_ideal()
        if set(exps) != {g.exponents for g in brute.generators}:
            return "composition route disagrees with product route"
        return len(pairs)

    add(
        "generators",
        composition_count(s, n - t + 1),
        generators_oracle,
        repro=f"pathideal gens --n {n} --t {t} --power {s}",
    )

    for p in cfg.chars:
        suffix = "" if p == primary else f"@p{p}"

        def reg_oracle(p=p) -> int:
            return state.table(p).quotient_regularity()

        add(
            f"reg{suffix}",
            reg_power(n, t, s),
            reg_oracle,
            repro=f"pathideal reg --n {n} --t {t} --power {s} --char {p}",
        )

        def linear_oracle(p=p) -> bool:
            return state.table(p).is_linear()

        add(
            f"linear_resolution{suffix}",
            linear_resolution_predicate(n, t),
            linear_oracle,
            repro=f"pathideal betti --n {n} --t {t} --power {s} --char {p}",
        )

        if in_overlap:
            top = min(n - t, s)

            def betti_oracle(p=p, top=top) -> Any:
                table = state.table(p)
                d = s * t
                stray = [
                    (i, sum(b))
                    for (i, b) in table.entries
                    if sum(b) != i + d
                ]
                if stray:
                    return f"entries off the linear strand: {sorted(stray)}"
                return [table.total(i) for i in range(table.max_index() + 1)]

            add(
                f"betti{suffix}",
                [betti_closed_form(n, t, s, i) for i in range(top + 1)],
                betti_oracle,
                repro=f"pathideal betti --n {n} --t {t} --power {s} --char {p}",
            )

            def pd_oracle(p=p) -> int:
                return state.table(p).quotient_projective_dimension()

            add(
                f"pd{suffix}",
                pd_closed_form(n, t, s),
                pd_oracle,
                repro=f"pathideal betti --n {n} --t {t} --power {s} --char {p}",
            )

    if in_overlap:

        def quotients_oracle() -> Any:
            try:
                outcome = state.quotients()
            except ColonFormMismatchError as exc:
                return f"closed-form mismatch: {exc}"
            if isinstance(outcome, QuotientCertificate):
                return True
            return f"colon at position {outcome.position} not variable-generated"

        add(
            "linear_quotients",
            True,
            quotients_oracle,
            repro=f"pathideal check --n {n} --t {t} --power {s} --mode quotients",
        )

        def census_oracle() -> Any:
            outcome = state.quotients()
            if not isinstance(outcome, QuotientCertificate):
                return "no certificate"
            census = outcome.census()
            return [census.get(k, 0) for k in range(1, n - t + 1)]

        add(
            "s_k_census",
            [s_k_closed_form(n, t, s, k) for k in range(1, n - t + 1)],
            census_oracle,
            repro=f"pathideal check --n {n} --t {t} --power {s} --mode quotients",
        )

    if beyond:

        def quasi_oracle() -> bool:
            return quasi_linear_check(state.power_ideal()).is_quasi_linear

        add(
            "quasi_linear",
            False,
            quasi_oracle,
            repro=f"pathideal check --n {n} --t {t} --power {s} --mode quasi",
        )

        def witness_oracle() -> str:
            state.pairs()  # the cell's power cap skips this row like the others
            w = quasi_linear_witness(state.spec, s)
            if not w.valid:
                return "witness facts violated"
            if any(g.degree != 1 for g in w.colon_generators):
                return f"x{w.variable}"
            return "colon is variable-generated"

        add(
            "quasi_linear_witness",
            f"x{n - t}",
            witness_oracle,
            repro=f"pathideal check --n {n} --t {t} --power {s} --mode quasi",
        )

    if s >= 2:

        def colon_lemma_oracle() -> bool:
            u_last = line_graph_generators(state.spec)[-1]
            lower = ideal_power(
                path_ideal(state.spec), s - 1, max_products=cfg.power_cap
            )
            return colon_by_monomial(state.power_ideal(), u_last) == lower

        add(
            "colon_lemma",
            True,
            colon_lemma_oracle,
            repro=f"pathideal verify --t-min {t} --t-max {t} "
            f"--n-min {n} --n-max {n} --s-min {s} --s-max {s}",
        )

    if s <= cfg.augmented_s_max and (beyond or in_overlap) and n - t + 1 >= 2:
        for j in range(2, n - t + 2):

            def augmented_oracle(j=j) -> int:
                extra = line_graph_generators(state.spec)[j - 1 :]
                augmented = minimalize(
                    state.power_ideal().generators + tuple(extra), ambient=n
                )
                table = cached_betti_table(
                    augmented, FieldSpec(primary), cache, cfg.lattice_cap
                )
                return table.quotient_regularity()

            add(
                f"reg_augmented_j{j}",
                reg_power_augmented(n, t, s, j)
                if beyond
                else gamma(n, t) + t * (s - 1),
                augmented_oracle,
                repro=f"pathideal verify --t-min {t} --t-max {t} "
                f"--n-min {n} --n-max {n} --s-min {s} --s-max {s}",
                report_only=not beyond,
            )

    return rows


def _cell_rows_task(args: tuple[SweepConfig, tuple[int, int, int]]) -> list[Row]:
    cfg, (n, t, s) = args
    return _cell_rows(cfg, n, t, s)


def run_sweep(cfg: SweepConfig) -> VerificationReport:
    """Run every cell of the grid and assemble the deterministic report."""
    cells = sweep_cells(cfg)
    if cfg.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            parts = list(pool.map(_cell_rows_task, [(cfg, c) for c in cells]))
        rows = [row for part in parts for row in part]
    else:
        rows = [row for (n, t, s) in cells for row in _cell_rows(cfg, n, t, s)]
    rows.sort(key=lambda r: (r.n, r.t, r.s, r.quantity))
    summary = {
        "pass": sum(r.status == "pass" for r in rows),
        "fail": sum(r.status == "fail" for r in rows),
        "skipped": sum(r.status == "skipped" for r in rows),
        "info": sum(r.status == "info" for r in rows),
        "total": len(rows),
    }
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
    """CSV rendering: JSON forms for structured values, bare text otherwise."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
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
