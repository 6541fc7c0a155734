"""Sweep engine, report serialization, disk cache, and CLI behaviour."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import logging
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pathideal.cache as cache_mod
import pathideal.verify as verify_mod
from pathideal.cache import (
    CACHE_ENV_VAR,
    BettiCache,
    betti_cache_key,
    cached_betti_table,
    cached_betti_tables,
    resolve_cache_dir,
)
from pathideal.cli import _sweep_config, build_parser, main
from pathideal.errors import ColonFormMismatchError, PathIdealError, SizeCapExceededError
from pathideal.monomials import POWER_PRODUCT_CAP, Monomial, minimalize
from pathideal.oracle import DEFAULT_LATTICE_CAP, GF2, FieldSpec, betti_table
from pathideal.path_ideals import composition_count
from pathideal.verify import (
    CSV_COLUMNS,
    Row,
    SweepConfig,
    VerificationReport,
    emit_table,
    run_sweep,
    sweep_cells,
)
from support import json_cache_key, m, power, table_of

EDGE_IDEAL_3 = minimalize([m("x1*x2", 3), m("x2*x3", 3)], ambient=3)


def tiny_config(cache_dir, **kw) -> SweepConfig:
    base = dict(
        t_min=2, t_max=2, n_max=4, s_min=1, s_max=2, cache_dir=str(cache_dir)
    )
    base.update(kw)
    return SweepConfig(**base)


# ---------------------------------------------------------------- grid


def test_default_grid_has_57_cells():
    cells = sweep_cells(SweepConfig())
    assert len(cells) == 57
    assert all(t <= n for (n, t, s) in cells)
    assert all(n <= 7 for (n, t, s) in cells if s >= 3)
    assert cells == sorted(cells)


def test_grid_respects_bounds():
    cells = sweep_cells(SweepConfig(t_min=3, t_max=3, n_min=5, n_max=6, s_max=1))
    assert cells == [(5, 3, 1), (6, 3, 1)]


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(t_min=1)
    with pytest.raises(ValueError):
        SweepConfig(t_min=4, t_max=3)
    with pytest.raises(ValueError):
        SweepConfig(s_min=2, s_max=1)
    with pytest.raises(ValueError):
        SweepConfig(chars=())
    with pytest.raises(ValueError):
        SweepConfig(chars=(4,))
    with pytest.raises(ValueError):
        SweepConfig(jobs=0)
    # a repeated field would re-run its quantities under the same name
    with pytest.raises(ValueError, match="repeated characteristic"):
        SweepConfig(chars=(2, 2))
    with pytest.raises(ValueError, match="repeated characteristic"):
        SweepConfig(chars=(3, 2, 3))
    # a JSON config file can hold floats, bools and strings
    for bad in ({"jobs": 1.5}, {"lattice_cap": 2.5}, {"jobs": True}, {"chars": ("2",)}):
        with pytest.raises(ValueError, match="must be integers"):
            SweepConfig(**bad)
    # a grid without cells would pass vacuously
    for empty in ({"n_min": 12, "n_max": 3}, {"n_min": 10}, {"n_min": 8, "s_min": 3}):
        with pytest.raises(ValueError, match="no cell"):
            SweepConfig(**empty)
    for bad_dir in (5, ["cache"], Path("cache")):
        with pytest.raises(ValueError, match="cache_dir"):
            SweepConfig(cache_dir=bad_dir)


# ---------------------------------------------------------------- sweeps


def test_small_sweep_passes(tmp_path):
    report = run_sweep(tiny_config(tmp_path / "cache"))
    assert report.summary["fail"] == 0
    assert report.summary["skipped"] == 0
    assert report.summary["total"] == len(report.rows)
    assert report.summary["pass"] + report.summary["info"] == len(report.rows)
    assert not report.failures()
    keys = [(r.n, r.t, r.s, r.quantity) for r in report.rows]
    assert keys == sorted(keys)
    quantities = {r.quantity for r in report.rows}
    assert {"generators", "reg", "linear_resolution", "betti", "pd",
            "linear_quotients", "s_k_census", "colon_lemma"} <= quantities


def test_sweep_covers_secondary_characteristic(tmp_path):
    cfg = tiny_config(tmp_path / "cache", n_max=3, s_max=1, chars=(2, 3))
    report = run_sweep(cfg)
    quantities = {r.quantity for r in report.rows}
    assert "reg@p3" in quantities and "linear_resolution@p3" in quantities
    assert report.summary["fail"] == 0


def test_sweep_marks_capped_cells_skipped(tmp_path):
    cfg = tiny_config(tmp_path / "cache", n_max=5, power_cap=2)
    report = run_sweep(cfg)
    skipped = [r for r in report.rows if r.status == "skipped"]
    assert skipped and report.summary["skipped"] == len(skipped)
    assert all(r.oracle is None for r in skipped)
    # (2,2,s) has a single path, so it stays under the cap and still passes
    assert any(r.status == "pass" for r in report.rows if (r.n, r.t) == (2, 2))
    assert report.summary["fail"] == 0
    # every row of a cell with more than power_cap generators is skipped,
    # including linear_quotients, s_k_census and quasi_linear_witness
    capped = {
        (n, t, s) for (n, t, s) in sweep_cells(cfg)
        if composition_count(s, n - t + 1) > cfg.power_cap
    }
    assert {(3, 2, 2), (4, 2, 2), (5, 2, 2)} <= capped
    capped_rows = [r for r in report.rows if (r.n, r.t, r.s) in capped]
    assert {r.quantity for r in capped_rows} >= {
        "linear_quotients", "s_k_census", "quasi_linear_witness"
    }
    assert all(r.status == "skipped" for r in capped_rows)


def test_lattice_cap_skips_cells_whatever_the_cache_holds(tmp_path):
    capped = tiny_config(tmp_path / "cache", n_max=6, lattice_cap=5, jobs=1)
    cold = run_sweep(capped)
    assert cold.summary["skipped"] > 0
    # A sweep under the default cap fills the cache with the tables the
    # capped sweep skipped; they must not be replayed to it.
    run_sweep(dataclasses.replace(capped, lattice_cap=SweepConfig().lattice_cap))
    assert run_sweep(capped).canonical_json() == cold.canonical_json()


def test_augmented_rows_are_report_only_in_overlap(tmp_path):
    cfg = tiny_config(tmp_path / "cache", n_max=4, s_max=1)
    report = run_sweep(cfg)
    aug = [r for r in report.rows if r.quantity.startswith("reg_augmented")]
    assert aug  # n=3,4 with t=2 offer at least j=2
    assert all(r.status == "info" for r in aug)
    assert all(2 * r.t >= r.n for r in aug)


def test_augmented_rows_can_fail_beyond_overlap(tmp_path):
    cfg = tiny_config(tmp_path / "cache", n_min=5, n_max=5, s_max=1)
    report = run_sweep(cfg)
    aug = [r for r in report.rows if r.quantity.startswith("reg_augmented")]
    assert {r.quantity for r in aug} == {f"reg_augmented_j{j}" for j in (2, 3, 4)}
    assert all(r.status == "pass" for r in aug)


def test_broken_cell_gives_fail_row(tmp_path, monkeypatch):
    def broken(spec, counts, rows):
        raise ColonFormMismatchError("colon 2 disagrees with its closed form")

    monkeypatch.setattr(verify_mod, "linear_quotients_check", broken)
    cfg = tiny_config(tmp_path / "cache", n_min=3, n_max=3, s_max=1, jobs=1)
    report = run_sweep(cfg)
    census = [r for r in report.rows if r.quantity == "s_k_census"]
    assert len(census) == 1
    row = census[0]
    assert row.status == "fail"
    assert row.oracle == "ColonFormMismatchError: colon 2 disagrees with its closed form"
    assert row.repro == "pathideal check --n 3 --t 2 --power 1 --mode quotients"
    quotients = next(r for r in report.rows if r.quantity == "linear_quotients")
    assert quotients.oracle == "closed-form mismatch: colon 2 disagrees with its closed form"
    assert report.summary["fail"] == 2  # linear_quotients and s_k_census
    assert any(r.quantity == "reg" and r.status == "pass" for r in report.rows)


def test_linear_quotients_check_runs_once_per_cell(tmp_path, monkeypatch):
    calls, real = [], verify_mod.linear_quotients_check
    monkeypatch.setattr(
        verify_mod, "linear_quotients_check",
        lambda spec, counts, rows: calls.append((spec.n, spec.t, int(counts[0].sum())))
        or real(spec, counts, rows),
    )
    cfg = tiny_config(tmp_path / "cache", jobs=1)
    assert run_sweep(cfg).summary["fail"] == 0
    assert sorted(calls) == [c for c in sweep_cells(cfg) if c[1] <= c[0] <= 2 * c[1]]


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    """The default sweep's report, over a cache of its own."""
    return run_sweep(SweepConfig(cache_dir=str(tmp_path_factory.mktemp("default"))))


def test_default_sweep_matches_the_benchmark_golden(default_report):
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    want = json.loads(golden.read_text(encoding="utf-8"))["sweep"]
    report = default_report
    rows = [r.to_dict(include_ms=False) for r in report.rows]
    blob = json.dumps({"rows": rows, "summary": report.summary},
                      sort_keys=True, separators=(",", ":"))
    assert report.summary == want["summary"]
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == want["digest"]


def test_warm_default_sweep_builds_each_cells_power_generators_once(tmp_path, monkeypatch):
    cfg = SweepConfig(cache_dir=str(tmp_path / "cache"))
    run_sweep(cfg)  # fills the cache
    calls = Counter()
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "pathideal" or name.startswith("pathideal.")]
    for owner, name in [("pathideal.path_ideals", "power_generators"),
                        ("pathideal.monomials", "minimalize"),
                        ("pathideal.monomials", "_power_products")]:
        original = getattr(sys.modules[owner], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, bound, counted)
    report = run_sweep(cfg)
    assert report.summary["fail"] == 0
    assert calls["power_generators"] == len(sweep_cells(cfg)) == 57
    # I^s once per cell and the 22 witness colons; the augmented ideals and
    # the colon lemma minimalize nothing
    assert calls["minimalize"] == 57 + 22 == 79
    # the products of I^s once per cell, and of I^(s-1) for the colon lemma
    lower = sum(s >= 2 for _, _, s in sweep_cells(cfg))
    assert calls["_power_products"] == 57 + lower == 93


@pytest.mark.parametrize("fault, oracle", [
    ("duplicate", "duplicate power generators"),
    ("divisible", "a power generator divides another"),
    ("missing", 5),
])
def test_generators_row_fails_unless_each_product_is_a_minimal_generator(
        tmp_path, monkeypatch, fault, oracle):
    # (4,2,2) has 6 products; the last, u_3^2, is replaced or dropped
    real = verify_mod.power_generators

    def faulty(spec, s, **kwargs):
        counts, rows = real(spec, s, **kwargs)
        if fault == "missing":
            return counts[:-1], rows[:-1]
        rows = rows.copy()
        if fault == "duplicate":
            rows[-1] = rows[0]
        elif fault == "divisible":
            rows[-1] = m("x1^2*x2^2*x4", 4).exponents  # u_1^2 * x4
        return counts, rows

    monkeypatch.setattr(verify_mod, "power_generators", faulty)
    cfg = tiny_config(tmp_path / "cache", n_min=4, s_min=2)
    row = next(r for r in run_sweep(cfg).rows if r.quantity == "generators")
    assert (row.status, row.formula, row.oracle) == ("fail", 6, oracle)
    assert row.repro == "pathideal gens --n 4 --t 2 --power 2"


def test_sweep_repros_rerun_their_rows(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise PathIdealError("broken on purpose")

    # colon_lemma and reg_augmented_j* rerun as `pathideal verify`, which
    # must carry every setting the row depends on: here, none is a default.
    monkeypatch.setattr(verify_mod, "line_graph_generators", broken)
    cfg = SweepConfig(t_min=2, t_max=2, n_min=8, n_max=8, s_min=3, s_max=3,
                      deep_n_max=8, augmented_s_max=3, chars=(3,),
                      power_cap=150_000, lattice_cap=100_000,
                      cache_dir=str(tmp_path / "cache"))
    failed = run_sweep(cfg).failures()
    assert {r.quantity for r in failed} == {"colon_lemma"} | {
        f"reg_augmented_j{j}" for j in range(2, 8)
    }
    for row in failed:
        argv = shlex.split(row.repro)
        assert argv[:2] == ["pathideal", "verify"]
        rerun = _sweep_config(build_parser().parse_args(argv[1:]))
        assert rerun == dataclasses.replace(cfg, cache_dir=None)
        rerun = dataclasses.replace(rerun, cache_dir=str(tmp_path / "cache"))
        assert (row.n, row.t, row.s, row.quantity) in {
            (r.n, r.t, r.s, r.quantity) for r in run_sweep(rerun).rows
        }


def test_cli_repro_reruns_the_rows_own_objects(tmp_path, monkeypatch, capsys):
    # With x2*x3 dropped from the products of I, reg R/I of (4,2,1) reads 2,
    # not 1.  The repro must print that same oracle: it builds I^s from the
    # cell's products, as the sweep does.
    real = verify_mod.power_generators

    def short(spec, s, **kwargs):
        return tuple(np.delete(matrix, 1, axis=0) for matrix in real(spec, s, **kwargs))

    monkeypatch.setattr(verify_mod, "power_generators", short)
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    cfg = tiny_config(tmp_path / "cache", n_min=4, n_max=4, s_max=1)
    row = next(r for r in run_sweep(cfg).rows if r.quantity == "reg")
    assert (row.status, row.formula, row.oracle) == ("fail", 1, 2)
    assert main(shlex.split(row.repro)[1:] + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["oracle"] == row.oracle


def test_parallel_sweep_matches_serial(tmp_path):
    serial = run_sweep(tiny_config(tmp_path / "c1"))
    parallel = run_sweep(tiny_config(tmp_path / "c2", jobs=2))
    assert serial.canonical_json() == parallel.canonical_json()
    # the shares depend on jobs, the tables do not
    assert run_sweep(tiny_config(tmp_path / "c3", jobs=3)).canonical_json() == (
        serial.canonical_json())
    entries = [sorted((path.name, path.read_bytes()) for path in (tmp_path / c).glob("*.pibt"))
               for c in ("c1", "c2", "c3")]
    assert entries[0] and entries == [entries[0]] * 3
    # jobs and cache_dir stay in the full report, for --config replay
    config = json.loads(parallel.to_json())["config"]
    assert (config["jobs"], config["cache_dir"]) == (2, str(tmp_path / "c2"))


def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_sweep imports the pool from concurrent.futures when it forks
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = tiny_config(tmp_path / "cache", n_max=3, s_max=1, jobs=64)
    assert len(sweep_cells(cfg)) == 2
    report = run_sweep(cfg)
    assert asked == [2]
    assert report.config["jobs"] == 64  # the report keeps what was asked for


def test_only_a_forking_sweep_imports_the_process_pool(tmp_path):
    # A fresh interpreter, since pytest and hypothesis may import
    # multiprocessing themselves.
    script = (
        "import sys, pathideal, pathideal.cli; "
        "from pathideal import SweepConfig, run_sweep; "
        "assert pathideal.cli.main(['gens', '--n', '5', '--t', '2']) == 0; "
        "cfg = SweepConfig(n_max=3, s_max=1, jobs=1, cache_dir=sys.argv[1]); "
        "serial = run_sweep(cfg).canonical_json(); "
        "pool = ('multiprocessing', 'concurrent.futures.process'); "
        "assert not [m for m in pool if m in sys.modules], pool; "
        "cfg = SweepConfig(n_max=3, s_max=1, jobs=2, cache_dir=sys.argv[2]); "
        "assert run_sweep(cfg).canonical_json() == serial; "
        "assert all(m in sys.modules for m in pool)"
    )
    src = str(Path(verify_mod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "c1"),
                           str(tmp_path / "c2")], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def share_cost(cfg: SweepConfig, cell) -> int:
    n, t, s = cell
    return composition_count(s, n - t + 1) * (
        1 + (n - t if 2 <= s <= cfg.augmented_s_max else 0))


def test_shares_split_the_grid_greedily_by_cost():
    cfg = SweepConfig()
    cells = sweep_cells(cfg)
    for jobs in (1, 2, 3, 100):
        shares = verify_mod._shares(dataclasses.replace(cfg, jobs=jobs), cells)
        assert len(shares) == min(jobs, len(cells))
        assert sorted(c for share in shares for c in share) == cells
        assert all(share == sorted(share) for share in shares)
        # Largest first, each to the lightest share: the loads differ by at
        # most one cell's cost.
        loads = [sum(share_cost(cfg, c) for c in share) for share in shares]
        assert max(loads) - min(loads) <= max(share_cost(cfg, c) for c in cells)
    # (9,2,2) settles I^2 and its 7 augmented ideals, over 36 generators
    assert share_cost(cfg, (9, 2, 2)) == 36 * 8 == max(share_cost(cfg, c) for c in cells)


def test_each_quantity_names_the_table_its_oracle_reads(tmp_path):
    # A share settles the tables its quantities name before any row runs,
    # so a quantity that read another table would build it on its own.
    cfg = tiny_config(tmp_path / "cache", n_max=6, chars=(2, 3))
    cache = BettiCache(cfg.cache_dir)
    for cell in sweep_cells(cfg):
        state = verify_mod._CellState(*cell, cache, cfg.power_cap, cfg.lattice_cap)
        read, real = [], state.table
        state.table = lambda p, j=None: read.append((p, j)) or real(p, j)
        quantities = list(verify_mod._quantities(cfg, *cell))
        assert any(q.table for q in quantities) and not all(q.table for q in quantities)
        for q in quantities:
            read.clear()
            verify_mod._row(state, q)
            assert read == ([q.table] if q.table else []), (cell, q.name)


def test_a_p_row_reads_the_table_of_its_own_characteristic(tmp_path, monkeypatch):
    # Over GF(3) the sweep is handed the tables of I^(s+1) instead of I^s:
    # the rows that read GF(3) tables fail, and the GF(2) rows do not.
    real = verify_mod.cached_betti_tables

    def wrong_over_gf3(ideals, fieldspec, *args):
        ideals = list(ideals)
        if fieldspec == FieldSpec(3):  # I^s of each cell, t = 2: degree 2s
            ideals = [power(i.ambient, 2, int(i.exponents[0].sum()) // 2 + 1) for i in ideals]
        return real(ideals, fieldspec, *args)

    monkeypatch.setattr(verify_mod, "cached_betti_tables", wrong_over_gf3)
    report = run_sweep(tiny_config(tmp_path / "cache", n_max=5, chars=(2, 3), jobs=1))
    for name in ("reg", "betti"):
        mine = [r.status for r in report.rows if r.quantity == name]
        theirs = [r.status for r in report.rows if r.quantity == f"{name}@p3"]
        assert len(mine) == len(theirs) > 4
        assert set(mine) == {"pass"} and set(theirs) == {"fail"}


def test_a_share_settles_its_tables_before_its_rows(tmp_path, monkeypatch):
    calls = []
    real = verify_mod.cached_betti_tables

    def spy(ideals, fieldspec, *args):
        ideals = list(ideals)
        calls.append((fieldspec.characteristic, len(ideals)))
        return real(ideals, fieldspec, *args)

    monkeypatch.setattr(verify_mod, "cached_betti_tables", spy)
    cfg = tiny_config(tmp_path / "cache", n_max=5, chars=(2, 3), jobs=1)
    report = run_sweep(cfg)
    # one list per characteristic: I^s of each cell, and the augmented ideals
    # of its first characteristic
    cells = sweep_cells(cfg)
    augmented = sum(n - t for n, t, s in cells if s == 2)
    assert calls == [(2, len(cells) + augmented), (3, len(cells))]
    assert report.summary["fail"] == 0


def test_the_cli_reads_what_a_sweep_settled(tmp_path, monkeypatch):
    # The CLI settles its table through the sweep's route, so it finds the
    # entry a sweep stored under the same key and builds no table.
    cache = tmp_path / "cache"
    cfg = SweepConfig(n_max=5, s_max=2, cache_dir=str(cache))
    report = run_sweep(cfg)
    stored = sorted(cache.glob("*.pibt"))
    built, real = [], cache_mod.betti_tables
    monkeypatch.setattr(cache_mod, "betti_tables",
                        lambda *args: built.append(args) or real(*args))
    reg = {(r.n, r.t, r.s): r.oracle for r in report.rows if r.quantity == "reg"}
    out = tmp_path / "out.json"
    for n, t, s in sweep_cells(cfg):
        for command in ("betti", "reg"):
            argv = [command, "--n", str(n), "--t", str(t), "--power", str(s),
                    "--cache", str(cache), "--json", str(out)]
            assert main(argv) == 0, argv
        assert json.loads(out.read_text(encoding="utf-8"))["oracle"] == reg[n, t, s]
    assert built == [] and sorted(cache.glob("*.pibt")) == stored


def test_a_refused_table_raises_its_error_through_the_one_route(tmp_path, monkeypatch):
    calls, real = [], verify_mod.cached_betti_tables

    def spy(ideals, *args):
        calls.append(list(ideals))
        return real(calls[-1], *args)

    monkeypatch.setattr(verify_mod, "cached_betti_tables", spy)
    cache = BettiCache(tmp_path / "cache")
    state = verify_mod._CellState(6, 2, 1, cache, POWER_PRODUCT_CAP, 5)
    with pytest.raises(SizeCapExceededError) as first:
        state.table(2)
    # the refusal is memoized: the same error, and no second oracle pass
    with pytest.raises(SizeCapExceededError) as again:
        state.table(2)
    assert again.value is first.value and len(calls) == 1
    # a power cap refuses the ideal itself, so every table of the cell
    # raises the power's error, and the rows that read one are skipped
    state = verify_mod._CellState(5, 2, 2, cache, 1, DEFAULT_LATTICE_CAP)
    with pytest.raises(SizeCapExceededError) as power:
        state.power_ideal()
    for j in (None, 2):
        with pytest.raises(SizeCapExceededError) as got:
            state.table(2, j)
        assert got.value is power.value
    cfg = SweepConfig(power_cap=1)
    reg = next(q for q in verify_mod._quantities(cfg, 5, 2, 2) if q.name == "reg")
    assert verify_mod._row(state, reg).status == "skipped"


def test_sweep_reads_each_table_once_per_cell(tmp_path, monkeypatch):
    # In an s = 1 cell every augmented ideal I + (u_j, ..., u_k) is I itself.
    lookups, real = [], BettiCache.lookup
    monkeypatch.setattr(
        BettiCache, "lookup",
        lambda cache, key: lookups.append((cache, key)) or real(cache, key),
    )
    cfg = tiny_config(tmp_path / "cache", n_max=5, jobs=1)
    cold = run_sweep(cfg)
    warm = run_sweep(cfg)
    assert cold.canonical_json() == warm.canonical_json()
    # every share has its own BettiCache, kept alive here so ids stay unique;
    # at --jobs 1 the whole grid is one share
    per_share = Counter((id(cache), key) for cache, key in lookups)
    shares = verify_mod._shares(cfg, sweep_cells(cfg))
    assert len({id(cache) for cache, _ in lookups}) == 2 * len(shares) == 2
    assert max(per_share.values()) == 1


def test_sweep_is_deterministic(tmp_path):
    a = run_sweep(tiny_config(tmp_path / "cache"))
    b = run_sweep(tiny_config(tmp_path / "cache"))
    assert a.canonical_json() == b.canonical_json()


# ---------------------------------------------------------------- reports


def test_report_json_round_trip(tmp_path):
    report = run_sweep(tiny_config(tmp_path / "cache", n_max=3, s_max=1))
    text = emit_table(report, "json")
    again = VerificationReport.from_json(text)
    assert emit_table(again, "json") == text
    assert again.summary == report.summary
    assert [r.quantity for r in again.rows] == [r.quantity for r in report.rows]


def test_csv_shape(tmp_path):
    report = run_sweep(tiny_config(tmp_path / "cache", n_max=3, s_max=1))
    lines = emit_table(report, "csv").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(report.rows) + 1
    assert all(line.split(",")[:3] != ["", "", ""] for line in lines[1:])


def test_csv_renders_structured_cells(tmp_path):
    report = run_sweep(tiny_config(tmp_path / "cache", n_max=4, s_max=2))
    text = emit_table(report, "csv")
    betti_lines = [l for l in text.splitlines() if ",betti," in l]
    assert betti_lines and all("[" in l for l in betti_lines)


def rendered_as_json(value) -> str:
    """A CSV cell as every value but strings and None was rendered: its JSON form."""
    if value is None:
        return ""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def test_csv_cells_are_the_json_forms_on_the_default_grid(default_report):
    values = [v for r in default_report.rows for v in (r.formula, r.oracle)]
    assert {type(v) for v in values} >= {int, bool, list, str}
    assert all(verify_mod._render_cell(v) == rendered_as_json(v) for v in values)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in default_report.rows:
        writer.writerow([r.n, r.t, r.s, r.quantity, rendered_as_json(r.formula),
                         rendered_as_json(r.oracle), r.status, f"{r.ms:.3f}"])
    assert emit_table(default_report, "csv") == buf.getvalue()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**70)
    | st.integers(-(2**70), -1) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=10,
)


@given(json_values)
def test_csv_cell_is_the_json_form(value):
    assert verify_mod._render_cell(value) == rendered_as_json(value)


def test_emit_table_writes_files(tmp_path):
    report = run_sweep(tiny_config(tmp_path / "cache", n_max=3, s_max=1))
    out = tmp_path / "report.csv"
    text = emit_table(report, "csv", str(out))
    assert out.read_text(encoding="utf-8") == text
    with pytest.raises(ValueError):
        emit_table(report, "yaml")
    with pytest.raises(PathIdealError):
        emit_table(report, "csv", str(tmp_path))  # directory, not a file


def test_row_round_trip():
    row = Row(5, 3, 2, "reg", 5, 4, "fail", 12.3456,
              repro="pathideal reg --n 5 --t 3 --power 2")
    back = Row.from_dict(row.to_dict())
    assert (back.n, back.t, back.s, back.quantity) == (5, 3, 2, "reg")
    assert back.repro == row.repro
    assert back.ms == pytest.approx(12.346)
    assert "ms" not in row.to_dict(include_ms=False)


# ---------------------------------------------------------------- cache


def test_cache_hit_and_miss_counters(tmp_path):
    cache = BettiCache(tmp_path / "cache")
    t1 = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    assert (cache.hits, cache.misses) == (0, 1)
    t2 = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert t1 == t2


def test_betti_row_names_the_entries_off_the_linear_strand():
    # Generated in degree d = st = 2; three entries off the strand j = i + 2,
    # two of them at the same (i, j).
    entries = {(0, (1, 1, 0)): 1, (0, (0, 1, 1)): 1, (1, (1, 1, 1)): 1,
               (1, (2, 1, 1)): 2, (1, (1, 1, 2)): 1, (0, (3, 0, 0)): 1}
    stray = sorted((i, sum(b)) for (i, b) in entries if sum(b) != i + 2)
    assert stray == [(0, 3), (1, 4), (1, 4)]
    table = table_of(3, 2, entries)
    assert verify_mod._betti(2, table) == f"entries off the linear strand: {stray}"
    on_strand = {k: r for k, r in entries.items() if sum(k[1]) == k[0] + 2}
    assert verify_mod._betti(2, table_of(3, 2, on_strand)) == [2, 1]


def test_cached_betti_tables_settle_the_misses_in_one_call(tmp_path, monkeypatch):
    calls, real = [], cache_mod.betti_tables
    monkeypatch.setattr(cache_mod, "betti_tables", lambda ideals, *args: calls.append(
        list(ideals)) or real(calls[-1], *args))
    cache = BettiCache(tmp_path / "cache")
    hit = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    other = minimalize([m("x1^2", 2), m("x1*x2", 2)], ambient=2)
    wide = minimalize([m("*".join(f"x{j}" for j in range(1, 26)), 25)], ambient=25)
    got = cached_betti_tables([other, EDGE_IDEAL_3, wide, other], GF2, cache)
    # each key looked up once; the two misses settled in one call
    assert calls[1:] == [[other, wide]]
    assert (cache.hits, cache.misses) == (1, 3)
    assert got[0] is got[3] and got[0] == betti_table(other)
    assert got[1] == hit
    assert isinstance(got[2], SizeCapExceededError)
    # the refused ideal is not stored
    assert len(list((tmp_path / "cache").glob("*.pibt"))) == 2
    with pytest.raises(SizeCapExceededError):
        cached_betti_table(wide, GF2, cache)
    assert cached_betti_tables([], GF2, cache) == [] and len(calls) == 3


def test_cache_key_separates_characteristics(tmp_path):
    cache = BettiCache(tmp_path / "cache")
    cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    cached_betti_table(EDGE_IDEAL_3, FieldSpec(3), cache)
    assert cache.misses == 2
    assert betti_cache_key(EDGE_IDEAL_3, 2) != betti_cache_key(EDGE_IDEAL_3, 3)
    assert betti_cache_key(EDGE_IDEAL_3, 2) != betti_cache_key(EDGE_IDEAL_3, 2, 5)


def test_cache_key_ignores_how_the_ideal_was_built():
    rows = np.array([[1, 1, 0], [0, 1, 1]])
    key = betti_cache_key(EDGE_IDEAL_3, 2)
    for built in (rows[::-1], np.concatenate((rows, rows, rows[:1])),
                  rows.astype(np.int32), rows.astype(np.uint8)):
        assert betti_cache_key(minimalize(built), 2) == key


def test_cache_key_changes_with_every_input(monkeypatch):
    key = betti_cache_key(EDGE_IDEAL_3, 2)
    others = [
        betti_cache_key(minimalize([m("x1*x2", 4), m("x2*x3", 4)]), 2),  # ambient
        betti_cache_key(EDGE_IDEAL_3, 3),
        betti_cache_key(EDGE_IDEAL_3, 2, 5),
        betti_cache_key(minimalize([m("x1*x2^2", 3), m("x2*x3", 3)]), 2),  # one exponent
        betti_cache_key(minimalize([m("x1*x2", 3), m("x2*x3^2", 3)]), 2),
    ]
    monkeypatch.setattr(cache_mod, "ORACLE_VERSION", cache_mod.ORACLE_VERSION + 1)
    others.append(betti_cache_key(EDGE_IDEAL_3, 2))
    monkeypatch.undo()
    assert len({key, *others}) == len(others) + 1
    # rows of ambient 0 have no bytes: the count in the header tells (0) from (1)
    zero, unit = minimalize([], ambient=0), minimalize([Monomial(())])
    assert betti_cache_key(zero, 2) != betti_cache_key(unit, 2)
    # every cap from 2^63 - 1 up admits any lattice, so they share a key
    assert betti_cache_key(EDGE_IDEAL_3, 2, 2**80) == betti_cache_key(EDGE_IDEAL_3, 2, 2**63 - 1)
    assert betti_cache_key(EDGE_IDEAL_3, 2, -(2**80)) == betti_cache_key(EDGE_IDEAL_3, 2, -1)
    assert betti_cache_key(EDGE_IDEAL_3, 2, 0) != betti_cache_key(EDGE_IDEAL_3, 2, -1)


def test_warm_sweep_over_a_json_keyed_cache_recomputes(tmp_path, monkeypatch):
    # A cache filled by the release before this one: the same binary
    # entries, under keys hashed from JSON and named <key>.json.
    cfg = tiny_config(tmp_path / "new", n_min=4, s_max=2, jobs=1)
    old = tmp_path / "old"
    old.mkdir()
    tables, real = [], cache_mod.betti_tables

    def spy(ideals, *args):
        ideals = list(ideals)
        found = real(ideals, *args)
        tables.extend(zip(ideals, found))
        return found

    monkeypatch.setattr(cache_mod, "betti_tables", spy)
    want = run_sweep(cfg)
    for ideal, table in tables:
        key = json_cache_key(ideal, table.characteristic, DEFAULT_LATTICE_CAP)
        (old / f"{key}.json").write_bytes(cache_mod._encode(key, table))
    stored, count = sorted(old.iterdir()), len(tables)
    opened = []
    monkeypatch.setattr(cache_mod, "open", lambda path, *args, **kwargs: opened.append(
        path) or open(path, *args, **kwargs), raising=False)
    cache = BettiCache(old)
    monkeypatch.setattr(verify_mod, "BettiCache", lambda directory: cache)
    got = run_sweep(dataclasses.replace(cfg, cache_dir=str(old)))
    assert got.canonical_json() == want.canonical_json()
    assert (cache.hits, cache.misses, cache.evictions) == (0, count, 0)
    assert len(opened) == count and all(str(path).endswith(".pibt") for path in opened)
    # the old entries are orphaned, untouched, beside the new ones
    assert sorted(old.glob("*.json")) == stored
    assert len(list(old.glob("*.pibt"))) == count


def test_cache_evicts_corrupt_entries(tmp_path):
    cache = BettiCache(tmp_path / "cache")
    cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    key = betti_cache_key(EDGE_IDEAL_3, 2)
    victim = tmp_path / "cache" / f"{key}.pibt"
    victim.write_text("{not json", encoding="utf-8")
    table = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    assert table.totals() == {0: 2, 1: 1}
    assert cache.misses == 2
    # the eviction recomputed and re-stored a valid entry
    assert cache_mod._decode(victim.read_bytes(), key) == table
    # valid JSON that is not an object is evicted the same way
    victim.write_text("[1]", encoding="utf-8")
    assert cache.lookup(key) is None
    assert not victim.exists()
    assert cache.misses == 3


def test_cache_rejects_swapped_entries(tmp_path):
    cache = BettiCache(tmp_path / "cache")
    cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    key2 = betti_cache_key(EDGE_IDEAL_3, 2)
    key3 = betti_cache_key(EDGE_IDEAL_3, 3)
    src = tmp_path / "cache" / f"{key2}.pibt"
    (tmp_path / "cache" / f"{key3}.pibt").write_bytes(src.read_bytes())
    cached_betti_table(EDGE_IDEAL_3, FieldSpec(3), cache)
    assert cache.hits == 0  # stored-key mismatch forced a recompute


def test_cache_does_not_replay_older_oracle(tmp_path, monkeypatch):
    cache = BettiCache(tmp_path / "cache")
    # An older oracle stored a (here: wrong) table for the ideal.
    monkeypatch.setattr(cache_mod, "ORACLE_VERSION", cache_mod.ORACLE_VERSION - 1)
    old_key = betti_cache_key(EDGE_IDEAL_3, 2)
    cache.store(old_key, table_of(3, 2, {(0, (1, 1, 0)): 1}))
    monkeypatch.undo()
    assert betti_cache_key(EDGE_IDEAL_3, 2) != old_key
    table = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    assert table.totals() == {0: 2, 1: 1}
    assert (cache.hits, cache.misses) == (0, 1)
    # Under the current key, an entry written by another version is a miss
    # and is evicted.
    key = betti_cache_key(EDGE_IDEAL_3, 2)
    entry = tmp_path / "cache" / f"{key}.pibt"
    raw = entry.read_bytes()
    header = cache_mod._HEADER
    fields = list(header.unpack_from(raw))
    assert fields[2] == cache_mod.ORACLE_VERSION
    fields[2] -= 1
    entry.write_bytes(cache_mod._sealed(header.pack(*fields) + raw[header.size : -32]))
    assert cache.lookup(key) is None
    assert not entry.exists()


def json_entry(fields: dict) -> bytes:
    """An entry in the JSON layout of earlier releases: sealed by a hex digest."""
    body = json.dumps(fields, separators=(",", ":"))[:-1].encode("ascii")
    return body + b',"sha256":"' + hashlib.sha256(body).hexdigest().encode() + b'"}'


def test_cache_evicts_unsound_entries(tmp_path):
    cache = BettiCache(tmp_path / "cache")
    want = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    key = betti_cache_key(EDGE_IDEAL_3, 2)
    entry = tmp_path / "cache" / f"{key}.pibt"
    sound = entry.read_bytes()
    header = cache_mod._HEADER
    names = ("magic", "key", "version", "ambient", "char", "count", "width", "rank_width")
    fields = dict(zip(names, header.unpack_from(sound)))
    assert fields == {"magic": b"PIBT", "key": hashlib.sha256(key.encode()).digest(),
                      "version": cache_mod.ORACLE_VERSION, "ambient": 3, "char": 2,
                      "count": 3, "width": 1, "rank_width": 1}
    # (i, b) rows, then the ranks, then the digest
    rows = sound[header.size : header.size + 12]
    ranks = sound[header.size + 12 : -32]
    assert rows == bytes([0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1])
    assert ranks == bytes([1, 1, 1])
    assert cache_mod._sealed(sound[:-32]) == sound

    def sealed(rows=rows, ranks=ranks, **changes):
        # a valid digest, so that only the structure check can refuse it
        return cache_mod._sealed(header.pack(*{**fields, **changes}.values()) + rows + ranks)

    def wide(values):  # 8-byte big-endian values
        return b"".join(v.to_bytes(8, "big") for v in values)

    # The unsigned layout holds neither fractions, bools, nested arrays nor
    # negative numbers; their analogue is a value of 2^63 or more at width 8.
    flat = [0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1]
    refused = {  # each case, and the check that refuses it
        "rank 0": (sealed(ranks=bytes([0, 1, 1])), "rank below 1"),
        "exponent 2^64 - 1 at width 8": (
            sealed(width=8, rows=wide(flat + [2**64 - 1])), "above 2\\^63"),
        "index 2^63 at width 8": (
            sealed(width=8, rows=wide(flat[:8] + [2**63, 1, 1, 1])), "above 2\\^63"),
        "rank 2^63 at width 8": (
            sealed(rank_width=8, ranks=wide([1, 1, 2**63])), "rank below 1"),
        "ambient 4, rows of 3": (sealed(ambient=4), "length"),
        "a row one value short": (sealed(rows=rows[:-1]), "length"),
        "ranks and entries disagree": (sealed(ranks=ranks[:2]), "length"),
        "count above the rows": (sealed(count=4), "length"),
        "width 3": (sealed(width=3), "widths"),
        "repeated (i, b)": (
            sealed(count=4, rows=rows[:4] + rows, ranks=ranks + b"\x01"), "order"),
        "rows out of order": (sealed(rows=rows[4:8] + rows[:4] + rows[8:]), "order"),
        "last two rows swapped": (sealed(rows=rows[:4] + rows[8:] + rows[4:8]), "order"),
        "another magic": (sealed(magic=b"PIBU"), "not a binary"),
        "digest mismatch": (sound[:-33] + b"\x02" + sound[-32:], "digest"),
        "no digest": (sound[:-32], "shorter"),
        "empty": (b"", "shorter"),
        # The JSON layouts of earlier releases: this one's predecessor, flat
        # arrays with a hex digest, as it stored this very table (the upgrade
        # path), and the one before it, with no digest.
        "JSON layout, sealed": (json_entry({
            "key": key, "oracle_version": cache_mod.ORACLE_VERSION, "ambient": 3,
            "char": 2, "i": [0, 0, 1], "b": [0, 1, 1, 1, 1, 0, 1, 1, 1],
            "rank": [1, 1, 1],
        }), "digest"),
        "older JSON layout": (json.dumps({
            "key": key, "oracle_version": cache_mod.ORACLE_VERSION,
            "table": {"ambient": 3, "char": 2,
                      "entries": [{"i": 0, "multidegree": [0, 1, 1], "rank": 1}],
                      "graded": [{"i": 0, "j": 2, "rank": 1}]},
        }, sort_keys=True, separators=(",", ":")).encode(), "digest"),
    }
    # Every truncation, and every single byte flipped.
    for length in range(len(sound)):
        refused[f"truncated to {length} bytes"] = (sound[:length], "digest|shorter")
    for at in range(len(sound)):
        flipped = bytearray(sound)
        flipped[at] ^= 0xFF
        refused[f"byte {at} flipped"] = (bytes(flipped), "digest")
    for misses, (case, (text, reason)) in enumerate(refused.items(), start=2):
        with pytest.raises(ValueError, match=reason):
            cache_mod._decode(text, key)
        entry.write_bytes(text)
        assert cached_betti_table(EDGE_IDEAL_3, GF2, cache) == want, case
        assert (cache.hits, cache.misses) == (0, misses), case
        # evicted, recomputed and stored again
        assert entry.read_bytes() == sound, case
    assert cache.evictions == len(refused)


def test_sweep_reports_cache_evictions_in_one_line(tmp_path, caplog):
    # Two cells, four tables: (4,2,1) reads I; (4,2,2) reads I^2 and I^2 + (u_j, ...)
    # for j = 2, 3.  Every entry corrupt, as after a change of layout.
    cfg = tiny_config(tmp_path / "cache", n_min=4, s_max=2, jobs=1)
    assert sweep_cells(cfg) == [(4, 2, 1), (4, 2, 2)]
    cold = run_sweep(cfg)
    entries = sorted((tmp_path / "cache").glob("*.pibt"))
    assert len(entries) == 4

    def answers(report):
        rows = [r.to_dict(include_ms=False) for r in report.rows]
        return rows, report.summary, report.canonical_json()

    for jobs in (1, 2):  # the pool hands each cell's count back
        for entry in entries:
            entry.write_text("{not json", encoding="utf-8")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pathideal"):
            again = run_sweep(dataclasses.replace(cfg, jobs=jobs))
        loud = [r for r in caplog.records if r.levelno > logging.DEBUG]
        assert [(r.name, r.levelname, r.getMessage()) for r in loud] == [(
            "pathideal.verify", "WARNING",
            f"evicted 4 corrupt or outdated cache entries from {tmp_path / 'cache'}",
        )]
        # each eviction is logged at DEBUG, in the process that made it
        quiet = [r for r in caplog.records if r.name == "pathideal.cache"]
        assert [r.levelname for r in quiet] == ["DEBUG"] * (4 if jobs == 1 else 0)
        assert answers(again) == answers(cold)
    # the entries were stored again, so a warm sweep evicts nothing
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="pathideal"):
        assert answers(run_sweep(cfg)) == answers(cold)
    assert caplog.records == []


def test_cache_makes_its_directory_only_when_it_is_missing(tmp_path, monkeypatch, caplog):
    made, real_mkdir = [], Path.mkdir

    def spy(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", spy)
    table = table_of(3, 2, {(0, (1, 1, 0)): 1})
    directory = tmp_path / "cache"
    cache = BettiCache(directory)
    for key in ("k0", "k1", "k2"):
        cache.store(key, table)
    assert made == [directory]  # the first store made it, the others did not
    for child in directory.iterdir():
        child.unlink()
    directory.rmdir()  # removed between two stores: made again, then retried
    cache.store("k3", table)
    assert made == [directory, directory]
    assert cache.lookup("k3") == table and cache.lookup("k2") is None
    BettiCache(directory).store("k4", table)  # a new cache on a made directory
    assert made == [directory, directory]
    assert caplog.records == [] and not cache._write_failed


def test_cache_survives_unwritable_directory(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    cache = BettiCache(blocker)
    table = cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    assert table.totals() == {0: 2, 1: 1}
    # second call recomputes silently; no exception, no cache
    cached_betti_table(EDGE_IDEAL_3, GF2, cache)
    assert cache.hits == 0 and cache.misses == 2


def test_resolve_cache_dir_precedence(monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert str(resolve_cache_dir()) == ".pathideal-cache"
    monkeypatch.setenv(CACHE_ENV_VAR, "/tmp/env-cache")
    assert str(resolve_cache_dir()) == "/tmp/env-cache"
    assert str(resolve_cache_dir("/tmp/explicit")) == "/tmp/explicit"


def test_second_sweep_is_served_from_cache(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path / "cache")
    first = run_sweep(cfg)

    def boom(*args, **kwargs):
        raise AssertionError("oracle invoked despite warm cache")

    monkeypatch.setattr(cache_mod, "betti_tables", boom)
    second = run_sweep(cfg)
    assert first.canonical_json() == second.canonical_json()


def test_perfbench_tracer_targets_exist(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps these by name from outside the package, and
    # perfbench/worker.py measures the lattice through pathideal.lcm_lattice.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), attr
    for module, cls, attr, _ in tracing.TRACED_METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(owner.__dict__.get(attr)), f"{cls}.{attr}"
    assert callable(getattr(importlib.import_module("pathideal"), "lcm_lattice", None))
    cfg = tiny_config(tmp_path / "cache", n_max=6, s_max=2, jobs=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_sweep(cfg)
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert {"cache.lookup", "cache.store"} <= set(stats)
    # the sweep's linearity work reaches the tracer: one call per cell
    cells = sweep_cells(cfg)
    overlap = sum(n <= 2 * t for n, t, _ in cells)
    assert 0 < overlap < len(cells)
    assert stats["linearity.linear_quotients_check"].calls == overlap
    assert stats["linearity.quasi_linear_witness"].calls == len(cells) - overlap
    # a sweep settles its tables in lists; the ladder calls betti_table itself
    package = importlib.import_module("pathideal")
    i = package.ideal_power(package.path_ideal(package.PathIdealSpec(6, 2)), 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        package.betti_table(i, GF2)
    finally:
        tracer.uninstall()
    assert tracer.stats()["oracle.betti_table"].calls == 1


# ---------------------------------------------------------------- config file


def write_config(tmp_path, config) -> str:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_load_config_file(tmp_path):
    path = write_config(tmp_path, {
        "t_min": 2, "t_max": 3, "chars": [2, 3], "cache_dir": "/tmp/cache",
        "n_max": 6, "n_min": None,
    })
    cfg = _sweep_config(build_parser().parse_args(["verify", "--config", path]))
    assert cfg == SweepConfig(t_min=2, t_max=3, chars=(2, 3), cache_dir="/tmp/cache",
                              n_max=6)


def test_load_config_file_rejects_unknown_keys(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    for text, message in [
        ('{"t_max": 3, "tmax": 3, "bogus": 1}', "unknown key(s) bogus, tmax"),
        ("[1, 2]", "is not a JSON object"),
        ('"t_min = 2"', "is not a JSON object"),
        ("t_min = 2\n", "cannot read config"),  # the old key = value format
        (None, "cannot read config"),  # no such file
    ]:
        if text is None:
            path.unlink()
        else:
            path.write_text(text, encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pathideal: ") and message in err, err


# ---------------------------------------------------------------- CLI


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_gens_text(capsys):
    code, out = run_cli(capsys, "gens", "--n", "5", "--t", "3")
    assert code == 0
    assert out.splitlines() == ["x1*x2*x3", "x2*x3*x4", "x3*x4*x5"]


def test_cli_gens_zero_ideal(capsys):
    code, out = run_cli(capsys, "gens", "--n", "2", "--t", "3")
    assert code == 0
    assert out.strip() == "(0)"


def test_cli_gens_json(capsys):
    code, out = run_cli(capsys, "gens", "--n", "3", "--t", "2", "--json")
    assert code == 0
    data = json.loads(out)
    # canonical ideal storage: ascending exponent tuples
    assert data["generators"] == [[0, 1, 1], [1, 1, 0]]


def test_cli_power_json(capsys):
    code, out = run_cli(
        capsys, "power", "--n", "5", "--t", "3", "--power", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 6
    assert data["generators"][0] == {
        "parts": [2, 0, 0],
        "monomial": [2, 2, 2, 0, 0],
    }


def test_cli_betti_text(capsys, tmp_path):
    code, out = run_cli(
        capsys, "betti", "--n", "3", "--t", "2",
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "reg R/I = 1" in out
    assert "pd  R/I = 2" in out
    assert "linear resolution: yes" in out


def test_cli_betti_json(capsys, tmp_path):
    code, out = run_cli(
        capsys, "betti", "--n", "3", "--t", "2", "--json",
        "--cache", str(tmp_path / "cache"),
    )
    data = json.loads(out)
    assert data["ambient"] == 3 and data["char"] == 2
    assert {"i": 1, "j": 3, "rank": 1} in data["graded"]


def test_cli_reg_match(capsys, tmp_path):
    code, out = run_cli(
        capsys, "reg", "--n", "4", "--t", "2", "--power", "2", "--json",
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "char": 2, "formula": 3, "oracle": 3, "match": True,
        "n": 4, "power": 2, "t": 2,
    }


def test_cli_reg_rejects_zero_ideal(capsys):
    code = main(["reg", "--n", "2", "--t", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "pathideal:" in err


@pytest.fixture
def bare_root_logger():
    """The root logger without handlers, as main finds it in a fresh interpreter."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    yield root
    root.handlers[:] = handlers
    root.setLevel(level)


def test_cli_log_level_shows_skipped_rows(tmp_path, capsys, bare_root_logger):
    # A power cap of 3 skips every row of (4,2,2), whose I^2 has 6 generators.
    argv = ["verify", "--t-max", "2", "--n-min", "4", "--n-max", "4", "--s-max", "2",
            "--power-cap", "3", "--cache", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    bare_root_logger.handlers.clear()
    assert main(argv + ["--log-level", "info"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 10
    assert all(line.startswith("pathideal: INFO: cell (4,2,2) ") for line in err)
    assert ("pathideal: INFO: cell (4,2,2) reg skipped: "
            "I^2 needs 6 products of 3 generators, cap 3") in err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table", "--report", "r.json", "--log-level", "loud"])


def test_cli_rejects_oversized_characteristic(capsys):
    code = main(["reg", "--n", "5", "--t", "3", "--char", "4294967311"])
    err = capsys.readouterr().err
    assert code == 2
    assert "2^31" in err


def test_cli_check_quotients_failure_beyond_overlap(capsys):
    code, out = run_cli(
        capsys, "check", "--n", "7", "--t", "3", "--mode", "quotients", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is False and data["position"] == 5
    assert data["offender"] == "x1*x2*x3"


def test_cli_check_both_json(capsys):
    code, out = run_cli(capsys, "check", "--n", "7", "--t", "3", "--json")
    data = json.loads(out)
    assert [d["mode"] for d in data] == ["quotients", "quasi"]
    quasi = data[1]
    assert quasi["quasi_linear"] is False
    assert quasi["break"]["variable"] == "x4"
    assert quasi["break"]["facts_ok"] is True
    assert quasi["break"]["colon"] == ["x4", "x1*x2*x3"]


def test_cli_check_quotients_pass_text(capsys):
    code, out = run_cli(
        capsys, "check", "--n", "5", "--t", "3", "--power", "2",
        "--mode", "quotients",
    )
    assert code == 0
    assert "linear quotients: yes" in out


def test_cli_check_zero_ideal_reports_both_modes(capsys):
    code, out = run_cli(capsys, "check", "--n", "2", "--t", "3")
    assert code == 0
    assert out.splitlines() == [
        "linear quotients: ERROR (zero ideal: n=2 < t=3)",
        "quasi-linear: yes",
    ]
    code, out = run_cli(capsys, "check", "--n", "2", "--t", "3", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"mode": "quotients", "ok": False, "error": "zero ideal: n=2 < t=3"},
        {"mode": "quasi", "quasi_linear": True},
    ]


def test_cli_check_prints_the_break_only_where_it_is_stated(capsys):
    # t = 1 has no break to print, however wide the path; t = 2 has one from n = 5
    for n, t, lines in [(5, 1, 1), (4, 1, 1), (4, 2, 1), (5, 2, 3)]:
        code, out = run_cli(capsys, "check", "--n", str(n), "--t", str(t),
                            "--power", "2", "--mode", "quasi")
        assert code == 0
        assert len(out.splitlines()) == lines
        assert ("top-generator break" in out) is (lines == 3)
        code, out = run_cli(capsys, "check", "--n", str(n), "--t", str(t),
                            "--power", "2", "--mode", "quasi", "--json")
        assert ("break" in json.loads(out)) is (lines == 3)


@pytest.mark.parametrize("command", ["gens", "power", "betti", "check"])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("power", [0, -1])
def test_cli_refuses_a_power_below_one_for_every_n(capsys, command, n, power):
    # n = 2 < t = 3 is the zero ideal, whose generators are never built.
    code = main([command, "--n", str(n), "--t", "3", "--power", str(power)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"pathideal: power must be >= 1, got {power}\n"


def test_cli_formula(capsys):
    assert run_cli(capsys, "formula", "gamma", "--n", "7", "--t", "3") == (0, "4\n")
    assert run_cli(
        capsys, "formula", "reg", "--n", "7", "--t", "3", "--power", "2"
    ) == (0, "7\n")
    assert run_cli(
        capsys, "formula", "pd", "--n", "5", "--t", "3", "--power", "2"
    ) == (0, "3\n")
    assert run_cli(
        capsys, "formula", "betti", "--n", "5", "--t", "3", "--power", "2",
        "--i", "1",
    ) == (0, "6\n")


def test_cli_formula_missing_args(capsys):
    code = main(["formula", "reg", "--n", "7", "--t", "3"])
    assert code == 2
    assert "needs --power" in capsys.readouterr().err


def test_cli_verify_and_table_round_trip(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code, out = run_cli(
        capsys, "verify", "--t-min", "2", "--t-max", "2", "--n-max", "3",
        "--s-max", "1", "--cache", str(tmp_path / "cache"),
        "--out", str(out_json), "--csv", str(out_csv),
    )
    assert code == 0
    assert "fail: 0" in out and "cells: 2" in out
    report = VerificationReport.from_json(out_json.read_text(encoding="utf-8"))
    assert report.summary["fail"] == 0

    code, out = run_cli(
        capsys, "table", "--report", str(out_json), "--format", "csv"
    )
    assert code == 0
    assert out == out_csv.read_text(encoding="utf-8")


@pytest.mark.parametrize("text, error", [
    ('{"config": {}}', "KeyError"),
    ("[1]", "TypeError"),
    ('{"config": {}, "environment": {}, "summary": {}, '
     '"rows": [{"n": 3, "s": 1, "quantity": "reg", "formula": 1, "oracle": 1, '
     '"status": "pass"}]}', "KeyError"),
])
def test_cli_table_refuses_a_malformed_report(capsys, tmp_path, text, error):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    assert main(["table", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"pathideal: malformed report {path}: {error}: ")
    assert err.count("\n") == 1, err


def test_cli_verify_config_file_with_flag_override(capsys, tmp_path):
    path = write_config(
        tmp_path, {"t_min": 2, "t_max": 2, "n_max": 5, "s_max": 1, "chars": [2, 3]}
    )
    out_json = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--config", path, "--n-max", "3",
        "--cache", str(tmp_path / "cache"), "--out", str(out_json),
    )
    assert code == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    assert report["config"]["n_max"] == 3  # flag beat the file
    assert report["config"]["t_max"] == 2
    assert report["config"]["chars"] == [2, 3]  # no --char: the file's chars stand
    code, _ = run_cli(
        capsys, "verify", "--config", path, "--char", "3", "--n-max", "3",
        "--cache", str(tmp_path / "cache"), "--out", str(out_json),
    )
    assert code == 0
    assert json.loads(out_json.read_text(encoding="utf-8"))["config"]["chars"] == [3]


def test_cli_verify_rejects_bad_config(capsys, tmp_path):
    for config in (
        {"t_min": 1}, {"chars": 2}, {"chars": [4]}, {"chars": ["2"]},
        {"n_max": 5.5}, {"jobs": 1.5}, {"jobs": True}, {"deep_n_max": "7"},
        {"chars": [2, 2]}, {"n_min": 12, "n_max": 3}, {"s_min": 3, "n_min": 8},
        {"cache_dir": 5}, {"cache_dir": ["/tmp/cache"]},
    ):
        code = main(["verify", "--config", write_config(tmp_path, config)])
        assert code == 2
        assert "bad sweep configuration" in capsys.readouterr().err


def test_cli_verify_report_config_replays_the_sweep(capsys, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, _ = run_cli(
        capsys, "verify", "--t-min", "2", "--t-max", "3", "--n-max", "5",
        "--s-max", "2", "--deep-n-max", "4", "--char", "3",
        "--cache", str(tmp_path / "cache"), "--out", str(first),
    )
    assert code == 0
    config = json.loads(first.read_text(encoding="utf-8"))["config"]
    code, _ = run_cli(
        capsys, "verify", "--config", write_config(tmp_path, config),
        "--out", str(second),
    )
    assert code == 0
    assert VerificationReport.from_json(
        first.read_text(encoding="utf-8")
    ).canonical_json() == VerificationReport.from_json(
        second.read_text(encoding="utf-8")
    ).canonical_json()


def test_cli_verify_json_to_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code = main([
        "verify", "--t-min", "2", "--t-max", "2", "--n-max", "2", "--s-max", "1",
        "--cache", str(tmp_path / "cache"), "--json", str(target),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("pathideal: cannot write")


@pytest.mark.parametrize(
    "argv",
    [
        ["gens", "--n", "5", "--t", "3", "--jobs", "2"],
        ["power", "--n", "5", "--t", "3", "--power", "2", "--char", "3"],
        ["betti", "--n", "5", "--t", "3", "--config", "f"],
        ["check", "--n", "5", "--t", "3", "--cache", "d"],
        ["formula", "gamma", "--n", "7", "--t", "3", "--jobs", "2"],
        ["table", "--report", "r.json", "--json"],
    ],
)
def test_cli_rejects_flags_a_command_ignores(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_verify_flags_come_from_sweep_config():
    args = vars(build_parser().parse_args(["verify"]))
    for field in dataclasses.fields(SweepConfig):
        if field.name == "chars":  # set by --char
            continue
        assert field.name in args and args[field.name] is None
        # each flag parses an int, so each such field must hold one
        assert field.type in ("int", "int | None") or field.name == "cache_dir"


def test_readme_cli_examples_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in section.splitlines()
        if line.startswith("pathideal ")
    ]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a flag the command does not take
    # the config example is a valid config file
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = write_config(tmp_path, json.loads(example))
    cfg = _sweep_config(parser.parse_args(["verify", "--config", path]))
    assert cfg.chars == (2, 3)


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_cli_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
    code, _ = run_cli(capsys, "betti", "--n", "3", "--t", "2")
    assert code == 0
    assert (tmp_path / "env-cache").is_dir()
    assert list((tmp_path / "env-cache").glob("*.pibt"))


def test_cli_check_of_a_large_power_fits_in_600_mib():
    # I_2(L_30)^4 has 35,960 generators, so one q x q colon mask would take
    # 1.2 GiB.  The address-space limit is set in the child only, and one
    # BLAS thread keeps its reservation the same on any machine.
    script = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20)); "
        "from pathideal.cli import main; "
        "sys.exit(main(['check', '--n', '30', '--t', '2', '--power', '4']))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "linear quotients: no (position 4, offender x1*x2)"
    assert lines[1] == "quasi-linear: no"


def test_cli_broken_pipe_exits_quietly():
    # payload must exceed the 64 KiB pipe buffer so the writer hits EPIPE
    script = (
        "import sys; from pathideal.cli import main; "
        "sys.exit(main(['power', '--n', '9', '--t', '2', '-s', '6', '--json']))"
    )
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(script)} | head -c 64"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        ["sh", "-c", cmd], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0
    assert len(proc.stdout) == 64
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
