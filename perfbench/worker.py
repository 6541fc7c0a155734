"""One benchmark process: set up or measure a single workload.

run.py starts this file in a fresh interpreter for every set-up and for the
measurement, so that a process's peak RSS, and that of its pool workers,
belongs to one workload:

    python3 perfbench/worker.py setup   --workload W --seed N --cache DIR
    python3 perfbench/worker.py measure --workload W --seed N --cache DIR \
        --workdir DIR --seconds S --trace 0|1 [--spans FILE]

``measure`` prints one JSON object as the last line of its standard output.
Every output is compared with golden.json; a row or cell that differs, has
status fail or skipped, or raises counts as a failed operation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import pathideal  # noqa: E402
from pathideal.verify import CSV_COLUMNS  # noqa: E402

from tracing import LAYERS, SpanStats, Tracer  # noqa: E402

GOLDEN_PATH = BENCH_DIR / "golden.json"
WORKLOADS = ("sweep-cold", "sweep-warm", "oracle-ladder")
# sweep-cold uses the pool as `pathideal verify --jobs 2` does; sweep-warm,
# the cache fill and every traced sweep stay in one process.
COLD_JOBS = 2
# Cells too large for the default grid.  Over GF(2), (8,2,4) stresses the
# lcm lattice and (12,4,2) face enumeration; (10,2,2) takes the dense GF(p)
# rank route, with the odd prime p chosen by the seed.
LADDER_GF2 = ((8, 2, 4), (12, 4, 2))
LADDER_ODD = (10, 2, 2)
ODD_PRIMES = (3, 5, 7)


def canonical_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_digest(rows: list[dict], summary: dict) -> str:
    """Digest of a report's rows and summary; ms and config are left out."""
    return canonical_digest({"rows": rows, "summary": summary})


def row_key(n, t, s, quantity) -> str:
    return f"{n},{t},{s},{quantity}"


def cell_key(n: int, t: int, s: int, p: int) -> str:
    return f"{n},{t},{s}@{p}"


def ladder_cells(seed: int) -> list[tuple[int, int, int, int]]:
    """The ladder's (n, t, s, p) cells, in the order the seed gives."""
    rng = random.Random(seed)
    p = rng.choice(ODD_PRIMES)
    cells = [(n, t, s, 2) for (n, t, s) in LADDER_GF2] + [(*LADDER_ODD, p)]
    rng.shuffle(cells)
    return cells


def ladder_inputs(seed: int) -> list:
    """(cell, ideal, field) triples; ideals are built as `pathideal betti` does."""
    return [
        (
            (n, t, s, p),
            pathideal.ideal_power(
                pathideal.path_ideal(pathideal.PathIdealSpec(n, t)), s
            ),
            pathideal.FieldSpec(p),
        )
        for (n, t, s, p) in ladder_cells(seed)
    ]


@dataclass
class PassResult:
    """One timed pass: a sweep with its reports, or some ladder cells.

    Passes with the same key do the same work; wall_s of a run sums, over
    the keys, the fastest pass of each key.
    """

    key: str
    wall_s: float
    attempted: int
    failed: int
    cpu_s: float
    rows: int = 0
    cells: int = 0
    cache_bytes: int = 0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def check_sweep(
    json_path: Path, csv_path: Path, golden: dict
) -> tuple[int, int, int, int]:
    """(attempted, failed, rows, cells): the written reports against golden."""
    want = {row_key(r["n"], r["t"], r["s"], r["quantity"]): r for r in golden["rows"]}
    try:
        report = pathideal.VerificationReport.from_json(
            json_path.read_text(encoding="utf-8")
        )
        rows = [r.to_dict(include_ms=False) for r in report.rows]
        with open(csv_path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    except (OSError, ValueError, KeyError, TypeError):
        traceback.print_exc()
        return len(want), len(want), 0, 0
    got = {row_key(r["n"], r["t"], r["s"], r["quantity"]): r for r in rows}
    csv_status = {}
    if records and records[0] == CSV_COLUMNS:
        csv_status = {
            row_key(*rec[:4]): rec[6] for rec in records[1:] if len(rec) == len(CSV_COLUMNS)
        }
    keys = want.keys() | got.keys()
    failed = len(rows) - len(got)  # a key emitted twice
    for key in keys:
        row = got.get(key)
        if (
            row is None
            or row != want.get(key)
            or row["status"] in ("fail", "skipped")
            or csv_status.get(key) != row["status"]
        ):
            failed += 1
    if failed == 0 and report_digest(rows, report.summary) != golden["digest"]:
        failed = 1
    cells = len({(r["n"], r["t"], r["s"]) for r in rows})
    return len(keys), failed, len(rows), cells


def sweep_pass(
    index: int, jobs: int, cache_dir: Path | None, workdir: Path, golden: dict
) -> PassResult:
    """One `pathideal verify --out --csv`: the sweep, then both reports.

    A cache_dir of None gives the pass a fresh, empty cache of its own.
    """
    out = workdir / f"pass-{index}"
    out.mkdir()
    cache = cache_dir if cache_dir is not None else out / "cache"
    json_path, csv_path = out / "report.json", out / "report.csv"
    cfg = pathideal.SweepConfig(jobs=jobs, cache_dir=str(cache))
    bytes_before = dir_bytes(cache)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        report = pathideal.run_sweep(cfg)
        pathideal.emit_table(report, "json", str(json_path))
        pathideal.emit_table(report, "csv", str(csv_path))
    except Exception:
        traceback.print_exc()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    attempted, failed, rows, cells = check_sweep(json_path, csv_path, golden["sweep"])
    written = dir_bytes(cache) - bytes_before
    shutil.rmtree(out)
    return PassResult("sweep", wall, attempted, failed, cpu, rows, cells, written)


def cell_matches(cell: tuple[int, int, int, int], table, golden: dict) -> bool:
    """The table has the golden digest and the closed-form regularity."""
    n, t, s, p = cell
    if table is None:
        return False
    try:
        return (
            canonical_digest(table.to_dict()) == golden["ladder"][cell_key(*cell)]["digest"]
            and table.quotient_regularity() == pathideal.reg_power(n, t, s)
        )
    except Exception:
        traceback.print_exc()
        return False


def ladder_pass(inputs: list, golden: dict) -> PassResult:
    """betti_table on the given ladder cells with no cache, then the checks."""
    tables = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for _, ideal, fieldspec in inputs:
        try:
            tables.append(pathideal.betti_table(ideal, fieldspec))
        except Exception:
            traceback.print_exc()
            tables.append(None)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    failed = sum(
        not cell_matches(cell, table, golden) for (cell, _, _), table in zip(inputs, tables)
    )
    key = "+".join(cell_key(*cell) for cell, _, _ in inputs)
    return PassResult(key, wall, len(inputs), failed, cpu)


def pass_runner(args, golden: dict, traced_run: bool):
    """(run, passes per round): run(index) -> PassResult does pass `index`.

    Untraced, the ladder times one cell per pass, cycling through the cells
    in seed order; a traced pass covers every cell, so that its layer times
    add up to its wall time.
    """
    workdir = Path(args.workdir)
    if args.workload == "oracle-ladder":
        inputs = ladder_inputs(args.seed)
        if traced_run:
            return (lambda index: ladder_pass(inputs, golden)), 1
        return (lambda index: ladder_pass([inputs[index % len(inputs)]], golden)), len(inputs)
    if args.workload == "sweep-cold":
        jobs = 1 if traced_run else COLD_JOBS
        return (lambda index: sweep_pass(index, jobs, None, workdir, golden)), 1
    cache = Path(args.cache)
    return (lambda index: sweep_pass(index, 1, cache, workdir, golden)), 1


def lattice_measure(oracle_calls: list) -> tuple[int, float, int]:
    """(points, seconds, useful points) of the lcm lattices the oracle walked.

    Timed here, outside every span, with the public lcm_lattice; a useful
    point is a multidegree with a nonzero Betti number.
    """
    t0 = time.perf_counter()
    points = sum(len(pathideal.lcm_lattice(ideal)) for ideal, _ in oracle_calls)
    seconds = time.perf_counter() - t0
    useful = sum(len({b for (_, b) in table.entries}) for _, table in oracle_calls)
    return points, seconds, useful


def layer_metrics(tracer: Tracer, res: PassResult, untraced_wall: float) -> dict:
    stats = tracer.stats()

    def get(name: str) -> SpanStats:
        return stats.get(name, SpanStats())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    points, lattice_s, useful = lattice_measure(tracer.oracle_calls)
    ranks = [get("oracle.gf2_rank"), get("oracle.gfp_rank")]
    hits = tracer.counters.get("cache.hits", 0)
    lookups = get("cache.lookup").calls
    covered = sum(st.self_s for st in stats.values())
    out = {
        "oracle.betti_table.calls": get("oracle.betti_table").calls,
        "oracle.betti_table.self_s": get("oracle.betti_table").self_s,
        "oracle.rank_calls": sum(r.calls for r in ranks),
        "oracle.rank_rows": tracer.counters.get("rank_rows", 0),
        "oracle.rank_s": sum(r.total_s for r in ranks),
        "oracle.lattice_points": points,
        "oracle.lattice_s": lattice_s,
        "oracle.table_entries": sum(len(t.entries) for _, t in tracer.oracle_calls),
        "oracle.useful_ratio": ratio(useful, points),
        "monomials.minimalize.calls": get("monomials.minimalize").calls,
        "monomials.minimalize.gens_in": tracer.counters.get("minimalize.gens_in", 0),
        "monomials.minimalize.self_s": get("monomials.minimalize").self_s,
        "monomials.ideal_power.self_s": get("monomials.ideal_power").self_s,
        "monomials.colon_by_monomial.self_s": get("monomials.colon_by_monomial").self_s,
        "path_ideals.power_generators.self_s": get("path_ideals.power_generators").self_s,
        "linearity.linear_quotients_check.calls": get("linearity.linear_quotients_check").calls,
        "linearity.linear_quotients_check.self_s": get("linearity.linear_quotients_check").self_s,
        "linearity.quasi_linear_check.self_s": get("linearity.quasi_linear_check").self_s,
        "linearity.quasi_linear_witness.self_s": get("linearity.quasi_linear_witness").self_s,
        "cache.lookups": lookups,
        "cache.hits": hits,
        "cache.misses": tracer.counters.get("cache.misses", 0),
        "cache.hit_ratio": ratio(hits, lookups),
        "cache.lookup_s": get("cache.lookup").total_s,
        "cache.stores": get("cache.store").calls,
        "cache.store_s": get("cache.store").total_s,
        "cache.bytes_written": res.cache_bytes,
        "verify.cells": res.cells,
        "verify.rows": res.rows,
        "verify.cpu_s": res.cpu_s,
        "verify.emit_s": get("verify.emit_table").total_s,
        "other.self_s": res.wall_s - covered,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (st.self_s for name, st in stats.items() if name.split(".")[0] == layer),
            0.0,
        )
    out["trace.wall_s"] = res.wall_s
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = res.wall_s - untraced_wall
    return out


def peak_rss_mb() -> float:
    """Largest max-RSS of this process or any waited-for descendant."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def fastest_wall(passes: list[PassResult]) -> float:
    """Sum over pass keys of the fastest pass of each key.

    On a shared 2-vCPU VM, speed dropped by up to 2x in bursts of 10 s or
    more.  The fastest of several passes was a steady estimate of a pass's
    cost there; their median was not.
    """
    best: dict[str, float] = {}
    for p in passes:
        best[p.key] = min(p.wall_s, best.get(p.key, p.wall_s))
    return sum(best.values())


def measure(args) -> dict:
    """Run passes for args.seconds; untraced, or alternating with traced ones.

    At least one round (every ladder cell once) runs, however short the run.
    """
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    traced_run = bool(args.trace)
    run_pass, round_size = pass_runner(args, golden, traced_run)
    index = itertools.count()
    plain: list[PassResult] = []
    traced: list[tuple[PassResult, Tracer]] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(next(index)))
        if traced_run:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((run_pass(next(index)), tracer))
            finally:
                tracer.uninstall()
        if len(plain) >= round_size and time.perf_counter() - start >= args.seconds:
            break
    done = plain + [res for res, _ in traced]
    out = {
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "wall_s": fastest_wall(plain),
        "pass_walls": [r.wall_s for r in plain],
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced_run:
        # The fastest traced pass, as wall_s takes the fastest untraced one;
        # its layer times add up to its wall time.
        res, tracer = min(traced, key=lambda item: item[0].wall_s)
        out["layers"] = layer_metrics(tracer, res, fastest_wall(plain))
        if args.spans:
            tracer.write_spans(args.spans)
    return out


def setup(args) -> None:
    """Build the workload's inputs; for sweep-warm, also fill its cache."""
    if args.workload == "oracle-ladder":
        ladder_inputs(args.seed)
        return
    cfg = pathideal.SweepConfig(jobs=COLD_JOBS, cache_dir=args.cache)
    pathideal.sweep_cells(cfg)
    if args.workload == "sweep-warm":
        pathideal.run_sweep(cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if Path(pathideal.__file__).resolve().parent != SRC / "pathideal":
        print(f"error: imported pathideal from {pathideal.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        setup(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
