"""Write golden.json, the outputs every benchmark run is checked against.

    python3 perfbench/make_golden.py

Run it only when the program's answers are meant to change (a new sweep
quantity, say), after checking the new answers by other means: the golden
values are what makes a wrong answer count as a failed operation.  It
records the default sweep's rows and summary without timings, their digest,
and for each ladder cell, every odd prime included, the digest of
BettiTable.to_dict() and the regularity it gives.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import worker
from worker import pathideal


def main() -> None:
    runs = worker.BENCH_DIR.parent / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="golden-", dir=runs)
    try:
        report = pathideal.run_sweep(
            pathideal.SweepConfig(jobs=1, cache_dir=f"{scratch}/cache")
        )
    finally:
        shutil.rmtree(scratch)
    rows = [r.to_dict(include_ms=False) for r in report.rows]
    ladder = {}
    cells = [(n, t, s, 2) for (n, t, s) in worker.LADDER_GF2]
    cells += [(*worker.LADDER_ODD, p) for p in worker.ODD_PRIMES]
    for n, t, s, p in cells:
        ideal = pathideal.ideal_power(
            pathideal.path_ideal(pathideal.PathIdealSpec(n, t)), s
        )
        table = pathideal.betti_table(ideal, pathideal.FieldSpec(p))
        ladder[worker.cell_key(n, t, s, p)] = {
            "digest": worker.canonical_digest(table.to_dict()),
            "reg": table.quotient_regularity(),
            "entries": len(table.entries),
        }
    golden = {
        "sweep": {
            "digest": worker.report_digest(rows, report.summary),
            "summary": report.summary,
            "rows": rows,
        },
        "ladder": ladder,
    }
    with open(worker.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
