"""Benchmark of the pathideal verifier.

    python3 perfbench/run.py --workload sweep-cold|sweep-warm|oracle-ladder \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Set-up runs several times, each in a fresh interpreter, and setup_s is their
median.  The measurement then runs in one more fresh interpreter for S
seconds.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
lines before it show the same metrics, and the error rate, for people.

Every file the run writes lives under .perfbench-runs/ in the checkout; the
temporary ones are removed at the end and the span dump of a traced run,
spans-<workload>-seed<N>.jsonl, is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RUNS_DIR = ROOT / ".perfbench-runs"
WORKLOADS = ("sweep-cold", "sweep-warm", "oracle-ladder")
# Set-ups per run; sweep-warm's includes a whole cache-filling sweep.
SETUP_REPEATS = {"sweep-cold": 7, "sweep-warm": 3, "oracle-ladder": 7}
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_child(cmd: list[str], deadline: float) -> str:
    """Run cmd in its own session; return stdout, or raise on error or timeout."""
    env = dict(os.environ)
    env.pop("PATHIDEAL_CACHE", None)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def load_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def run(args) -> dict:
    end_to_end, per_layer = load_metrics()
    deadline = time.monotonic() + DEADLINE_S
    base = [sys.executable, str(WORKER)]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        # Untimed: compiles the package's bytecode once, which users do not
        # pay on every run.
        run_child(base + ["setup", "--workload", "sweep-cold", "--seed", "0",
                          "--cache", str(workdir / "unused")], deadline)
        repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
        setup_s = []
        for i in range(repeats):
            cache = workdir / f"cache-{i}"
            t0 = time.perf_counter()
            run_child(base + ["setup", *common, "--cache", str(cache)], deadline)
            setup_s.append(time.perf_counter() - t0)
        measure = base + [
            "measure", *common, "--cache", str(cache), "--workdir", str(workdir),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        spans = RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        if args.trace:
            measure += ["--spans", str(spans)]
        lines = run_child(measure, deadline).strip().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not lines:
        raise BenchError("measurement printed nothing")
    result = json.loads(lines[-1])
    if args.trace:
        values, wanted = result["layers"], per_layer
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        values = {
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup_s),
        }
        wanted = end_to_end
        walls = result["pass_walls"]
        print(f"passes: {len(walls)} (median {statistics.median(walls):.4f} s, "
              f"slowest {max(walls):.4f} s)  setups: {len(setup_s)}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']} {m['unit']}")
    print(f"{args.workload}  error_rate = {failed / attempted} ({failed}/{attempted})")
    if args.trace:
        wall = values["trace.wall_s"]
        shares = "  ".join(
            f"{layer}={values[f'{layer}.self_s'] / wall:.1%}"
            for layer in ("oracle", "monomials", "path_ideals", "linearity",
                          "cache", "verify", "other")
        )
        print(f"{args.workload}  self-time shares: {shares}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the pathideal verifier.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pathideal" / "__init__.py").is_file():
        print(f"error: no pathideal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
