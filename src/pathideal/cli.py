"""Command-line interface: inspect ideals, run the oracle, sweep and report.

Subcommands, and the flags each reads besides its cell (--n --t --power):
  gens     minimal generators of I_t(L_n)^s                    --json
  power    compositions of s labelling those generators        --json
  betti    brute-force Betti table of I_t(L_n)^s over GF(p)    --char --cache --json
  reg      closed-form regularity next to the oracle value     --char --cache --json
  check    linear-quotient / quasi-linearity certificates      --mode --json
  formula  closed-form evaluators (reg, betti, pd, gamma)      --i --json
  verify   full sweep; nonzero exit iff any cell failed        --char --cache --json
           --config --out --csv, and --<field> for every other SweepConfig
           field (--t-min, --n-max, --jobs, --power-cap, ...)
  table    re-emit a stored verification report as csv or json

verify --config FILE reads a JSON object whose keys are SweepConfig field
names, the same object every report stores under "config"; flags override it.
Every subcommand takes --log-level LEVEL (default WARNING): INFO shows the
rows a sweep skipped, DEBUG each cache entry it evicted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from ._version import __version__
from .cache import BettiCache
from .errors import PathIdealError
from .formulas import betti_closed_form, gamma, pd_closed_form, reg_power
from .linearity import QuotientCertificate, quasi_linear_check, quasi_linear_witness
from .monomials import POWER_PRODUCT_CAP, Monomial, format_monomial
from .oracle import DEFAULT_LATTICE_CAP
from .path_ideals import Composition
from .verify import (SweepConfig, VerificationReport, _CellState, emit_table,
                     run_sweep, sweep_cells)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathideal",
        description="Path-ideal invariants and their brute-force verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", type=str.upper, default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"), metavar="LEVEL",
                        help="show log lines from this level up: DEBUG, INFO, "
                        "WARNING (default) or ERROR")

    def oracle_flags(p, char_default):
        p.add_argument("--char", type=int, default=char_default, metavar="P",
                       help="field characteristic for oracle runs (default 2)")
        p.add_argument("--cache", dest="cache_dir", metavar="DIR", help="Betti cache "
                       "directory (default $PATHIDEAL_CACHE or .pathideal-cache)")

    def json_flag(p):
        p.add_argument("--json", nargs="?", const="-", metavar="PATH", help="emit JSON "
                       "instead of text; to stdout when no path is given")

    cmd = {}
    for name, func, summary in (
        ("gens", _cmd_gens, "minimal generators of I_t(L_n)^s"),
        ("power", _cmd_gens, "compositions labelling the power generators"),
        ("betti", _cmd_betti, "brute-force Betti table over GF(p)"),
        ("reg", _cmd_reg, "closed-form vs oracle regularity"),
        ("check", _cmd_check, "linear-quotient and quasi-linearity checks"),
        ("formula", _cmd_formula, "closed-form evaluators"),
    ):
        p = cmd[name] = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func)
        p.add_argument("--n", type=int, required=True, help="vertex count")
        p.add_argument("--t", type=int, required=True, help="path length")
        # power needs --power; formula says which of its formulas need one
        p.add_argument("--power", "-s", type=int, required=name == "power",
                       default=None if name == "formula" else 1, help="power s")
        json_flag(p)
    for name in ("betti", "reg"):
        oracle_flags(cmd[name], char_default=2)
    cmd["check"].add_argument("--mode", choices=("quotients", "quasi", "both"),
                              default="both", help="which check to run")
    cmd["formula"].add_argument("which", choices=_FORMULAS, help="formula to evaluate")
    cmd["formula"].add_argument("--i", type=int, help="homological index")

    p_verify = sub.add_parser("verify", help="run the verification sweep",
                              parents=[common])
    p_verify.set_defaults(func=_cmd_verify)
    # --char and --cache set chars and cache_dir; every other SweepConfig field
    # is an int and gets a flag of its own.
    for field in dataclasses.fields(SweepConfig):
        if field.name not in ("chars", "cache_dir"):
            p_verify.add_argument(
                "--" + field.name.replace("_", "-"), type=int, metavar="N",
                help=f"SweepConfig.{field.name} (default {field.default})")
    # unset by default, so that it does not override a config file's chars
    oracle_flags(p_verify, char_default=None)
    p_verify.add_argument("--config", metavar="FILE", help="JSON object of "
                          "SweepConfig fields; command-line flags override it")
    p_verify.add_argument("--out", metavar="PATH", help="write the JSON report here")
    p_verify.add_argument("--csv", metavar="PATH", help="write the CSV table here")
    json_flag(p_verify)

    p_table = sub.add_parser("table", help="re-emit a stored report", parents=[common])
    p_table.set_defaults(func=_cmd_table)
    p_table.add_argument("--report", required=True, metavar="PATH")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", metavar="PATH")
    return parser


def _emit_json(obj, dest: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        try:
            Path(dest).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise PathIdealError(f"cannot write {dest}: {exc}") from exc


def _cell(args) -> _CellState:
    """The sweep's cell under the default caps; refuses a power below 1 for every n."""
    if args.power < 1:
        raise ValueError(f"power must be >= 1, got {args.power}")
    cache = BettiCache(args.cache_dir) if hasattr(args, "cache_dir") else None
    return _CellState(args.n, args.t, args.power, cache,
                      POWER_PRODUCT_CAP, DEFAULT_LATTICE_CAP)


def _cmd_gens(args) -> int:
    """gens prints the generators; power labels each with its composition."""
    cell = _cell(args)
    counts, rows = ([matrix.tolist() for matrix in cell.pairs()]
                    if cell.spec.num_generators else ([], []))
    labelled = args.command == "power"
    if args.json:
        payload: dict = {"n": args.n, "t": args.t, "power": args.power}
        if labelled:
            payload["generators"] = [
                {"parts": c, "monomial": e} for c, e in zip(counts, rows)
            ]
        else:
            # canonical ideal order: ascending exponent vectors
            payload["ambient"] = args.n
            payload["generators"] = sorted(rows)
        _emit_json(payload, args.json)
        return 0
    if not rows:
        print("(0)")
    for c, e in zip(counts, rows):
        m = format_monomial(Monomial(tuple(e)))
        print(f"{Composition(tuple(c))} -> {m}" if labelled else m)
    return 0


def _cmd_betti(args) -> int:
    table = _cell(args).table(args.char)
    if args.json:
        _emit_json(table.to_dict(), args.json)
    elif table.is_empty():
        print("zero ideal; empty Betti table")
    else:
        print(table)
        print(f"reg R/I = {table.quotient_regularity()}")
        print(f"pd  R/I = {table.quotient_projective_dimension()}")
        print(f"linear resolution: {'yes' if table.is_linear() else 'no'}")
    return 0


def _cmd_reg(args) -> int:
    formula = reg_power(args.n, args.t, args.power)
    oracle = _cell(args).table(args.char).quotient_regularity()
    match = formula == oracle
    if args.json:
        payload = {"n": args.n, "t": args.t, "power": args.power, "char": args.char}
        payload.update(formula=formula, oracle=oracle, match=match)
        _emit_json(payload, args.json)
    else:
        print(f"formula reg R/I^{args.power} = {formula}")
        print(f"oracle  reg R/I^{args.power} = {oracle}")
        print(f"match: {'yes' if match else 'NO'}")
    return 0 if match else 1


def _check_quotients(cell: _CellState) -> tuple[dict, str]:
    """The linear-quotient check's JSON payload and its line of text."""
    payload: dict = {"mode": "quotients", "ok": False}
    try:
        if not cell.spec.num_generators:
            raise PathIdealError(f"zero ideal: n={cell.n} < t={cell.t}")
        outcome = cell.quotients()
    except PathIdealError as exc:
        payload["error"] = str(exc)
        return payload, f"linear quotients: ERROR ({exc})"
    if isinstance(outcome, QuotientCertificate):
        census = {str(k): v for k, v in outcome.census().items()}
        payload.update(ok=True, order=[list(c.parts) for c in outcome.order],
                       colon_variables=[sorted(v) for v in outcome.colon_variables],
                       census=census)
        return payload, f"linear quotients: yes (census {census})"
    offender = format_monomial(outcome.offender)
    payload.update(position=outcome.position, offender=offender,
                   composition=list(outcome.composition.parts))
    return payload, ("linear quotients: no "
                     f"(position {outcome.position}, offender {offender})")


def _check_quasi(cell: _CellState) -> tuple[dict, str]:
    """The quasi-linearity check's JSON payload and its lines of text."""
    result = quasi_linear_check(cell.power_ideal())
    payload: dict = {"mode": "quasi", "quasi_linear": result.is_quasi_linear}
    lines = [f"quasi-linear: {'yes' if result.is_quasi_linear else 'no'}"]
    if result.witness is not None:
        generator, colon_generator = map(format_monomial, result.witness)
        payload["witness"] = {"generator": generator,
                              "colon_generator": colon_generator}
        lines.append(f"  witness: colon into {generator} "
                     f"has non-variable generator {colon_generator}")
    if cell.t >= 2 and cell.n >= 2 * cell.t + 1:
        w = quasi_linear_witness(cell.spec, *cell.pairs())
        excluded = format_monomial(w.excluded)
        colon = [format_monomial(g) for g in w.colon_generators]
        payload["break"] = {"excluded": excluded, "colon": colon,
                            "variable": f"x{w.variable}", "facts_ok": w.valid}
        lines.append(f"  top-generator break: J : {excluded} = ({', '.join(colon)}); "
                     f"unique variable x{w.variable}; "
                     f"facts {'hold' if w.valid else 'VIOLATED'}")
    return payload, "\n".join(lines)


def _cmd_check(args) -> int:
    cell = _cell(args)
    sections = [check(cell) for mode, check in
                (("quotients", _check_quotients), ("quasi", _check_quasi))
                if args.mode in (mode, "both")]
    payloads = [payload for payload, _ in sections]
    if args.json:
        _emit_json(payloads if len(payloads) > 1 else payloads[0], args.json)
    else:
        for _, text in sections:
            print(text)
    return 0


# formula name -> its evaluator and the options it takes after --n and --t
_FORMULAS = {
    "reg": (reg_power, ("power",)),
    "betti": (betti_closed_form, ("power", "i")),
    "pd": (pd_closed_form, ("power",)),
    "gamma": (gamma, ()),
}


def _cmd_formula(args) -> int:
    evaluate, options = _FORMULAS[args.which]
    inputs = {"n": args.n, "t": args.t}
    inputs.update((name, getattr(args, name)) for name in options)
    if None in inputs.values():
        needs = " and ".join(f"--{name}" for name in options)
        raise PathIdealError(f"formula {args.which} needs {needs}")
    value = evaluate(*inputs.values())
    if args.json:
        _emit_json({"formula": args.which, "inputs": inputs, "value": value}, args.json)
    else:
        print(value)
    return 0


def _sweep_config(args) -> SweepConfig:
    """The config file's values overridden by the flags."""
    names = {field.name for field in dataclasses.fields(SweepConfig)}
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise PathIdealError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise PathIdealError(f"config {args.config} is not a JSON object")
        unknown = ", ".join(sorted(set(values) - names))
        if unknown:
            raise PathIdealError(f"config {args.config}: unknown key(s) {unknown}")
    values.update(
        (name, value) for name, value in vars(args).items()
        if name in names and value is not None
    )
    if args.char is not None:
        values["chars"] = (args.char,)
    try:
        if "chars" in values:
            values["chars"] = tuple(values["chars"])  # a list in JSON
        return SweepConfig(**values)
    except (TypeError, ValueError) as exc:
        raise PathIdealError(f"bad sweep configuration: {exc}") from exc


def _cmd_verify(args) -> int:
    cfg = _sweep_config(args)
    report = run_sweep(cfg)
    # --json PATH writes the same bytes as --out PATH
    for fmt, path in (("json", args.out), ("csv", args.csv), ("json", args.json)):
        if path and path != "-":
            emit_table(report, fmt, path)
    if args.json == "-":
        sys.stdout.write(emit_table(report, "json"))
    elif not args.json:
        summary = report.summary
        print(f"cells: {len(sweep_cells(cfg))}  rows: {summary['total']}  "
              f"pass: {summary['pass']}  fail: {summary['fail']}  "
              f"skipped: {summary['skipped']}  info: {summary['info']}")
        for row in report.failures():
            repro = f"  [{row.repro}]" if row.repro else ""
            print(f"FAIL n={row.n} t={row.t} s={row.s} {row.quantity}: "
                  f"formula {row.formula!r}, oracle {row.oracle!r}{repro}")
    return 1 if report.failures() else 0


def _cmd_table(args) -> int:
    try:
        text = Path(args.report).read_text(encoding="utf-8")
    except OSError as exc:
        raise PathIdealError(f"cannot read report {args.report}: {exc}") from exc
    try:
        report = VerificationReport.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise PathIdealError(
            f"malformed report {args.report}: {type(exc).__name__}: {exc}"
        ) from exc
    rendered = emit_table(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(rendered)
    return 0


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8", line_buffering=True)
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level,
                        format="pathideal: %(levelname)s: %(message)s")
    try:
        return args.func(args)
    except (PathIdealError, ValueError) as exc:
        print(f"pathideal: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream reader (e.g. `| head`) closed stdout; detach so the
        # interpreter's shutdown flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
