"""Replay of recorded CLI runs: every byte of stdout and stderr, and the exit code.

tests/data/cli_transcript.json holds, per command line, what the installed
CLI printed.  Regenerate it from a checkout's src/ with

    PYTHONPATH=src python tests/test_cli_transcript.py

which runs each command in a fresh interpreter over an empty cache.  Any
change to the file is a change to the CLI's output and must be justified.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pathideal.cache import CACHE_ENV_VAR
from pathideal.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

# (n, t, s): n < t, n = t, t < n <= 2t, n = 2t, n = 2t + 1, n > 2t + 1, t = 1,
# a power below 1, over the power cap, and a degree over EXPONENT_CAP
CELLS = (
    (2, 3, 1), (3, 3, 1), (3, 2, 1), (4, 2, 2), (6, 3, 2), (5, 2, 2), (7, 2, 2),
    (6, 2, 3), (8, 3, 2), (9, 4, 2), (4, 1, 2), (3, 1, 3), (5, 2, 0),
    (40, 2, 5), (2, 2, 40000),
)
# cells whose oracle commands also run over GF(3)
CHAR3_CELLS = ((4, 2, 2), (5, 2, 2), (8, 3, 2))
COMMANDS = (("gens",), ("power",), ("betti",), ("reg",), ("check", "--mode", "quotients"),
            ("check", "--mode", "quasi"), ("check", "--mode", "both"))


def command_lines() -> list[list[str]]:
    lines = []
    for n, t, s in CELLS:
        cell = ["--n", str(n), "--t", str(t), "--power", str(s)]
        for command in COMMANDS:
            lines += [[*command, *cell], [*command, *cell, "--json"]]
    for n, t, s in CHAR3_CELLS:
        cell = ["--n", str(n), "--t", str(t), "--power", str(s), "--char", "3"]
        for command in ("betti", "reg"):
            lines += [[command, *cell], [command, *cell, "--json"]]
    return lines


def record() -> list[dict]:
    """Run every command line in a fresh interpreter on this checkout's src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(src), **{CACHE_ENV_VAR: cache})
        for argv in command_lines():
            done = subprocess.run([sys.executable, "-m", "pathideal.cli", *argv],
                                  env=env, capture_output=True, text=True)
            runs.append({"argv": argv, "code": done.returncode,
                         "stdout": done.stdout, "stderr": done.stderr})
    return runs


def test_transcript_covers_every_command_line():
    assert [run["argv"] for run in json.loads(TRANSCRIPT.read_text())] == command_lines()


def test_cli_output_matches_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    differ = []
    for run in json.loads(TRANSCRIPT.read_text()):
        code = main(run["argv"])
        out, err = capsys.readouterr()
        if (code, out, err) != (run["code"], run["stdout"], run["stderr"]):
            differ.append(" ".join(run["argv"]))
    assert differ == []


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
