"""Rewrite ``tests/golden/manifest.json`` from the current code.

The golden corpus pins what ``bellccp`` prints and writes. Each entry runs
``bellccp.cli.main`` in-process, or a script of ``demos/`` through
``runpy``, with its working directory set to a fresh copy of ``inputs/``,
so every path it sees or echoes is relative. The manifest records, per
entry, the argv, the exit code, stdout and stderr with their sha256 and,
for a ``--out`` run, the written file's sha256, line count and header line.
It also records the numpy version and ``platform.machine()`` once, as
``tests/test_golden.py`` compares hashes exactly only where both match.

The input files are fixed data: random n = 4, 5, 6 ring inequalities, a
random pure strategy on the n = 5 ring, a float-coefficient table, a
non-GHZ strategy with ``visibility_v``, a malformed config, a bit file, a beacon-record file and a bit file too
short for its session.

Changing an entry changes a check: a change that regenerates the manifest
names each changed entry and the reason.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import shutil
import tempfile
from pathlib import Path

import numpy as np

from bellccp import cli

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
MANIFEST = HERE / "manifest.json"
DEMOS = HERE.parent.parent / "demos"

_SIM = ["simulate", "--ineq", "gyni", "--strategy", "gyni-paper"]

# name -> argv; a name starting "demo:" runs that script of demos/ instead.
ENTRIES = {
    "bound-gyni": ["bound", "--ineq", "gyni"],
    "bound-svetlichny": ["bound", "--ineq", "svetlichny"],
    "bound-chsh": ["bound", "--ineq", "chsh"],
    "bound-ring4": ["bound", "--ineq", "ring4.json"],
    "bound-ring5": ["bound", "--ineq", "ring5.json"],
    "bound-ring6": ["bound", "--ineq", "ring6.json"],
    "bound-float-table": ["bound", "--ineq", "float-table.json"],
    "eval-json": ["eval", "--ineq", "svetlichny", "--strategy", "svetlichny-paper"],
    "eval-csv": ["eval", "--ineq", "gyni", "--strategy", "gyni-paper", "--format", "csv"],
    "eval-noise": ["eval", "--ineq", "gyni", "--strategy", "gyni-paper", "--noise-v", "0.8"],
    "eval-noise-on-mixed": ["eval", "--ineq", "gyni", "--strategy", "experiment-like",
                            "--noise-v", "0.8"],
    "eval-noisy-strategy-file": ["eval", "--ineq", "gyni", "--strategy", "noisy-strategy.json"],
    "optimize": ["optimize", "--ineq", "chsh", "--seed", "1", "--restarts", "3"],
    "optimize-state": ["optimize", "--ineq", "ring4.json", "--seed", "2", "--restarts", "2",
                       "--optimize-state"],
    "optimize-noise": ["optimize", "--ineq", "gyni", "--seed", "3", "--restarts", "4",
                       "--noise-v", "0.8"],
    "optimize-max-sweeps": ["optimize", "--ineq", "ring4.json", "--seed", "5", "--restarts", "3",
                            "--max-sweeps", "10"],
    "verify-gyni": ["verify", "--ineq", "gyni", "--seed", "1", "--strategies", "8"],
    "verify-ring5": ["verify", "--ineq", "ring5.json", "--seed", "4", "--strategies", "4"],
    "verify-ring6": ["verify", "--ineq", "ring6.json", "--seed", "6", "--strategies", "4"],
    "report": ["report"],
    "dump-config-simulate": [*_SIM, "--rounds", "10", "--seed", "1", "--noise-v", "0.9",
                             "--dump-config"],
    "dump-config-strategy-file": ["eval", "--ineq", "gyni", "--strategy", "noisy-strategy.json",
                                  "--dump-config"],
    "dump-config-float-table": ["bound", "--ineq", "float-table.json", "--dump-config"],
    "simulate-prng": [*_SIM, "--rounds", "500", "--seed", "7", "--out", "session.jsonl"],
    "simulate-file": [*_SIM, "--rounds", "200", "--randomness", "file:bits.bin",
                      "--out", "session.jsonl"],
    "simulate-beacon": ["simulate", "--ineq", "svetlichny", "--strategy", "svetlichny-paper",
                        "--rounds", "200", "--randomness", "beacon:beacon.txt",
                        "--out", "session.jsonl"],
    "simulate-strategy-file": ["simulate", "--ineq", "gyni", "--strategy", "noisy-strategy.json",
                               "--rounds", "300", "--seed", "5", "--out", "session.jsonl"],
    "simulate-ring5-out": ["simulate", "--ineq", "ring5.json", "--strategy",
                           "ring5-strategy.json", "--rounds", "2000", "--seed", "13",
                           "--out", "session.jsonl"],
    "simulate-ring5-chunks": ["simulate", "--ineq", "ring5.json", "--strategy",
                              "ring5-strategy.json", "--rounds", "10000", "--seed", "17",
                              "--out", "session.jsonl"],
    "simulate-no-out": ["simulate", "--ineq", "gyni", "--strategy", "experiment-like",
                        "--rounds", "3000", "--seed", "11"],
    "simulate-exhausted": [*_SIM, "--rounds", "50", "--randomness", "file:short-bits.bin"],
    "simulate-zero-rounds": [*_SIM, "--rounds", "0", "--seed", "1"],
    "bad-config": ["bound", "--ineq", "bad-config.json"],
    **{f"demo:{path.name}": [] for path in sorted(DEMOS.glob("*.py"))},
}


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_entry(name: str, argv: list) -> dict:
    """Run one entry in a fresh copy of ``inputs/`` and record what it left."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(INPUTS, work)
        home = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if name.startswith("demo:"):
                    runpy.run_path(str(DEMOS / name[len("demo:"):]), run_name="__main__")
                    code = 0
                else:
                    code = cli.main(list(argv))
        finally:
            os.chdir(home)
        record = {"argv": list(argv), "exit": code,
                  "stdout": out.getvalue(), "stdout_sha256": sha256(out.getvalue()),
                  "stderr": err.getvalue(), "stderr_sha256": sha256(err.getvalue())}
        if "--out" in argv:
            data = (work / argv[argv.index("--out") + 1]).read_bytes()
            lines = data.decode().splitlines()
            record["out"] = {"sha256": sha256(data), "lines": len(lines), "header": lines[0]}
    return record


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def main() -> None:
    manifest = {**environment(),
                "entries": {name: run_entry(name, argv) for name, argv in ENTRIES.items()}}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(ENTRIES)} entries to {os.path.relpath(MANIFEST)}")


if __name__ == "__main__":
    main()
