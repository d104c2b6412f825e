"""The golden corpus: every entry of tests/golden/manifest.json reruns unchanged.

Each entry runs ``bellccp.cli.main`` in-process (a demo through ``runpy``)
in a fresh copy of tests/golden/inputs/, as tests/golden/regenerate.py ran
it. Where the numpy version and ``platform.machine()`` match the manifest,
stdout, stderr and any ``--out`` file must match its sha256 exactly. Elsewhere
BLAS may round the last bits differently, so stdout, stderr and a log's
header are compared token by token (text, ints and booleans exactly,
floats within 1e-12 relative, or 1e-12 absolute near zero) and a log by its
line count. The header's strategy_sha256 hashes floats, so that mode leaves
it out. The mode that ran is in the pytest report header and in every
failure message.
"""

import argparse
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from bellccp import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate = _load_regenerate()
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
_RECORDED = {key: MANIFEST[key] for key in ("numpy", "machine")}
EXACT = regenerate.environment() == _RECORDED
MODE = ("exact-hash mode" if EXACT else
        f"parsed mode (manifest from {_RECORDED}, running on {regenerate.environment()})")

# A number token; re.split with this group puts the numbers at odd positions.
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _same_tokens(got: str, want: str) -> bool:
    got, want = _NUMBER.split(got), _NUMBER.split(want)
    if len(got) != len(want):
        return False
    for k, (a, b) in enumerate(zip(got, want)):
        if a == b:
            continue
        if k % 2 == 0 or not any(c in a + b for c in ".eE"):
            return False
        if not math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12):
            return False
    return True


def test_manifest_holds_every_entry_and_argv():
    assert {name: entry["argv"] for name, entry in MANIFEST["entries"].items()} \
        == regenerate.ENTRIES


@pytest.mark.parametrize("name", list(MANIFEST["entries"]))
def test_golden_entry(name):
    want = MANIFEST["entries"][name]
    got = regenerate.run_entry(name, want["argv"])
    assert got["exit"] == want["exit"], f"{MODE}: {name} exit code"
    assert ("out" in got) == ("out" in want)
    if EXACT:
        for key in ("stdout", "stderr"):
            assert got[key + "_sha256"] == want[key + "_sha256"], \
                f"{MODE}: {name} {key} differs:\n{got[key]}"
        if "out" in want:
            assert got["out"] == want["out"], f"{MODE}: {name} --out file differs"
        return
    for key in ("stdout", "stderr"):
        assert _same_tokens(got[key], want[key]), f"{MODE}: {name} {key} differs:\n{got[key]}"
    if "out" in want:
        assert got["out"]["lines"] == want["out"]["lines"], f"{MODE}: {name} log line count"
        assert _same_tokens(*map(_header_without_hash, (got, want))), \
            f"{MODE}: {name} log header differs"


def _header_without_hash(record: dict) -> str:
    header = json.loads(record["out"]["header"])["header"]
    header.pop("strategy_sha256")
    return json.dumps(header)


# CLI flags that no golden entry runs, each with the reason it cannot.
_UNPINNED_FLAGS = {
    "--beacon-cache": "read only when beacon records are fetched by URL; the suite has no network",
}


def test_every_cli_flag_is_run_by_a_golden_entry():
    sub = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for parser in sub.choices.values() for action in parser._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    assert set(_UNPINNED_FLAGS) <= flags
    run = {token for argv in regenerate.ENTRIES.values() for token in argv}
    assert sorted(flags - run - set(_UNPINNED_FLAGS)) == []


def test_token_comparison_reads_numbers_in_text():
    assert _same_tokens('{"v": 0.1, "n": 3}', '{"v": 0.10000000000000002, "n": 3}')
    assert _same_tokens("deviation 2.2e-16", "deviation 4.4e-16")
    assert not _same_tokens('{"n": 3}', '{"n": 4}')
    assert not _same_tokens('{"v": 0.1}', '{"v": 0.1001}')
    assert not _same_tokens('"ok": true', '"ok": false')
    assert not _same_tokens("1,2", "1,2,3")
