"""Tests for config round-trips, the CLI surface, and file formats."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellccp
from bellccp import (CcpInstance, OptimizerOptions, SeededPrng, ValidationError,
                     canonical_strategy, cli, depolarize, ghz_state, gyni_inequality,
                     input_tuples, make_scenario, random_strategy, run_session,
                     write_session_log)
from bellccp.cli import main
from bellccp.config import (
    inequality_from_config,
    load_inequality,
    load_strategy,
    scenario_from_config,
    scenario_to_config,
    strategy_fingerprint,
    strategy_to_config,
    strategy_from_config,
)
from bellccp.quantum import evaluate_strategy, with_visibility


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """A child interpreter that imports the same bellccp as this suite, so
    that it also runs from a checkout without installing."""
    paths = [str(Path(bellccp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_bound_output_exact(capsys):
    code, out, _ = run_cli(capsys, "bound", "--ineq", "gyni")
    assert code == 0
    assert json.loads(out) == {"classical_bound": 6, "success_bound": 0.875}
    code, out, _ = run_cli(capsys, "bound", "--ineq", "svetlichny")
    assert code == 0
    assert json.loads(out) == {"classical_bound": 4, "success_bound": 0.75}


def test_eval_output_schema(capsys):
    code, out, _ = run_cli(capsys, "eval", "--ineq", "svetlichny",
                           "--strategy", "svetlichny-paper")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["bell_value", "bell_value_normalized", "success_probability"]
    assert payload["bell_value"] == pytest.approx(4 * math.sqrt(2), abs=1e-9)
    assert payload["success_probability"] == pytest.approx(0.8535533905932737, abs=1e-9)


def test_eval_csv_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x_1,x_2,x_3,E"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[:3] == ["-1", "-1", "-1"]
    assert abs(float(first[3]) + math.cos(math.pi / 8)) < 1e-2
    # lexicographic order of rows
    rows = [tuple(int(v) for v in line.split(",")[:3]) for line in lines[1:]]
    assert rows == list(input_tuples(3))


def test_simulate_summary_and_log(tmp_path, capsys):
    log_path = tmp_path / "session.jsonl"
    code, out, _ = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--rounds", "200", "--seed", "9", "--out", str(log_path))
    assert code == 0
    summary = json.loads(out)
    assert sorted(summary) == ["estimate", "rounds", "std_error", "successes"]
    assert summary["rounds"] == 200

    lines = log_path.read_text().splitlines()
    assert len(lines) == 201
    header = json.loads(lines[0])["header"]
    assert header["options"]["seed"] == 9
    assert "strategy_sha256" in header
    record = json.loads(lines[1])
    assert sorted(record) == ["a", "f_value", "guess", "m", "pass", "settings", "x", "y"]
    assert all(v in (-1, 1) for v in record["x"] + record["y"] + record["a"] + record["m"])
    assert record["pass"] == (record["guess"] == record["f_value"])


def test_simulate_replays_identically(capsys):
    args = ("simulate", "--ineq", "gyni", "--strategy", "experiment-like",
            "--rounds", "500", "--seed", "4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# Round lines of `simulate --out` logs, everything after the header line, by
# sha256. A change to how rounds are sampled or written must leave them as
# they are; BITS stands for a fixed bit file, and a run's own --ineq replaces
# the gyni default.
_PINNED_ROUND_LINES = {
    "gyni-prng": (["--strategy", "gyni-paper", "--rounds", "3000", "--seed", "11"],
                  "8bd835e8bdca078b87d01e763ebdf5f2a286687ee12e701924ab9f5093e32568"),
    "experiment-prng": (["--strategy", "experiment-like", "--rounds", "3000", "--seed", "12"],
                        "22615a3df64c83b505168c275521772e6c56b731c1d2901b1e4e473de28b873a"),
    "gyni-bit-file": (["--strategy", "gyni-paper", "--rounds", "600", "--randomness", "file:BITS"],
                      "3bf649e4c7334c8d3baf8d9ab9203f0295cc8dfe472381db9be0f473a29f6d56"),
    "svetlichny-prng": (["--ineq", "svetlichny", "--strategy", "svetlichny-paper",
                         "--rounds", "3000", "--seed", "13"],
                        "43bf57209521459f9c59664065335201b5d173e80800e8f95ad43f7de6f5f466"),
}


@pytest.mark.parametrize("run", sorted(_PINNED_ROUND_LINES))
def test_session_log_round_lines_are_pinned(tmp_path, capsys, run):
    bits = tmp_path / "bits.bin"
    bits.write_bytes(b"".join(hashlib.sha256(k.to_bytes(4, "big")).digest()
                              for k in range(256)))
    argv, digest = _PINNED_ROUND_LINES[run]
    log = tmp_path / "session.jsonl"
    code, _, err = run_cli(capsys, "simulate", "--ineq", "gyni",
                           *(arg.replace("BITS", str(bits)) for arg in argv), "--out", str(log))
    assert (code, err) == (0, "")
    _header, rounds = log.read_bytes().split(b"\n", 1)
    assert hashlib.sha256(rounds).hexdigest() == digest


def test_simulate_validation_exit_codes(capsys):
    code, _, err = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--rounds", "0", "--seed", "1")
    assert code == 1 and "rounds" in err
    code, _, err = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--rounds", "5")
    assert code == 1 and "--seed" in err
    code, _, err = run_cli(capsys, "optimize", "--ineq", "gyni")
    assert code == 1 and "--seed" in err
    code, _, err = run_cli(capsys, "bound", "--ineq", "not-a-thing")
    assert code == 1
    code, _, err = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--noise-v", "1.5")
    assert code == 1


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "bound", "--ineq", "gyni", "--frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_simulate_with_bit_file_needs_no_seed(tmp_path, capsys):
    bits = tmp_path / "bits.bin"
    bits.write_bytes(bytes(range(256)) * 40)
    code, out, _ = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--rounds", "20", "--randomness", f"file:{bits}")
    assert code == 0
    assert json.loads(out)["rounds"] == 20


def test_simulate_on_exhausted_bit_file_reports_error(tmp_path, capsys):
    bits = tmp_path / "short.bin"
    bits.write_bytes(bytes(range(64)))
    code, out, err = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                             "--rounds", "100", "--randomness", f"file:{bits}")
    assert code == 1
    assert out == ""
    assert err == "error: randomness exhausted after 4 complete rounds\n"


def test_simulate_retains_records_only_for_out(tmp_path, capsys, monkeypatch):
    logs = []

    def recording_session(*args, **kwargs):
        logs.append(run_session(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(cli, "run_session", recording_session)
    args = ("simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
            "--rounds", "300", "--seed", "9")
    code, bare, _ = run_cli(capsys, *args)
    assert code == 0 and logs[-1].rounds == ()
    log_path = tmp_path / "session.jsonl"
    code, kept, _ = run_cli(capsys, *args, "--out", str(log_path))
    assert code == 0 and len(logs[-1].rounds) == 300
    assert kept == bare
    # The JSONL equals the one written from a session run straight from the library.
    reference = run_session(CcpInstance(inequality=gyni_inequality()),
                            canonical_strategy("gyni-paper"), 300, SeededPrng(9),
                            config=logs[-1].config)
    write_session_log(reference, tmp_path / "reference.jsonl")
    assert log_path.read_text() == (tmp_path / "reference.jsonl").read_text()


def test_simulate_with_beacon_records(tmp_path, capsys):
    records = tmp_path / "records.txt"
    records.write_text(("77" * 64 + "\n") * 30)
    args = ("simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
            "--rounds", "10", "--randomness", f"beacon:{records}")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["rounds"] == 10
    replay = run_cli(capsys, *args)[1]
    assert replay == out


def test_binary_beacon_file_ends_in_an_error_line(tmp_path, capsys):
    records = tmp_path / "records.bin"
    records.write_bytes(np.random.default_rng(0).bytes(300))
    code, out, err = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                             "--rounds", "10", "--randomness", f"beacon:{records}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(records) in err


def test_verify_reports_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ineq", "svetlichny", "--seed", "12",
                           "--strategies", "25")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["max_deviation", "ok", "seed", "strategies", "tolerance"]
    assert payload["ok"] is True
    assert payload["max_deviation"] <= 1e-9


def test_optimize_output_schema(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--ineq", "chsh", "--seed", "1",
                           "--restarts", "2")
    assert code == 0
    assert sorted(json.loads(out)) == ["best_value", "best_value_normalized",
                                       "restarts", "seed", "success_probability",
                                       "sweeps_used"]


def test_module_entry_point():
    result = run_python("-m", "bellccp", "bound", "--ineq", "chsh")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"classical_bound": 2, "success_bound": 0.75}


def test_report_contains_headline_numbers(capsys):
    code, out, _ = run_cli(capsys, "report")
    assert code == 0
    payload = json.loads(out)
    assert payload["gyni"]["classical_bound"] == 6
    assert payload["gyni"]["classical_success_bound"] == 0.875
    assert 7.3909 <= payload["gyni"]["quantum_value"] <= 7.3911
    assert payload["svetlichny"]["classical_bound"] == 4
    assert payload["svetlichny"]["quantum_value"] == pytest.approx(4 * math.sqrt(2), abs=1e-9)
    assert payload["experiment"]["success_probability"] == 0.9389375


def test_scenario_config_round_trip():
    scenario = make_scenario(3, [(1, 3), (2, 1), (3, 2)])
    assert scenario_from_config(scenario_to_config(scenario)) == scenario


def test_custom_inequality_file(tmp_path, capsys):
    config = {
        "scenario": {"n": 2, "visibility": [[1], [2]]},
        "coeffs": [{"x": [-1, -1], "q": 1}, {"x": [-1, 1], "q": 1},
                   {"x": [1, -1], "q": 1}, {"x": [1, 1], "q": -1}],
    }
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "bound", "--ineq", str(path))
    assert code == 0
    assert json.loads(out) == {"classical_bound": 2, "success_bound": 0.75}


def test_strategy_config_round_trip(tmp_path):
    strategy = canonical_strategy("gyni-paper")
    config = strategy_to_config(strategy)
    assert config["state"] == "ghz"
    reloaded = strategy_from_config(config, strategy.scenario)
    assert strategy_fingerprint(reloaded) == strategy_fingerprint(strategy)

    # explicit-amplitude form
    amps = [[1 / math.sqrt(2), 0.0]] + [[0.0, 0.0]] * 6 + [[1 / math.sqrt(2), 0.0]]
    config2 = dict(config, state={"amplitudes": amps})
    loaded = strategy_from_config(config2, strategy.scenario)
    value = evaluate_strategy(loaded, gyni_inequality())
    assert value == pytest.approx(
        evaluate_strategy(strategy, gyni_inequality()), abs=1e-6)


# sha256 fingerprints of the presets and of seeded random gyni strategies
# (default_rng(0) pure, default_rng(1) mixed). They hash the bytes that
# configs and session headers hold, so a change to how strategies are
# stored must leave them unchanged.
PINNED_FINGERPRINTS = {
    "gyni-paper": "6ad025b73aca07c4617e3ba90b1775ba0c9759eab149f29be867c2a1a06eea03",
    "svetlichny-paper": "3f831cace2ac74ed0a58b44ac01cadb387a4ec3e684e10065391e3f4cbd702bb",
    "experiment-like": "7f71142dd0be976c84c1b0e3512294694c2f7ead00208593e680453616ff84b9",
    "random-0": "7ce7549fe3554cbdd3df6d6ab99b9e6d64cec5b38d7b910e705a18416d182998",
    "random-1-mixed": "8e7ec5e16a0d65b821ba717a1be1917ddfe72e24e6d0c83bbc57502d9272e82c",
}


def test_strategy_fingerprints_are_pinned():
    scenario = gyni_inequality().scenario
    got = {name: strategy_fingerprint(canonical_strategy(name))
           for name in ("gyni-paper", "svetlichny-paper", "experiment-like")}
    got["random-0"] = strategy_fingerprint(
        random_strategy(scenario, np.random.default_rng(0)))
    got["random-1-mixed"] = strategy_fingerprint(
        random_strategy(scenario, np.random.default_rng(1), mixed=True))
    assert got == PINNED_FINGERPRINTS


def test_observable_entries_load_in_any_order():
    strategy = canonical_strategy("svetlichny-paper")
    config = strategy_to_config(strategy)
    entries = config["observables"]
    assert [(e["party"], tuple(e["setting"])) for e in entries] == [
        (i, t) for i in range(1, 4) for t in strategy.scenario.visible_tuples(i)]
    reversed_config = dict(config, observables=entries[::-1])
    reloaded = strategy_from_config(reversed_config, strategy.scenario)
    assert reloaded == strategy
    assert strategy_to_config(reloaded) == config


@pytest.mark.parametrize("edit", ["drop", "extra", "twice"])
def test_incomplete_observable_entries_rejected(edit):
    strategy = canonical_strategy("gyni-paper")
    config = strategy_to_config(strategy)
    entries = config["observables"]
    if edit == "drop":
        entries = entries[:-1]
    elif edit == "extra":
        entries = entries + [{"party": 4, "setting": [1, 1], "bloch": [0.0, 0.0, 1.0]}]
    else:
        entries = entries + [dict(entries[0], bloch=[0.0, 0.0, 1.0])]
    with pytest.raises(ValidationError, match="observable entries"):
        strategy_from_config(dict(config, observables=entries), strategy.scenario)


def test_strategy_visibility_v(tmp_path):
    strategy = canonical_strategy("gyni-paper")
    config = dict(strategy_to_config(strategy), visibility_v=0.5)
    loaded = strategy_from_config(config, strategy.scenario)
    ideal = evaluate_strategy(strategy, gyni_inequality())
    assert evaluate_strategy(loaded, gyni_inequality()) == pytest.approx(
        0.5 * ideal, abs=1e-9)


@pytest.mark.parametrize("form", ["dict", "file"])
def test_strategy_config_without_a_scenario_rejected(tmp_path, form):
    # scenario=None means the strategy's own scenario, which only a strategy
    # or a preset carries.
    source = {"state": "ghz", "observables": []}
    if form == "file":
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(source))
        source = str(path)
    with pytest.raises(ValidationError, match="needs a scenario"):
        load_strategy(source, None)
    preset = canonical_strategy("gyni-paper")
    assert load_strategy("gyni-paper", None) == preset
    assert load_strategy({"name": "gyni-paper"}, None) == preset


def test_dump_config_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--dump-config")
    assert code == 0
    doc = json.loads(out)
    ineq = load_inequality(doc["inequality"])
    assert ineq == gyni_inequality()
    strategy = load_strategy(doc["strategy"], ineq.scenario)
    assert strategy_fingerprint(strategy) == strategy_fingerprint(
        canonical_strategy("gyni-paper"))

    path = tmp_path / "dump.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "eval", "--ineq", str(path), "--strategy", str(path))
    assert code == 0
    direct = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", "gyni-paper")[1]
    assert json.loads(out2) == json.loads(direct)


def _non_ghz_file(tmp_path, **extra):
    """Strategy file with state 0.6|000> + 0.8|111> and the ring preset's observables."""
    config = strategy_to_config(canonical_strategy("gyni-paper"))
    config["state"] = {"amplitudes": [[0.6, 0.0]] + [[0.0, 0.0]] * 6 + [[0.8, 0.0]]}
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(dict(config, **extra)))
    return path


@pytest.mark.parametrize("file_extra, noise", [({"visibility_v": 0.7}, ()),
                                               ({}, ("--noise-v", "0.7")),
                                               (None, ("--noise-v", "0.7"))])
def test_mixed_strategies_are_dumped_faithfully(tmp_path, capsys, file_extra, noise):
    # file_extra None stands for the gyni-paper preset instead of a strategy file.
    source = "gyni-paper" if file_extra is None else str(_non_ghz_file(tmp_path, **file_extra))
    scenario = gyni_inequality().scenario
    used = load_strategy(source, scenario)
    if noise:
        used = with_visibility(used, 0.7)
    common = ("--ineq", "gyni", "--strategy", source, *noise)
    code, out, _ = run_cli(capsys, "eval", *common, "--dump-config")
    assert code == 0
    dumped = json.loads(out)["strategy"]
    assert "density" in dumped["state"] and "visibility_v" not in dumped
    assert strategy_fingerprint(load_strategy(dumped, scenario)) == strategy_fingerprint(used)

    log_path = tmp_path / "session.jsonl"
    code, _, _ = run_cli(capsys, "simulate", *common, "--rounds", "3", "--seed", "1",
                         "--out", str(log_path))
    assert code == 0
    header = json.loads(log_path.read_text().splitlines()[0])["header"]
    assert header["strategy"] == dumped
    assert strategy_fingerprint(load_strategy(header["strategy"], scenario)) == (
        strategy_fingerprint(used))


def test_dump_config_echoes_every_set_option(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "optimize", "--ineq", "gyni", "--max-sweeps", "7",
                           "--optimize-state", "--dump-config")
    assert code == 0
    options = json.loads(out)["options"]
    assert options["max_sweeps"] == 7 and options["optimize_state"] is True
    assert "seed" not in options and "tol" not in options

    bits = tmp_path / "bits.bin"
    bits.write_bytes(bytes(range(256)))
    code, out, _ = run_cli(capsys, "simulate", "--ineq", "gyni", "--strategy", "gyni-paper",
                           "--rounds", "5", "--randomness", f"file:{bits}", "--dump-config")
    assert code == 0
    assert json.loads(out)["options"]["randomness"] == f"file:{bits}"


@pytest.mark.parametrize("argv", [
    ("optimize", "--ineq", "gyni", "--seed", "1"),
    ("eval", "--ineq", "gyni", "--strategy", "gyni-paper"),
    ("simulate", "--ineq", "gyni", "--strategy", "gyni-paper", "--rounds", "2", "--seed", "1"),
])
def test_noise_v_out_of_range_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--noise-v", "1.5")
    assert code == 1
    assert out == ""
    assert "--noise-v must lie in [0, 1], got 1.5" in err


def test_parser_is_built_once(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    code, out, _ = run_cli(capsys, "bound", "--ineq", "gyni")
    assert code == 0
    assert json.loads(out) == {"classical_bound": 6, "success_bound": 0.875}


def test_cli_import_leaves_out_network_modules():
    probe = ("import sys, bellccp.cli; "
             "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_density_state_form_round_trips():
    strategy = canonical_strategy("experiment-like")
    config = strategy_to_config(strategy)
    assert sorted(config["state"]) == ["density"]
    reloaded = strategy_from_config(config, strategy.scenario)
    assert strategy_fingerprint(reloaded) == strategy_fingerprint(strategy)
    assert reloaded == strategy


@pytest.mark.parametrize("argv, calls", [(("bound", "--ineq", "gyni"), 1), (("report",), 2)])
def test_one_classical_search_per_inequality(monkeypatch, capsys, argv, calls):
    from bellccp import classical

    seen = []
    original = classical.classical_bound

    def counted(ineq):
        seen.append(ineq.name)
        return original(ineq)

    monkeypatch.setattr(classical, "classical_bound", counted)
    monkeypatch.setattr(cli, "classical_bound", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(seen) == calls


def test_noise_with_state_optimization_rejected(capsys):
    code, out, err = run_cli(capsys, "optimize", "--ineq", "gyni", "--seed", "3",
                             "--restarts", "4", "--noise-v", "0.5", "--optimize-state")
    assert code == 1
    assert out == ""
    assert "mixed" in err


@pytest.mark.parametrize("command", [
    ["simulate", "--ineq", "gyni", "--strategy", "gyni-paper", "--rounds", "5"],
    ["optimize", "--ineq", "chsh", "--restarts", "2"],
    ["verify", "--ineq", "chsh", "--strategies", "2"],
], ids=["simulate", "optimize", "verify"])
def test_negative_seed_ends_in_an_error_line(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--seed" in err


@pytest.mark.parametrize("command", [
    ["eval"],
    ["simulate", "--rounds", "5", "--seed", "1", "--dump-config"],
], ids=["eval", "dump-config"])
def test_preset_from_another_scenario_ends_in_an_error_line(capsys, command):
    # gyni-paper is a ring strategy; svetlichny's structure is another one.
    code, out, err = run_cli(capsys, command[0], "--ineq", "svetlichny",
                             "--strategy", "gyni-paper", *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "scenario does not match" in err


def test_inequality_from_config_rejects_bad_docs():
    from bellccp import ValidationError

    with pytest.raises(ValidationError):
        inequality_from_config({"coeffs": []})
    with pytest.raises(ValidationError):
        inequality_from_config({"scenario": {"n": 2, "visibility": [[1], [2]]},
                                "coeffs": [{"x": [1, 1]}]})


@pytest.mark.parametrize("first_x", [[1, 1], [1.0, 1]])
def test_repeated_coefficient_entry_rejected(first_x):
    config = {"scenario": {"n": 2, "visibility": [[1], [2]]},
              "coeffs": [{"x": first_x, "q": 1}, {"x": [-1, 1], "q": 2}, {"x": [1, 1], "q": 5}]}
    with pytest.raises(ValidationError, match=r"two coefficient entries for x = \(1, 1\)"):
        inequality_from_config(config)


def _strategy_file_with(tmp_path, **edit):
    config = strategy_to_config(canonical_strategy("gyni-paper"))
    config["observables"][0].update(edit)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("loader", ["inequality-x", "observable-setting", "observable-party"])
def test_keys_that_are_not_lists_end_in_an_error_line(tmp_path, capsys, loader):
    if loader == "inequality-x":
        path = tmp_path / "ineq.json"
        path.write_text(json.dumps({"scenario": {"n": 2, "visibility": [[1], [2]]},
                                    "coeffs": [{"x": 5, "q": 1}]}))
        argv, expected = ["bound", "--ineq", str(path)], "coefficient entry x must be a tuple"
    elif loader == "observable-setting":
        path = _strategy_file_with(tmp_path, setting=3)
        argv = ["eval", "--ineq", "gyni", "--strategy", str(path)]
        expected = "party 1 setting must be a tuple"
    else:
        path = _strategy_file_with(tmp_path, party=[1])
        argv = ["eval", "--ineq", "gyni", "--strategy", str(path)]
        expected = "unknown party [1]"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and expected in err


_GYNI_FULL = {"scenario": {"n": 3, "visibility": [[1, 3], [2, 1], [3, 2]]},
              "coeffs": [{"x": [1, 1, 1], "q": 1}]}


@pytest.mark.parametrize("doc, expected", [
    (dict(_GYNI_FULL, coeffs=5), '"coeffs" must be a list, got 5'),
    (dict(_GYNI_FULL, coeffs=[5]), "coefficient entry must be a JSON object, got 5"),
    (dict(_GYNI_FULL, scenario={"n": 3, "visibility": 3}), '"visibility" must be a list, got 3'),
    (dict(_GYNI_FULL, scenario={"n": "3", "visibility": [[1], [2], [3]]}),
     "party count must be an integer in [2, 6], got '3'"),
    (dict(_GYNI_FULL, scenario={"n": 3, "visibility": [[1.5], [2], [3]]}),
     "visibility entries must be integer party indices, got (1.5,)"),
    (dict(_GYNI_FULL, scenario={"n": 3, "visibility": [[1], ["2"], [3]]}),
     "visibility entries must be integer party indices, got ('2',)"),
    (dict(_GYNI_FULL, scenario={"n": 3, "visibility": [[1], 2, [3]]}),
     "scenario visibility entries must be lists of party indices, got 2"),
    (5, "must be a JSON object, got 5"),
    ({"inequality": 5}, '"inequality" must be an object, got 5'),
], ids=["coeffs-number", "coeffs-list-of-number", "visibility-number", "n-string",
        "visibility-fraction", "visibility-string", "visibility-group-number",
        "bare-number", "wrapped-number"])
def test_malformed_inequality_files_end_in_an_error_line(tmp_path, capsys, doc, expected):
    path = tmp_path / "ineq.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bound", "--ineq", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and expected in err


@pytest.mark.parametrize("content", [b"[" * 100000 + b"]" * 100000, b"\xff\xfe{"],
                         ids=["nested-too-deep", "not-utf8"])
def test_unreadable_json_ends_in_an_error_line(tmp_path, capsys, content):
    path = tmp_path / "ineq.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "bound", "--ineq", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "invalid JSON" in err


@pytest.mark.parametrize("edit, expected", [
    ({"observables": 5}, '"observables" must be a list, got 5'),
    ({"observables": [5]}, "observable entry must be a JSON object, got 5"),
    ({"state": {"amplitudes": 5}}, "amplitudes must be a list of [re, im] pairs, got 5"),
    ({"visibility_v": "0.5"}, '"visibility_v" must be a number'),
    (5, "must be a JSON object, got 5"),
], ids=["observables-number", "observables-list-of-number", "amplitudes-number",
        "visibility-string", "bare-number"])
def test_malformed_strategy_files_end_in_an_error_line(tmp_path, capsys, edit, expected):
    doc = edit if edit == 5 else dict(strategy_to_config(canonical_strategy("gyni-paper")), **edit)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and expected in err


@pytest.mark.parametrize("field, expected", [
    ("q", "coefficient Q(-1, -1, -1) must be a finite real"),
    ("x", "coefficient entry x entries must be +1 or -1"),
    ("visibility", "visibility entries must be integer party indices, got (True, 3)"),
    ("visibility_v", '"visibility_v" must be a number, got True'),
    ("bloch", "observable entry bloch must be a list of numbers, got [False, True, False]"),
    ("party", "observable entries name unknown party True"),
    ("setting", "party 1 setting entries must be +1 or -1"),
], ids=["q", "x", "visibility", "visibility_v", "bloch", "party", "setting"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, field, expected):
    # Each edit reads as a valid file when true counts as 1 and false as 0.
    ineq = {"scenario": scenario_to_config(gyni_inequality().scenario),
            "coeffs": [{"x": list(x), "q": q} for x, q in gyni_inequality().coeffs.items()]}
    strategy = strategy_to_config(canonical_strategy("gyni-paper"))
    if field == "q":
        ineq["coeffs"][0]["q"] = True
    elif field == "x":
        ineq["coeffs"] = [{"x": [True, -1, -1], "q": 1}]
    elif field == "visibility":
        ineq["scenario"]["visibility"][0] = [True, 3]
    elif field == "visibility_v":
        strategy["visibility_v"] = True
    elif field == "setting":
        assert strategy["observables"][2]["setting"] == [1, -1]
        strategy["observables"][2]["setting"] = [True, -1]
    else:
        strategy["observables"][0][field] = True if field == "party" else [False, True, False]
    ineq_path, strategy_path = tmp_path / "ineq.json", tmp_path / "strategy.json"
    ineq_path.write_text(json.dumps(ineq))
    strategy_path.write_text(json.dumps(strategy))
    code, out, err = run_cli(capsys, "eval", "--ineq", str(ineq_path),
                             "--strategy", str(strategy_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and expected in err


@pytest.mark.parametrize("call, expected", [
    (lambda: SeededPrng(True), "seed must be a non-negative integer, got True"),
    (lambda: SeededPrng(False), "seed must be a non-negative integer, got False"),
    (lambda: OptimizerOptions(seed=True), "seed must be a non-negative integer, got True"),
    (lambda: OptimizerOptions(seed=0, restarts=True), "restarts must be an integer >= 1"),
    (lambda: OptimizerOptions(seed=0, max_sweeps=True), "max_sweeps must be an integer >= 1"),
    (lambda: run_session(CcpInstance(inequality=gyni_inequality()),
                         canonical_strategy("gyni-paper"), True, SeededPrng(1)),
     "whole number of rounds >= 1, got True"),
    (lambda: depolarize(ghz_state(3), True), "visibility must lie in [0, 1], got True"),
    (lambda: depolarize(ghz_state(3), np.True_), "visibility must lie in [0, 1], got True"),
    (lambda: with_visibility(canonical_strategy("gyni-paper"), True),
     "visibility must lie in [0, 1], got True"),
], ids=["prng-true", "prng-false", "options-seed", "options-restarts", "options-max-sweeps",
        "session-rounds", "depolarize", "depolarize-numpy", "with-visibility"])
def test_library_booleans_are_not_numbers(call, expected):
    # Each call runs when True counts as 1 and False as 0.
    with pytest.raises(ValidationError) as err:
        call()
    assert expected in str(err.value)


def test_strategy_file_missing_a_setting_names_it(tmp_path, capsys):
    config = strategy_to_config(canonical_strategy("gyni-paper"))
    config["observables"] = [entry for entry in config["observables"]
                             if (entry["party"], entry["setting"]) != (2, [-1, 1])]
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", str(path))
    assert (code, out) == (1, "")
    assert err == "error: observable entries: party 2 table is missing [(-1, 1)]\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_bloch_entry_ends_in_an_error_line_without_a_warning(tmp_path, capsys):
    path = _strategy_file_with(tmp_path, bloch=[1e200, 0, 0])
    code, out, err = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", str(path))
    assert (code, out) == (1, "")
    assert err == "error: Bloch vector norm 1e+200 outside [0.99, 1.01]\n"


def test_threads_flag_rejected(capsys):
    code, out, err = run_cli(capsys, "bound", "--ineq", "chsh", "--threads", "4")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --threads 4" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--ineq", "chsh", "--format", "csv"),
    ("bound", "--ineq", "chsh", "--noise-v", "0.3"),
    ("optimize", "--ineq", "chsh", "--seed", "1", "--format", "csv"),
    ("simulate", "--ineq", "gyni", "--strategy", "gyni-paper", "--rounds", "2",
     "--seed", "1", "--format", "csv"),
    ("verify", "--ineq", "chsh", "--seed", "1", "--format", "csv"),
    ("verify", "--ineq", "chsh", "--seed", "1", "--noise-v", "0.1"),
    ("report", "--format", "json"),
    ("optimize", "--ineq", "chsh", "--seed", "1", "--tol", "1e-9"),
])
def test_unread_flags_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "bound.json"
    code, out, _ = run_cli(capsys, "bound", "--ineq", "gyni", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text()) == {"classical_bound": 6, "success_bound": 0.875}


def test_eval_noise_v_scales_value(capsys):
    _, ideal_out, _ = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", "gyni-paper")
    _, noisy_out, _ = run_cli(capsys, "eval", "--ineq", "gyni", "--strategy", "gyni-paper",
                              "--noise-v", "0.5")
    ideal = json.loads(ideal_out)["bell_value"]
    noisy = json.loads(noisy_out)["bell_value"]
    assert noisy == pytest.approx(0.5 * ideal, abs=1e-9)


def test_optimize_with_state_flag(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--ineq", "chsh", "--seed", "5",
                           "--restarts", "4", "--optimize-state")
    assert code == 0
    assert json.loads(out)["best_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)


def test_numeric_errors_map_to_exit_two(monkeypatch, capsys):
    from bellccp import cli as cli_module
    from bellccp.errors import NumericError

    def broken(args, ineq, strategy):
        raise NumericError("synthetic inconsistency")

    monkeypatch.setitem(cli_module._COMMANDS, "report", broken)
    code, _, err = run_cli(capsys, "report")
    assert code == 2
    assert "numeric" in err
