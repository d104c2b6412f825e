"""JSON schemas for scenarios, inequalities, and strategies.

Configs round-trip exactly: integer coefficients stay integers, floats are
emitted with full repr precision, and loading a dumped config reproduces
the original objects. A strategy's Bloch tables are written as one
"observables" entry per party and setting, in canonical order; loading
accepts the entries in any order but needs every one, once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .quantum import (
    CANONICAL_STRATEGY_NAMES,
    QuantumStrategy,
    canonical_strategy,
)
from .qubits import MixedState, PureState, depolarize, ghz_state, unit_bloch
from .scenarios import (
    NAMED_INEQUALITIES,
    BellInequality,
    CausalScenario,
    canonical_values,
    make_scenario,
    named_inequality,
)


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def scenario_to_config(scenario: CausalScenario) -> dict:
    return {"n": scenario.n, "visibility": [list(group) for group in scenario.visibility]}


def scenario_from_config(config: dict) -> CausalScenario:
    if not isinstance(config, dict) or "n" not in config or "visibility" not in config:
        raise ValidationError('scenario config needs keys "n" and "visibility"')
    return make_scenario(config["n"], config["visibility"])


def inequality_to_config(ineq: BellInequality) -> dict:
    if ineq.name in NAMED_INEQUALITIES:
        return {"name": ineq.name}
    coeffs = [{"x": list(x), "q": q} for x, q in ineq.coeffs.items() if q != 0]
    return {"scenario": scenario_to_config(ineq.scenario), "coeffs": coeffs}


def inequality_from_config(config: dict) -> BellInequality:
    if "name" in config:
        return named_inequality(config["name"])
    if "scenario" not in config or "coeffs" not in config:
        raise ValidationError(
            'inequality config needs "name", or "scenario" plus "coeffs"')
    scenario = scenario_from_config(config["scenario"])
    coeffs = {}
    for entry in config["coeffs"]:
        if "x" not in entry or "q" not in entry:
            raise ValidationError('each coefficient entry needs keys "x" and "q"')
        coeffs[tuple(entry["x"])] = entry["q"]
    return BellInequality(scenario=scenario, coeffs=coeffs)


def load_inequality(source) -> BellInequality:
    """Resolve a named inequality, a config dict, or a JSON file path."""
    if isinstance(source, BellInequality):
        return source
    if isinstance(source, dict):
        return inequality_from_config(source)
    name = str(source)
    if name in NAMED_INEQUALITIES:
        return named_inequality(name)
    path = Path(name)
    if path.exists():
        config = read_json(path)
        if "inequality" in config:
            config = config["inequality"]
        return inequality_from_config(config)
    raise ValidationError(
        f"{name!r} is neither a known inequality name {sorted(NAMED_INEQUALITIES)} "
        "nor an existing config file")


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def strategy_to_config(strategy: QuantumStrategy) -> dict:
    """Dump a strategy; the state as "ghz", its amplitudes or its density matrix."""
    state = strategy.state
    if isinstance(state, MixedState):
        config: dict = {"state": {"density": [_complex_pairs(row) for row in state.matrix]}}
    elif np.array_equal(state.amplitudes, ghz_state(state.n).amplitudes):
        config = {"state": "ghz"}
    else:
        config = {"state": {"amplitudes": _complex_pairs(state.amplitudes)}}
    config["observables"] = _observable_entries(strategy)
    return config


def _observable_entries(strategy: QuantumStrategy) -> list[dict]:
    """One {"party", "setting", "bloch"} entry per table row, in canonical order."""
    scenario = strategy.scenario
    return [{"party": i, "setting": list(setting), "bloch": r}
            for i, table in enumerate(strategy.bloch_tables, start=1)
            for setting, r in zip(scenario.visible_tuples(i), table.tolist())]


def strategy_from_config(config: dict, scenario: CausalScenario) -> QuantumStrategy:
    if "name" in config:
        return canonical_strategy(config["name"])
    if "state" not in config or "observables" not in config:
        raise ValidationError('strategy config needs "state" and "observables" (or "name")')
    spec = config["state"]
    if spec == "ghz":
        state = ghz_state(scenario.n)
    elif isinstance(spec, dict) and "amplitudes" in spec:
        state = PureState(np.array([complex(re, im) for re, im in spec["amplitudes"]]))
    elif isinstance(spec, dict) and "density" in spec:
        state = MixedState(np.array([[complex(re, im) for re, im in row]
                                     for row in spec["density"]]))
    else:
        raise ValidationError('strategy state must be "ghz", {"amplitudes": [[re, im], ...]} '
                              'or {"density": [[[re, im], ...], ...]}')
    blochs = {i: {} for i in range(1, scenario.n + 1)}
    for entry in config["observables"]:
        for key in ("party", "setting", "bloch"):
            if key not in entry:
                raise ValidationError(f'observable entry missing key "{key}"')
        party, setting = entry["party"], tuple(entry["setting"])
        if party not in blochs:
            raise ValidationError(f"observable entries name unknown party {party!r}")
        if setting in blochs[party]:
            raise ValidationError(f"two observable entries for party {party}, setting {setting}")
        blochs[party][setting] = unit_bloch(entry["bloch"])
    tables = [np.array(canonical_values(table, scenario.arity(i), f"observable entries: party {i}"))
              for i, table in blochs.items()]
    v = config.get("visibility_v")
    if v is not None:
        if not 0.0 <= float(v) <= 1.0:
            raise ValidationError(f"visibility_v must lie in [0, 1], got {v}")
        state = depolarize(state, float(v))
    return QuantumStrategy(scenario=scenario, state=state, bloch_tables=tables)


def load_strategy(source, scenario: CausalScenario) -> QuantumStrategy:
    """Resolve a preset name, a config dict, or a JSON file path."""
    if isinstance(source, QuantumStrategy):
        return source
    if isinstance(source, dict):
        return strategy_from_config(source, scenario)
    name = str(source)
    if name in CANONICAL_STRATEGY_NAMES:
        return canonical_strategy(name)
    path = Path(name)
    if path.exists():
        config = read_json(path)
        if "strategy" in config:
            config = config["strategy"]
        return strategy_from_config(config, scenario)
    raise ValidationError(
        f"{name!r} is neither a preset strategy {CANONICAL_STRATEGY_NAMES} "
        "nor an existing config file")


def strategy_fingerprint(strategy: QuantumStrategy) -> str:
    """Stable sha256 over the strategy's full numeric content."""
    state = strategy.state
    if isinstance(state, PureState):
        state_doc = {"type": "pure", "data": _complex_pairs(state.amplitudes)}
    else:
        state_doc = {"type": "mixed",
                     "data": [_complex_pairs(row) for row in state.matrix]}
    doc = {
        "scenario": scenario_to_config(strategy.scenario),
        "state": state_doc,
        "observables": _observable_entries(strategy),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()
