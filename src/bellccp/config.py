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
    input_tuples,
    make_scenario,
    named_inequality,
    tuple_index,
)


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", (int, float): "a number"}


def _field(doc, key: str, kind, what: str):
    """``doc[key]`` once ``doc`` is a JSON object that holds ``key`` with a
    value of type ``kind`` (``object`` for any; a JSON boolean is no
    number); ``ValidationError`` otherwise, naming ``what`` the document is."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r}")
    if key not in doc:
        raise ValidationError(f'{what} needs key "{key}"')
    value = doc[key]
    if not isinstance(value, kind) or (kind is not object and isinstance(value, bool)):
        raise ValidationError(f'{what} "{key}" must be {_KIND_NAMES[kind]}, got {value!r}')
    return value


def read_json(path, wrapper: str) -> dict:
    """The JSON document in a file, or the object under its ``wrapper`` key.
    The loaders check the document's shape."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(doc, dict) and wrapper in doc:
        return _field(doc, wrapper, dict, str(path))
    return doc


def scenario_to_config(scenario: CausalScenario) -> dict:
    return {"n": scenario.n, "visibility": [list(group) for group in scenario.visibility]}


def scenario_from_config(config: dict) -> CausalScenario:
    n = _field(config, "n", object, "scenario config")
    visibility = _field(config, "visibility", list, "scenario config")
    for group in visibility:
        if not isinstance(group, list):
            raise ValidationError(f"scenario visibility entries must be lists of party "
                                  f"indices, got {group!r}")
    return make_scenario(n, visibility)


def inequality_to_config(ineq: BellInequality) -> dict:
    if ineq.name in NAMED_INEQUALITIES:
        return {"name": ineq.name}
    coeffs = [{"x": list(x), "q": q} for x, q in ineq.coeffs.items() if q != 0]
    return {"scenario": scenario_to_config(ineq.scenario), "coeffs": coeffs}


def inequality_from_config(config: dict) -> BellInequality:
    what = 'inequality config (a "name", or a "scenario" and "coeffs")'
    if isinstance(config, dict) and "name" in config:
        return named_inequality(_field(config, "name", str, what))
    scenario = scenario_from_config(_field(config, "scenario", object, what))
    coeffs = {}
    for entry in _field(config, "coeffs", list, what):
        x = input_tuples(scenario.n)[tuple_index(_field(entry, "x", object, "coefficient entry"),
                                                 scenario.n, "coefficient entry x")]
        if x in coeffs:
            raise ValidationError(f"two coefficient entries for x = {x}")
        coeffs[x] = _field(entry, "q", object, "coefficient entry")
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
        return inequality_from_config(read_json(path, "inequality"))
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


def _floats(values, what: str) -> list[float]:
    """A JSON list of numbers, not booleans, as floats."""
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValidationError(f"{what} must be a list of numbers, got {values!r}")
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValidationError(f"{what} has an entry too large for a float") from None


def _complex_array(pairs, what: str) -> np.ndarray:
    """A JSON list of [re, im] number pairs as a complex array."""
    if not isinstance(pairs, list):
        raise ValidationError(f"{what} must be a list of [re, im] pairs, got {pairs!r}")
    values = [_floats(pair, f"{what} entry") for pair in pairs]
    if any(len(pair) != 2 for pair in values):
        raise ValidationError(f"{what} entries must be [re, im] pairs")
    return np.array([complex(re, im) for re, im in values], dtype=complex)


def _state_from_config(spec, n: int) -> PureState | MixedState:
    if spec == "ghz":
        return ghz_state(n)
    if isinstance(spec, dict) and "amplitudes" in spec:
        return PureState(_complex_array(spec["amplitudes"], "strategy state amplitudes"))
    if isinstance(spec, dict) and "density" in spec:
        rows = _field(spec, "density", list, "strategy state")
        matrix = [_complex_array(row, "strategy state density row") for row in rows]
        if any(len(row) != len(rows) for row in matrix):
            raise ValidationError("strategy state density must be a square list of rows")
        return MixedState(np.array(matrix, dtype=complex).reshape(len(rows), len(rows)))
    raise ValidationError('strategy state must be "ghz", {"amplitudes": [[re, im], ...]} '
                          'or {"density": [[[re, im], ...], ...]}')


def strategy_from_config(config: dict, scenario: CausalScenario) -> QuantumStrategy:
    what = 'strategy config (a "name", or a "state" and "observables")'
    if isinstance(config, dict) and "name" in config:
        return canonical_strategy(_field(config, "name", str, what))
    if not isinstance(scenario, CausalScenario):
        raise ValidationError(f"a strategy config with a state needs a scenario, got {scenario!r}")
    state = _state_from_config(_field(config, "state", object, what), scenario.n)
    # Row s of party i's table is its s-th setting; None marks a row not yet given.
    rows = [[None] * len(scenario.visible_tuples(i)) for i in range(1, scenario.n + 1)]
    for entry in _field(config, "observables", list, what):
        party = _field(entry, "party", object, "observable entry")
        # A range test, unlike a dict lookup, cannot fail on an unhashable party.
        if isinstance(party, bool) or party not in range(1, scenario.n + 1):
            raise ValidationError(f"observable entries name unknown party {party!r}")
        party = int(party)
        k = tuple_index(_field(entry, "setting", object, "observable entry"),
                        scenario.arity(party), f"observable entries: party {party} setting")
        if rows[party - 1][k] is not None:
            raise ValidationError(f"two observable entries for party {party}, "
                                  f"setting {scenario.visible_tuples(party)[k]}")
        rows[party - 1][k] = unit_bloch(
            _floats(_field(entry, "bloch", object, "observable entry"), "observable entry bloch"))
    for i, table in enumerate(rows, start=1):
        missing = [t for t, r in zip(scenario.visible_tuples(i), table) if r is None]
        if missing:
            raise ValidationError(f"observable entries: party {i} table is missing {missing}")
    tables = [np.array(table) for table in rows]
    if config.get("visibility_v") is not None:
        v = _field(config, "visibility_v", (int, float), what)
        if not 0 <= v <= 1:
            raise ValidationError(f"visibility_v must lie in [0, 1], got {v}")
        state = depolarize(state, float(v))
    return QuantumStrategy(scenario=scenario, state=state, bloch_tables=tables)


def load_strategy(source, scenario: CausalScenario | None) -> QuantumStrategy:
    """Resolve a strategy, a preset name, a config dict, or a JSON file path
    to a strategy in ``scenario``; one in another scenario raises. With
    ``scenario=None`` a strategy or preset comes back in its own scenario."""
    if isinstance(source, QuantumStrategy):
        strategy = source
    elif isinstance(source, dict):
        strategy = strategy_from_config(source, scenario)
    elif (name := str(source)) in CANONICAL_STRATEGY_NAMES:
        strategy = canonical_strategy(name)
    elif Path(name).exists():
        strategy = strategy_from_config(read_json(name, "strategy"), scenario)
    else:
        raise ValidationError(
            f"{name!r} is neither a preset strategy {CANONICAL_STRATEGY_NAMES} "
            "nor an existing config file")
    if scenario is not None and strategy.scenario != scenario:
        raise ValidationError("strategy scenario does not match the inequality")
    return strategy


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
