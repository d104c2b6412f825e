"""Frozen value types survive pickling and deep copies.

Each copy must equal the original, hash alike, keep its arrays read-only
and still reject mutation of its fields and tables.
"""

import copy
import dataclasses
import pickle
from types import MappingProxyType

import numpy as np
import pytest

from bellccp import (
    BellInequality,
    CausalScenario,
    CcpInstance,
    DeterministicStrategy,
    MixedState,
    PureState,
    QuantumStrategy,
    canonical_strategy,
    classical_bound,
    gyni_inequality,
)
from bellccp.qubits import Observable2
from bellccp.scenarios import tuple_array


def _values():
    ineq = gyni_inequality()
    pure = canonical_strategy("gyni-paper")
    mixed = canonical_strategy("experiment-like")
    witness = classical_bound(ineq)[1]
    values = [ineq.scenario, ineq, CcpInstance(inequality=ineq), mixed, pure.state,
              mixed.state, pure.observables[(1, (1, 1))], witness]
    return {type(v).__name__: v for v in values}


# Every read-only array and table each type exposes.
_ARRAYS = {
    CausalScenario: lambda v: [v.setting_index(), tuple_array(v.n)],
    BellInequality: lambda v: [v.coefficient_array(), v.sign_array()],
    CcpInstance: lambda v: [v.probability_vector()],
    QuantumStrategy: lambda v: list(v.bloch_tables),
    PureState: lambda v: [v.amplitudes],
    MixedState: lambda v: [v.matrix],
    Observable2: lambda v: [v.bloch],
    DeterministicStrategy: lambda v: [*v.tables, v.output_array()],
}
_TABLES = {
    BellInequality: lambda v: [v.coeffs],
    QuantumStrategy: lambda v: [v.observables],
}

_COPIES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "deepcopy": copy.deepcopy,
}


def test_every_value_type_is_covered():
    assert set(type(v) for v in _values().values()) == set(_ARRAYS)


@pytest.mark.parametrize("how", sorted(_COPIES))
@pytest.mark.parametrize("name", sorted(_values()))
def test_copies_are_equal_read_only_values(name, how):
    value = _values()[name]
    copied = _COPIES[how](value)
    assert type(copied) is type(value)
    assert copied == value
    assert hash(copied) == hash(value)
    for array, original in zip(_ARRAYS[type(value)](copied), _ARRAYS[type(value)](value)):
        assert not array.flags.writeable
        np.testing.assert_array_equal(array, original)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 5
    for table in _TABLES.get(type(value), lambda v: [])(copied):
        assert isinstance(table, MappingProxyType)
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = 0
        with pytest.raises(TypeError):
            del table[key]
        with pytest.raises(AttributeError):
            table.extra = 1
        # The views cannot write either: their ``.mapping`` is read-only too.
        for view in (table.keys(), table.values(), table.items()):
            for written in (key, "new"):
                with pytest.raises(TypeError):
                    view.mapping[written] = 0
    first = dataclasses.fields(copied)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(copied, first, getattr(copied, first))


def test_copies_are_rebuilt_through_validation():
    # A copy goes back through the constructor, so derived state comes back
    # and equality still holds when a copy is built from a copy.
    ineq = gyni_inequality()
    twice = pickle.loads(pickle.dumps(copy.deepcopy(ineq)))
    assert twice.gamma == ineq.gamma == 8
    assert twice.name == "gyni"
    np.testing.assert_array_equal(twice.coefficient_array(), ineq.coefficient_array())
