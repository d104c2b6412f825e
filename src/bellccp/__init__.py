"""Bell scenarios with communication and their broadcast guessing games.

The package computes exact classical bounds of full-correlator inequalities
under arbitrary input-visibility structures, optimizes quantum strategies on
small qubit systems, and simulates the associated one-bit-broadcast protocol
whose success probability is 1/2 + B / (2 Gamma) for inequality value B.
"""

from .classical import (
    DeterministicStrategy,
    MessageStrategy,
    ResponseFunction,
    broadcast_messages,
    ccp_exhaustive_bound,
    classical_bound,
    classical_success_bound,
    constant_strategy,
    enumerate_strategies,
    message_protocol_success,
    strategy_bell_value,
)
from .errors import (
    BlochVectorError,
    EnumerationGuardError,
    NumericError,
    RandomnessExhaustedError,
    ValidationError,
)
from .protocol import (
    RoundRecord,
    SessionLog,
    exact_success,
    run_round,
    run_session,
    sample_inputs,
    write_session_log,
)
from .quantum import (
    EXPERIMENT_VISIBILITY,
    QuantumStrategy,
    bell_value,
    canonical_strategy,
    correlator_table,
    evaluate_strategy,
    outcome_distribution,
    random_strategy,
    success_probability,
    with_visibility,
)
from .qubits import (
    MixedState,
    Observable2,
    PureState,
    bloch_to_observable,
    depolarize,
    expectation,
    ghz_state,
    tensor_product,
)
from .randomness import (
    BeaconRecordsSource,
    BitFileSource,
    RandomnessSource,
    SeededPrng,
    beacon_load,
    parse_beacon_records,
)
from .scenarios import (
    BellInequality,
    CausalScenario,
    CcpInstance,
    chsh_inequality,
    gyni_inequality,
    input_distribution,
    input_tuples,
    make_scenario,
    named_inequality,
    svetlichny_inequality,
    target_function,
)
from .seesaw import (
    OptimizationResult,
    OptimizerOptions,
    bell_operator,
    optimal_state,
    optimize,
    seesaw_measurements,
)

__version__ = "0.1.0"
