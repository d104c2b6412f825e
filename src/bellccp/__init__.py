"""Bell scenarios with communication and their broadcast guessing games.

The package computes exact classical bounds of full-correlator inequalities
under arbitrary input-visibility structures, optimizes quantum strategies on
small qubit systems, and simulates the associated one-bit-broadcast protocol
whose success probability is 1/2 + B / (2 Gamma) for inequality value B.
"""

from .classical import (
    DeterministicStrategy,
    ccp_exhaustive_bound,
    classical_bound,
    classical_success_bound,
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
    run_session,
    write_session_log,
)
from .quantum import (
    EXPERIMENT_VISIBILITY,
    QuantumStrategy,
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
    depolarize,
    expectation,
    ghz_state,
    tensor_product,
    unit_bloch,
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
    input_tuples,
    make_scenario,
    named_inequality,
    svetlichny_inequality,
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
