"""Quantum strategies beating the classical bounds on a GHZ state.

A shared three-qubit GHZ state with input-dependent single-qubit
measurements produces full correlators no classical model with the same
communication pattern can reach: about 7.391 against the ring bound of 6,
and exactly 4 sqrt(2) against the exchange-structure bound of 4.

The script prints the correlator tables behind those numbers and shows how
the violation degrades linearly as the state is mixed with white noise,
including the preset noise level of the experiment-like strategy.
"""

import numpy as np

from bellccp import (
    canonical_strategy,
    classical_bound,
    correlator_table,
    evaluate_strategy,
    gyni_inequality,
    input_tuples,
    success_probability,
    svetlichny_inequality,
    with_visibility,
)
from bellccp.quantum import EXPERIMENT_VISIBILITY


def show(name, ineq):
    strategy = canonical_strategy(name)
    table = correlator_table(strategy)
    value = evaluate_strategy(strategy, ineq)
    print(f"{name} on the {ineq.name} inequality")
    print("  x1 x2 x3    Q     E")
    for x, e in zip(input_tuples(3), table.tolist()):
        print(f"  {x[0]:+d} {x[1]:+d} {x[2]:+d}   {ineq.coeffs[x]:+d}  {e:+.6f}")
    bound = classical_bound(ineq)[0]
    print(f"  value {value:.6f}  vs classical bound {bound}")
    print(f"  success probability {success_probability(value, ineq.gamma):.6f}")
    print()


def main():
    show("gyni-paper", gyni_inequality())
    show("svetlichny-paper", svetlichny_inequality())

    print("white-noise robustness of the ring violation:")
    ineq = gyni_inequality()
    ideal = canonical_strategy("gyni-paper")
    bound = classical_bound(ineq)[0]
    for v in np.linspace(1.0, 0.7, 7):
        value = evaluate_strategy(with_visibility(ideal, float(v)), ineq)
        tag = "violates" if value > bound else "classical"
        print(f"  visibility {v:.2f}: value {value:.4f}  ({tag})")
    critical = bound / evaluate_strategy(ideal, ineq)
    print(f"  violation survives down to visibility {critical:.4f}")
    print()

    noisy = canonical_strategy("experiment-like")
    value = evaluate_strategy(noisy, ineq)
    print(f"experiment-like preset (visibility {EXPERIMENT_VISIBILITY}):")
    print(f"  value {value:.4f}, success {success_probability(value, ineq.gamma):.4f}")
    print(f"  an inequality value of 7.023 implies success "
          f"{success_probability(7.023, 8.0):.4f}")


if __name__ == "__main__":
    main()
