"""Exact classical bounds under different communication structures.

Three parties play a full-correlator game. How well classical models do
depends on who is allowed to see whose input: the same coefficient table
can have very different bounds in a no-communication scenario, a ring
where each party also sees one neighbour's input, and a structure where
two parties exchange inputs.

This script enumerates deterministic strategies exactly (no sampling, no
relaxations) and prints the bound, a witness strategy attaining it, and
what happens to the bound as visibility grows.
"""

from bellccp import (
    BellInequality,
    classical_bound,
    classical_success_bound,
    gyni_inequality,
    make_scenario,
    svetlichny_inequality,
)


def show(ineq, label):
    bound, witness = classical_bound(ineq)
    print(f"{label}:")
    print(f"  classical bound      {bound}   (Gamma = {ineq.gamma})")
    print(f"  success bound        {classical_success_bound(ineq)}")
    value = ineq.coefficient_array() @ witness.output_array().prod(axis=1)
    print(f"  witness value check  {value}")
    for party, outputs in enumerate(witness.tables, start=1):
        table = ", ".join(f"{setting}->{output:+d}" for setting, output in
                          zip(witness.scenario.visible_tuples(party), outputs.tolist()))
        print(f"    party {party}: {table}")
    print()


def main():
    show(gyni_inequality(), "ring structure (each party also sees a neighbour input)")
    show(svetlichny_inequality(), "exchange structure (parties 1 and 2 swap inputs)")

    # The same ring coefficients without any communication.
    isolated = make_scenario(3, [(1,), (2,), (3,)])
    coeffs = dict(gyni_inequality().coeffs)
    show(BellInequality(scenario=isolated, coeffs=coeffs),
         "same coefficients, no communication")

    # Full visibility trivializes the game: the bound saturates Gamma.
    full = make_scenario(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
    show(BellInequality(scenario=full, coeffs=coeffs),
         "same coefficients, every party sees every input")

    print("growing one party's visibility never hurts:")
    base = make_scenario(3, [(1,), (2,), (3,)])
    for extra in ([(1,), (2,), (3,)], [(1, 3), (2,), (3,)],
                  [(1, 3), (2, 1), (3,)], [(1, 3), (2, 1), (3, 2)]):
        ineq = BellInequality(scenario=make_scenario(3, extra), coeffs=coeffs)
        print(f"  visibility {extra}: bound {classical_bound(ineq)[0]}")


if __name__ == "__main__":
    main()
