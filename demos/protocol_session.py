"""The broadcast guessing game, round by round.

Inputs x are drawn with probability proportional to |Q(x)|, every party
receives a private fair bit y_i, measures its qubit at the setting fixed
by its visible inputs, and broadcasts the single bit m_i = y_i * a_i. All
parties guess the product of the messages. The target is
f = y_1 y_2 y_3 sign(Q(x)), so the y's cancel and a round passes exactly
when the outcome product matches sign(Q(x)).

The script runs seeded sessions for the optimal ring strategy, the best
classical strategy, and a noisy state, then replays a session from a file
of hex records to show source-for-source determinism.
"""

from pathlib import Path
import tempfile

from bellccp import (
    CcpInstance,
    SeededPrng,
    beacon_load,
    canonical_strategy,
    classical_bound,
    exact_success,
    gyni_inequality,
    run_session,
    write_session_log,
)


def main():
    ineq = gyni_inequality()
    instance = CcpInstance(inequality=ineq)
    quantum = canonical_strategy("gyni-paper")
    _, classical = classical_bound(ineq)

    print("five rounds with the optimal shared-GHZ strategy:")
    print("  x            y            a            m          guess  f  pass")
    for r in run_session(instance, quantum, 5, SeededPrng(1)).rounds:
        print(f"  {r.x!s:12} {r.y!s:12} {r.a!s:12} {r.m!s:10}  "
              f"{r.guess:+d}    {r.f_value:+d}  {r.passed}")
    print()

    rounds = 10100
    for label, strategy in [("quantum (ideal)", quantum),
                            ("classical witness", classical),
                            ("quantum (experiment-like)",
                             canonical_strategy("experiment-like"))]:
        log = run_session(instance, strategy, rounds, SeededPrng(42), keep_rounds=False)
        exact = exact_success(instance, strategy)
        print(f"{label}: {log.successes}/{rounds} passed; "
              f"estimate {log.estimate:.4f} +- {log.std_error:.4f} "
              f"(exact {exact:.4f})")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        records = Path(tmp) / "records.txt"
        records.write_text(("9f8e7d6c" * 16 + "\n") * 40)
        log_a = run_session(instance, quantum, 20, beacon_load(records))
        log_b = run_session(instance, quantum, 20, beacon_load(records))
        print(f"record-file replay: identical sessions -> "
              f"{list(log_a.rounds) == list(log_b.rounds)}")

        out = Path(tmp) / "session.jsonl"
        write_session_log(log_a, out)
        lines = out.read_text().splitlines()
        print(f"session log: {len(lines)} lines (1 header + {len(lines) - 1} rounds)")
        print("  " + lines[1])


if __name__ == "__main__":
    main()
