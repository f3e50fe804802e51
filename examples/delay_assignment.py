"""Theorem 7 in action: assigning Theta-Model delays to an ABC execution.

Takes the Figure-3 execution graph (worst relevant ratio 2), picks
Xi = 5/2, and constructs a *normalized assignment*: rational message
delays strictly inside (1, Xi) whose induced event times preserve the
causal order exactly.  The assigned delays satisfy the Theta-Model's
condition (3) for every Theta > Xi -- the engine behind the paper's
model-indistinguishability result (Theorem 9): Theta-algorithms cannot
tell the ABC execution apart from a Theta-Model one.

Also builds the explicit Farkas system of Figure 6 and shows that the
assignment's message delays solve it strictly.

Run:  python examples/delay_assignment.py
"""

from fractions import Fraction

from repro.core import (
    build_farkas_system,
    check_abc,
    normalized_assignment,
    verify_normalized,
    worst_relevant_ratio,
)
from repro.scenarios import fig3_graph


def main() -> None:
    graph, _ratio = fig3_graph(2)
    print(f"graph: {graph}")
    print(f"worst relevant-cycle ratio: {worst_relevant_ratio(graph)}")

    for xi in (Fraction(2), Fraction(5, 2)):
        admissible = check_abc(graph, xi).admissible
        assignment = normalized_assignment(graph, xi)
        print(f"\nXi = {xi}: admissible = {admissible}, "
              f"assignment exists = {assignment is not None}")
        if assignment is None:
            continue
        assert verify_normalized(graph, assignment, check_cycle_sums=True)
        print(f"  certified margin eps = {assignment.epsilon}")
        for m in graph.messages:
            print(f"  tau({m}) = {assignment.delay(m)}")
        print(f"  effective Theta = max/min = "
              f"{assignment.message_delay_ratio(graph)} < {xi}")

        system = build_farkas_system(graph, xi)
        x = [assignment.delay(m) for m in system.messages]
        print(f"  Figure-6 system: {len(system.matrix)} rows x "
              f"{system.n_messages} cols "
              f"({system.n_relevant} relevant, "
              f"{system.n_nonrelevant} non-relevant cycle rows); "
              f"the delays solve A x < b strictly: "
              f"{system.strictly_solved_by(x)}")


if __name__ == "__main__":
    main()
