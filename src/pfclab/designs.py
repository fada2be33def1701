"""Built-in benchmark designs.

Two hand-verified stable compensator pairs for the pendulum position plant
(labels "a" and "b"), plus the low-order feedback compensator used by the
angle-measurement demo.  Both pairs place all closed-loop poles in the open
left half plane while keeping every compensator polynomial Hurwitz; see
tests/test_acceptance.py for the full check list.
"""

from __future__ import annotations

from .tf import CompensatorPair, RationalTF

PAIR_A = CompensatorPair(
    C=RationalTF((0.09, 0.9, 2.0, -10.1), (1.0, 10.2, 4.2, 0.002)),
    P=RationalTF((-1.9, -0.1, 7.0, 0.05), (1.0, 5.4, 21.7, 11.0)),
    label="a",
)

PAIR_B = CompensatorPair(
    C=RationalTF((0.3, 1.1, 1.6, -6.9), (1.0, 9.3, 0.4, 0.08)),
    P=RationalTF((-0.8, -2.0, 1.4, 0.2), (1.0, 5.3, 10.8, 4.1)),
    label="b",
)

BUILTIN_PAIRS = {"a": PAIR_A, "b": PAIR_B}

# stable first-order lag that stabilizes the angle plant in a plain
# single-loop configuration; companion piece to the angle demo
ANGLE_DEMO_COMPENSATOR = RationalTF((-3.0, -1.0), (10.0, 1.0))

