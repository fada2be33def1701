"""Compensator synthesis and analysis for plants that resist stable feedback.

The package builds around a single benchmark: an inverted pendulum on a cart
measured only through the cart position.  That plant cannot be stabilized by
any stable feedback compensator on its own, but a stable feedback/parallel
feedforward pair can do it.  The modules here construct, verify, search for
and stress-test such pairs.
"""

__version__ = "0.1.0"

from .plant import PendulumParams
from .poly import Polynomial
from .tf import CompensatorPair, RationalTF

__all__ = [
    "Polynomial",
    "RationalTF",
    "CompensatorPair",
    "PendulumParams",
    "__version__",
]
