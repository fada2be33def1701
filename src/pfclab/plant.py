"""Inverted pendulum on a cart: linear plants and nonlinear dynamics.

All quantities are nondimensional unless stated otherwise: lengths in units
of the pendulum length, time in units of sqrt(L/g), masses in units of the
pendulum mass.  The cart mass M is the one free parameter; the benchmark
value is M = 0.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tf import RationalTF


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters; defaults are the nondimensional benchmark."""

    M: float = 0.3  # cart mass
    L: float = 1.0  # pendulum length
    m: float = 1.0  # pendulum bob mass
    g: float = 1.0  # gravity

    def __post_init__(self):
        for name in ("M", "L", "m", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass
class StateSpace:
    """State-space model x' = A x + B u, y = C x + D u with one input and output."""

    A: np.ndarray  # n x n
    B: np.ndarray  # n x 1
    C: np.ndarray  # 1 x n
    D: float = 0.0

    @property
    def order(self) -> int:
        return self.A.shape[0]


# ---------------------------------------------------------------------------
# linear plants
# ---------------------------------------------------------------------------


def position_plant(M: float = 0.3) -> RationalTF:
    """Force-to-cart-position transfer function.

    (s^2 - 1) / (s^2*(M*s^2 - (1+M))), the benchmark plant with zeros at
    +-1 and poles {0, 0, +-sqrt((1+M)/M)}: `position_plant_rows` with every
    factor at 1.
    """
    num, den = position_plant_rows([[1.0, 1.0, 1.0, 1.0]], M)
    return RationalTF(num[0], den[0])


def position_plant_rows(factors, M: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator coefficient rows of `position_plant`.

    One row each per row (A0, A1, A2, A3) of ``factors``: the coefficients
    of (A0*s^2 - A1) / (s^2*(M*A2*s^2 - (1+M)*A3)), ascending.  The factors
    are multiplicative perturbations of the plant coefficients, each 1 in
    the nominal plant.
    """
    if M <= 0.0:
        raise ValueError("cart mass must be strictly positive")
    A0, A1, A2, A3 = np.asarray(factors, dtype=float).T
    zero = np.zeros(len(A0))
    num = np.column_stack([-A1, zero, A0])
    den = np.column_stack([zero, zero, -(1.0 + M) * A3, zero, M * A2])
    return num, den


def angle_plant(M: float = 0.3) -> RationalTF:
    """Force-to-pendulum-angle transfer function: 1 / ((1+M) - M*s^2)."""
    if M <= 0.0:
        raise ValueError("cart mass must be strictly positive")
    return RationalTF((1.0,), (1.0 + M, 0.0, -M))


def linear_plant(params: PendulumParams) -> StateSpace:
    """Small-angle model about the upright equilibrium.

    xddot = (u - m*g*theta)/M and thetaddot = ((M+m)*g*theta - u)/(M*L),
    written in first-order form, state (x, theta, xdot, thetadot), with
    output the cart position.
    """
    M, L, m, g = params.M, params.L, params.m, params.g
    A = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -m * g / M, 0.0, 0.0],
            [0.0, (M + m) * g / (M * L), 0.0, 0.0],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0 / M], [-1.0 / (M * L)]])
    C = np.array([[1.0, 0.0, 0.0, 0.0]])
    return StateSpace(A=A, B=B, C=C)


# ---------------------------------------------------------------------------
# nonlinear dynamics
# ---------------------------------------------------------------------------


def nonlinear_derivatives(
    st: Sequence[float], u: float, p: PendulumParams = PendulumParams()
) -> tuple[float, float, float, float]:
    """State derivative (xdot, thetadot, xddot, thetaddot) of the full model.

    ``st`` is any (x, theta, xdot, thetadot) sequence.

    Momentum balance couples the two accelerations:

        (M+m)*xddot + m*L*cos(theta)*thetaddot = u + m*L*thetadot^2*sin(theta)
        cos(theta)*xddot + L*thetaddot          = g*sin(theta)

    solved in closed form by Cramer's rule; the determinant
    L*(M + m*sin(theta)^2) is strictly positive, so no branch is needed.
    """
    _, theta, xdot, thetadot = st
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    det = p.L * (p.M + p.m * sin_t * sin_t)
    rhs1 = u + p.m * p.L * thetadot * thetadot * sin_t
    rhs2 = p.g * sin_t
    xddot = (p.L * rhs1 - p.m * p.L * cos_t * rhs2) / det
    thetaddot = (-cos_t * rhs1 + (p.M + p.m) * rhs2) / det
    return (xdot, thetadot, float(xddot), float(thetaddot))
