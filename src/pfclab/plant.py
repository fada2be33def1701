"""Inverted pendulum on a cart: linear plants, nonlinear dynamics, scaling.

All quantities are nondimensional unless stated otherwise: lengths in units
of the pendulum length, time in units of sqrt(L/g), masses in units of the
pendulum mass.  The cart mass M is the one free parameter; the benchmark
value is M = 0.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .poly import Polynomial
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
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class PerturbedPlantParams:
    """Multiplicative perturbation factors on the four plant coefficients.

    The position plant is written (A0*s^2 - A1) / (s^2*(M*A2*s^2 -
    (1+M)*A3)); the nominal plant has all factors at 1.  Negative values are
    legal (a Monte Carlo draw may produce them at large sigma).
    """

    A0: float = 1.0
    A1: float = 1.0
    A2: float = 1.0
    A3: float = 1.0

    def __post_init__(self):
        for name in ("A0", "A1", "A2", "A3"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class StateSpace:
    """Linear pendulum-cart model, state ordering (x, theta, xdot, thetadot)."""

    A: np.ndarray  # 4x4
    B: np.ndarray  # 4x1
    C: np.ndarray  # 1x4


class NonlinearState(NamedTuple):
    x: float
    theta: float
    xdot: float
    thetadot: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @classmethod
    def from_array(cls, a) -> "NonlinearState":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


# ---------------------------------------------------------------------------
# linear plants
# ---------------------------------------------------------------------------


def position_plant(
    params: PerturbedPlantParams = PerturbedPlantParams(), M: float = 0.3
) -> RationalTF:
    """Force-to-cart-position transfer function.

    (A0*s^2 - A1) / (s^2*(M*A2*s^2 - (1+M)*A3)); the nominal factors give
    the benchmark plant with zeros at +-1 and poles {0, 0, +-sqrt((1+M)/M)}.
    """
    if M <= 0.0:
        raise ValueError("cart mass must be strictly positive")
    num = Polynomial((-params.A1, 0.0, params.A0))
    den = Polynomial((0.0, 0.0, -(1.0 + M) * params.A3, 0.0, M * params.A2))
    return RationalTF(num, den)


def angle_plant(M: float = 0.3) -> RationalTF:
    """Force-to-pendulum-angle transfer function: 1 / ((1+M) - M*s^2)."""
    if M <= 0.0:
        raise ValueError("cart mass must be strictly positive")
    return RationalTF((1.0,), (1.0 + M, 0.0, -M))


def linear_plant(params: PendulumParams) -> StateSpace:
    """Small-angle model about the upright equilibrium.

    xddot = (u - m*g*theta)/M and thetaddot = ((M+m)*g*theta - u)/(M*L),
    written in first-order form with output the cart position.
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


def state_space(M: float = 0.3) -> StateSpace:
    """:func:`linear_plant` of the nondimensional benchmark with cart mass M."""
    if M <= 0.0:
        raise ValueError("cart mass must be strictly positive")
    return linear_plant(PendulumParams(M=M))


# ---------------------------------------------------------------------------
# nonlinear dynamics
# ---------------------------------------------------------------------------


def nonlinear_derivatives(
    st: Sequence[float], u: float, p: PendulumParams = PendulumParams()
) -> tuple[float, float, float, float]:
    """State derivative (xdot, thetadot, xddot, thetaddot) of the full model.

    ``st`` is any (x, theta, xdot, thetadot) sequence, e.g. a NonlinearState.

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


def total_energy(st: NonlinearState, p: PendulumParams = PendulumParams()) -> float:
    """Cart kinetic + bob kinetic + bob potential energy (zero input invariant)."""
    cart = 0.5 * p.M * st.xdot**2
    bob = 0.5 * p.m * (
        st.xdot**2
        + 2.0 * p.L * st.xdot * st.thetadot * np.cos(st.theta)
        + (p.L * st.thetadot) ** 2
    )
    potential = p.m * p.g * p.L * np.cos(st.theta)
    return float(cart + bob + potential)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def nondimensionalize(
    x_phys: float, t_phys: float, M_phys: float, m: float, L: float, g: float
) -> tuple[float, float, float]:
    """Map physical (position, time, cart mass) to nondimensional units.

    x in pendulum lengths, time in units of sqrt(L/g), cart mass in bob
    masses.
    """
    if m <= 0.0 or L <= 0.0 or g <= 0.0:
        raise ValueError("m, L and g must be strictly positive")
    return (x_phys / L, t_phys * np.sqrt(g / L), M_phys / m)


def dimensionalize(
    x_nd: float, t_nd: float, M_nd: float, m: float, L: float, g: float
) -> tuple[float, float, float]:
    """Inverse of :func:`nondimensionalize`."""
    if m <= 0.0 or L <= 0.0 or g <= 0.0:
        raise ValueError("m, L and g must be strictly positive")
    return (x_nd * L, t_nd / np.sqrt(g / L), M_nd * m)
