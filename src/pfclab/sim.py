"""Time-domain machinery: realizations, step responses, closed-loop sims.

Linear responses use classical RK4, implemented through the exact one-step
maps for a constant input (Phi = truncated exponential to fourth order),
which is algebraically identical to running the four-stage scheme.  Both
closed-loop simulations build one linear loop model z' = A z + B r over the
plant, compensator and feedforward states.  The linear twin steps it through
those maps; the nonlinear run evaluates it with the standard four-stage
scheme after replacing the four plant rows with the full cart-pendulum
dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import PendulumParams, StateSpace, linear_plant, nonlinear_derivatives
from .poly import Polynomial
from .tf import NoiseChannelSet, RationalTF, angular_closed_loop

# explicit RK4 stability limit motivates the refinement rule in _sim_grid
FAST_POLE_PRODUCT_LIMIT = 0.1
REFINED_DT = 1e-4
DIVERGENCE_BOUND = 1e6


class TrajectoryDiverged(RuntimeError):
    """Raised when an integrated state exceeds the divergence bound."""

    def __init__(self, t_reached: float):
        super().__init__("trajectory diverged")
        self.t_reached = t_reached


@dataclass
class TimeSeries:
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.t.shape != self.y.shape or self.t.ndim != 1:
            raise ValueError("t and y must be 1-D arrays of equal length")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("time grid must be strictly increasing")

    def to_csv(self, path) -> None:
        np.savetxt(
            path,
            np.column_stack([self.t, self.y]),
            delimiter=",",
            header="t,y",
            comments="",
            fmt="%.17g",
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Randomized multi-sine excitation: N sinusoids with fixed amplitude norm."""

    N: int = 4000
    amp_norm: float = 0.01
    freq_interval: tuple[float, float] = (0.5, 1.5)
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not (self.amp_norm >= 0.0 and np.isfinite(self.amp_norm)):
            raise ValueError("amp_norm must be finite and nonnegative")
        lo, hi = self.freq_interval
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("freq_interval must be finite")
        if not lo <= hi:
            raise ValueError("freq_interval must be nonempty")


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def realize(tf: RationalTF) -> StateSpace:
    """Controllable canonical form (A, B, C, D) with the denominator made monic first."""
    if not tf.is_proper:
        raise ValueError(
            "improper transfer function has no state-space realization with scalar D"
        )
    lead = tf.den.leading
    den = Polynomial([c / lead for c in tf.den.coeffs])
    num = Polynomial([c / lead for c in tf.num.coeffs])
    n = den.degree
    q, r = divmod(num, den)
    d = 0.0 if q.is_zero else q.coeffs[0]

    A = np.eye(n, k=1)
    B = np.zeros((n, 1))
    if n > 0:
        A[-1, :] = [-c for c in den.coeffs[:n]]
        B[-1, 0] = 1.0
    C = np.zeros((1, n))
    if not r.is_zero:
        C[0, : len(r.coeffs)] = r.coeffs
    return StateSpace(A=A, B=B, C=C, D=float(d))


def _rk4_maps(A: np.ndarray, B: np.ndarray, h: float):
    """One-step state maps of classical RK4 under a constant input."""
    n = A.shape[0]
    hA = h * A
    eye = np.eye(n)
    inner = eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0
    phi = eye + hA @ inner
    gamma = h * (inner @ B)
    return phi, gamma


def _fastest_pole(A: np.ndarray) -> float:
    """Largest eigenvalue magnitude of A; 0 for a system without states."""
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0


def _sim_grid(t_end: float, dt: float, fastest: float):
    """(time grid, step) for an RK4 run.

    The step drops to REFINED_DT when the fastest pole magnitude times the
    requested step leaves the RK4 stability region.
    """
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if dt >= t_end:
        raise ValueError("dt must be smaller than t_end")
    if fastest * dt > FAST_POLE_PRODUCT_LIMIT:
        dt = REFINED_DT
    return np.arange(int(round(t_end / dt)) + 1) * dt, dt


# ---------------------------------------------------------------------------
# linear responses
# ---------------------------------------------------------------------------


def step_response(tf: RationalTF, t_end: float = 60.0, dt: float = 1e-3) -> TimeSeries:
    """Unit-step response from zero initial state.

    For a stable system y(t_end) approaches tf(0).  When the fastest pole
    would leave the RK4 stability region at the requested step, the step is
    refined automatically.
    """
    rz = realize(tf)
    t, dt = _sim_grid(t_end, dt, _fastest_pole(rz.A))
    y = np.empty(t.size)
    phi, gamma = _rk4_maps(rz.A, rz.B, dt)
    u = gamma[:, 0]
    x = np.zeros(rz.order)
    c_row = rz.C[0]
    y[0] = rz.D
    for k in range(1, t.size):
        x = phi @ x + u
        y[k] = c_row @ x + rz.D
    return TimeSeries(t=t, y=y)


def angle_step_response(
    F: RationalTF,
    G: RationalTF,
    C: RationalTF,
    P: RationalTF,
    t_end: float = 60.0,
    dt: float = 1e-3,
) -> TimeSeries:
    """Pendulum-angle response to a unit step in the position reference."""
    return step_response(angular_closed_loop(F, G, C, P), t_end=t_end, dt=dt)


# ---------------------------------------------------------------------------
# closed-loop simulation (nonlinear plant and its linear twin)
# ---------------------------------------------------------------------------


def _loop_model(params: PendulumParams, C: RationalTF, P: RationalTF):
    """The linear closed loop z' = A z + B r, z = (plant, C states, P states).

    Returns (A, B, row_v, alpha, fastest): the cart force is v = row_v @ z +
    alpha * r, and ``fastest`` is the largest pole magnitude of C and P.
    """
    rc, rp = realize(C), realize(P)
    gain = 1.0 + rc.D * rp.D
    if abs(gain) < 1e-12:
        raise ValueError("compensator feedthroughs close a singular algebraic loop")
    alpha = 1.0 / gain
    n = 4 + rc.order + rp.order
    xc, xp = slice(4, 4 + rc.order), slice(4 + rc.order, n)

    # each block's input as a row over (z, r).  v = r - C_out with C driven
    # by y + P_out and P driven by v, so the two feedthroughs couple:
    # v*(1 + D_C*D_P) = r - Cc*xc - D_C*y - D_C*Cp*xp, y the cart position
    row_v = np.zeros(n + 1)
    row_v[0] = -rc.D
    row_v[xc] = -rc.C[0]
    row_v[xp] = -rc.D * rp.C[0]
    row_v[n] = 1.0
    row_v *= alpha
    # C input: y + P_out = y + Cp xp + D_P v
    row_in = rp.D * row_v
    row_in[0] += 1.0
    row_in[xp] += rp.C[0]

    AB = np.zeros((n, n + 1))
    plant = linear_plant(params)
    for rows, blk, u in ((slice(0, 4), plant, row_v), (xc, rc, row_in), (xp, rp, row_v)):
        AB[rows, rows] = blk.A
        AB[rows] += blk.B @ u[None, :]
    fastest = max(_fastest_pole(rc.A), _fastest_pole(rp.A))
    # contiguous copies keep the per-stage A @ z of the nonlinear run fast
    return AB[:, :n].copy(), AB[:, n:].copy(), row_v[:n], row_v[n], fastest


def _run_loop(step, n: int, theta0: float, t: np.ndarray):
    """(cart, angle) series on t of ``step`` iterated from rest tilted by theta0."""
    z = np.zeros(n)
    z[1] = theta0
    rec = np.empty((2, t.size))
    rec[:, 0] = z[:2]
    for k in range(1, t.size):
        z = step(z)
        if not np.max(np.abs(z)) <= DIVERGENCE_BOUND:  # NaN fails the test too
            raise TrajectoryDiverged(t_reached=float(t[k]))
        rec[:, k] = z[:2]
    return TimeSeries(t=t, y=rec[0]), TimeSeries(t=t, y=rec[1])


def nonlinear_closed_loop(
    params: PendulumParams,
    C: RationalTF,
    P: RationalTF,
    x_ref_step: float,
    theta0: float,
    t_end: float = 60.0,
    dt: float = 1e-3,
) -> tuple[TimeSeries, TimeSeries]:
    """Full nonlinear pendulum-cart under the two-compensator loop.

    The feedback compensator C sees the cart position plus the feedforward
    output; the reference error drives both the cart and the feedforward
    path.  Initial state is upright-at-rest except for the given angle.
    Returns (cart position, pendulum angle).
    """
    A, B, row_v, alpha, fastest = _loop_model(params, C, P)
    t, dt = _sim_grid(t_end, dt, fastest)
    drive = B[:, 0] * x_ref_step
    v_ref = alpha * x_ref_step

    def deriv(z):
        # the linear loop, with the four plant rows replaced by the full model
        out = A @ z + drive
        out[:4] = nonlinear_derivatives(z[:4], row_v @ z + v_ref, params)
        return out

    def step(z):
        k1 = deriv(z)
        k2 = deriv(z + 0.5 * dt * k1)
        k3 = deriv(z + 0.5 * dt * k2)
        k4 = deriv(z + dt * k3)
        return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _run_loop(step, A.shape[0], theta0, t)


def linear_closed_loop(
    params: PendulumParams,
    C: RationalTF,
    P: RationalTF,
    x_ref_step: float,
    theta0: float,
    t_end: float = 60.0,
    dt: float = 1e-3,
) -> tuple[TimeSeries, TimeSeries]:
    """Same loop as :func:`nonlinear_closed_loop` on the small-angle plant.

    Used to check that the linearized design story survives on the full
    model for small excursions.
    """
    A, B, _, _, fastest = _loop_model(params, C, P)
    t, dt = _sim_grid(t_end, dt, max(_fastest_pole(A), fastest))
    phi, gamma = _rk4_maps(A, B, dt)
    drive = gamma[:, 0] * x_ref_step
    return _run_loop(lambda z: phi @ z + drive, A.shape[0], theta0, t)


# ---------------------------------------------------------------------------
# randomized multi-sine noise response
# ---------------------------------------------------------------------------


def noise_time_response(
    channels: NoiseChannelSet, spec: NoiseSpec, t_grid
) -> list[TimeSeries]:
    """Sum-of-sinusoids steady-state response of each noise channel.

    Frequencies are uniform on ``spec.freq_interval``, amplitudes are folded
    normals rescaled to the requested Euclidean norm, phases uniform on
    [0, 2pi); draw order is frequencies, amplitudes, phases.
    """
    if not channels.common_den.is_hurwitz():
        raise ValueError("noise response undefined for unstable channel")
    t = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.freq_interval
    omega = rng.uniform(lo, hi, size=spec.N)
    c = np.abs(rng.standard_normal(spec.N))
    norm = float(np.linalg.norm(c))
    c = c * (spec.amp_norm / norm) if norm > 0.0 else np.zeros_like(c)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.N)

    s = 1j * omega
    block = max(1, int(2_000_000 / max(1, t.size)))  # bound the outer-product size
    out = []
    for ch in channels.channels:
        gain = ch(s)
        amp = c * np.abs(gain)
        psi = np.angle(gain) + phase
        y = np.zeros_like(t)
        for start in range(0, spec.N, block):
            sl = slice(start, min(start + block, spec.N))
            y += np.sin(np.outer(t, omega[sl]) + psi[sl]) @ amp[sl]
        out.append(TimeSeries(t=t, y=y))
    return out
