"""Time-domain machinery: realizations, step responses, closed-loop sims.

Linear responses use classical RK4, implemented through the exact one-step
maps for a constant input (Phi = truncated exponential to fourth order),
which is algebraically identical to running the four-stage scheme.  The
nonlinear closed loop integrates the coupled plant/compensator ODEs with
the standard four-stage evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import NonlinearState, PendulumParams, linear_plant, nonlinear_derivatives
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
class Realization:
    """Controllable canonical form (A, B, C, D) of a proper transfer function."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    @property
    def order(self) -> int:
        return self.A.shape[0]


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

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
        return cls(t=data[:, 0], y=data[:, 1])


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
        if not lo <= hi:
            raise ValueError("freq_interval must be nonempty")


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def realize(tf: RationalTF) -> Realization:
    """Controllable canonical form with the denominator made monic first."""
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
    return Realization(A=A, B=B, C=C, D=float(d))


def _rk4_maps(A: np.ndarray, B: np.ndarray, h: float):
    """One-step state maps of classical RK4 under a constant input."""
    n = A.shape[0]
    hA = h * A
    eye = np.eye(n)
    inner = eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0
    phi = eye + hA @ inner
    gamma = h * (inner @ B)
    return phi, gamma


def _sim_grid(t_end: float, dt: float, fastest: float):
    """(time grid, step, step count) for an RK4 run.

    The step drops to REFINED_DT when the fastest pole magnitude times the
    requested step leaves the RK4 stability region.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("t_end and dt must be positive")
    if dt >= t_end:
        raise ValueError("dt must be smaller than t_end")
    if fastest * dt > FAST_POLE_PRODUCT_LIMIT:
        dt = REFINED_DT
    steps = int(round(t_end / dt))
    return np.arange(steps + 1) * dt, dt, steps


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
    fastest = float(np.max(np.abs(np.linalg.eigvals(rz.A)))) if rz.order else 0.0
    t, dt, steps = _sim_grid(t_end, dt, fastest)
    y = np.empty(steps + 1)
    if rz.order == 0:
        y[:] = rz.D
        return TimeSeries(t=t, y=y)

    phi, gamma = _rk4_maps(rz.A, rz.B, dt)
    u = gamma[:, 0]
    x = np.zeros(rz.order)
    c_row = rz.C[0]
    y[0] = rz.D
    for k in range(1, steps + 1):
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


@dataclass
class _LoopPieces:
    rc: Realization
    rp: Realization
    alpha: float  # 1 / (1 + D_C * D_P), the algebraic feedthrough solve

    @classmethod
    def build(cls, C: RationalTF, P: RationalTF) -> "_LoopPieces":
        rc = realize(C)
        rp = realize(P)
        gain = 1.0 + rc.D * rp.D
        if abs(gain) < 1e-12:
            raise ValueError("compensator feedthroughs close a singular algebraic loop")
        return cls(rc=rc, rp=rp, alpha=1.0 / gain)

    def force(self, r: float, y: float, xc: np.ndarray, xp: np.ndarray) -> float:
        """Solve the instantaneous loop for the cart force.

        v = r - C_out with C driven by y + P_out and P driven by v; the two
        feedthroughs couple, giving v*(1 + D_C*D_P) = r - Cc*xc - D_C*y -
        D_C*Cp*xp.
        """
        rc, rp = self.rc, self.rp
        num = r - rc.D * y
        if rc.order:
            num -= float(rc.C[0] @ xc)
        if rp.order:
            num -= rc.D * float(rp.C[0] @ xp)
        return self.alpha * num

    def fastest_pole(self) -> float:
        mags = [0.0]
        for rz in (self.rc, self.rp):
            if rz.order:
                mags.append(float(np.max(np.abs(np.linalg.eigvals(rz.A)))))
        return max(mags)


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
    loop = _LoopPieces.build(C, P)
    t, dt, steps = _sim_grid(t_end, dt, loop.fastest_pole())

    nc, np_ = loop.rc.order, loop.rp.order
    z = np.zeros(4 + nc + np_)
    z[1] = theta0

    def deriv(z):
        plant, xc, xp = z[:4], z[4 : 4 + nc], z[4 + nc :]
        y = plant[0]
        v = loop.force(x_ref_step, y, xc, xp)
        dplant = nonlinear_derivatives(NonlinearState.from_array(plant), v, params)
        out = np.empty_like(z)
        out[:4] = dplant
        if nc:
            p_out = loop.rp.D * v
            if np_:
                p_out += float(loop.rp.C[0] @ xp)
            out[4 : 4 + nc] = loop.rc.A @ xc + loop.rc.B[:, 0] * (y + p_out)
        if np_:
            out[4 + nc :] = loop.rp.A @ xp + loop.rp.B[:, 0] * v
        return out

    xs = np.empty(steps + 1)
    ths = np.empty(steps + 1)
    xs[0], ths[0] = z[0], z[1]
    for k in range(1, steps + 1):
        k1 = deriv(z)
        k2 = deriv(z + 0.5 * dt * k1)
        k3 = deriv(z + 0.5 * dt * k2)
        k4 = deriv(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > DIVERGENCE_BOUND:
            raise TrajectoryDiverged(t_reached=float(t[k]))
        xs[k], ths[k] = z[0], z[1]
    return TimeSeries(t=t, y=xs), TimeSeries(t=t, y=ths)


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
    loop = _LoopPieces.build(C, P)
    lp = linear_plant(params)
    nc, np_ = loop.rc.order, loop.rp.order
    n = 4 + nc + np_

    # assemble z' = A z + B r by eliminating the loop force
    # v = alpha * (r - Cc xc - D_C y - D_C Cp xp) with y = plant position
    row_v = np.zeros(n)
    row_v[0] = -loop.rc.D
    if nc:
        row_v[4 : 4 + nc] = -loop.rc.C[0]
    if np_:
        row_v[4 + nc :] = -loop.rc.D * loop.rp.C[0]
    row_v *= loop.alpha
    r_gain = loop.alpha

    A = np.zeros((n, n))
    B = np.zeros((n, 1))
    A[:4, :4] = lp.A
    A[:4, :] += lp.B @ row_v[None, :]
    B[:4, 0] = lp.B[:, 0] * r_gain
    if nc:
        # C input: y + P_out = y + Cp xp + D_P v
        row_in = np.zeros(n)
        row_in[0] = 1.0
        if np_:
            row_in[4 + nc :] += loop.rp.C[0]
        row_in += loop.rp.D * row_v
        A[4 : 4 + nc, 4 : 4 + nc] = loop.rc.A
        A[4 : 4 + nc, :] += loop.rc.B @ row_in[None, :]
        B[4 : 4 + nc, 0] = loop.rc.B[:, 0] * (loop.rp.D * r_gain)
    if np_:
        A[4 + nc :, 4 + nc :] = loop.rp.A
        A[4 + nc :, :] += loop.rp.B @ row_v[None, :]
        B[4 + nc :, 0] = loop.rp.B[:, 0] * r_gain

    fastest = float(np.max(np.abs(np.linalg.eigvals(A)))) if n else 0.0
    t, dt, steps = _sim_grid(t_end, dt, max(fastest, loop.fastest_pole()))

    z = np.zeros(n)
    z[1] = theta0
    phi, gamma = _rk4_maps(A, B, dt)
    drive = gamma[:, 0] * x_ref_step
    xs = np.empty(steps + 1)
    ths = np.empty(steps + 1)
    xs[0], ths[0] = z[0], z[1]
    for k in range(1, steps + 1):
        z = phi @ z + drive
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > DIVERGENCE_BOUND:
            raise TrajectoryDiverged(t_reached=float(t[k]))
        xs[k], ths[k] = z[0], z[1]
    return TimeSeries(t=t, y=xs), TimeSeries(t=t, y=ths)


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
