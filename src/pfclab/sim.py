"""Time-domain machinery: realizations, step responses, closed-loop sims.

Linear responses use classical RK4, implemented through the exact one-step
maps for a constant input (Phi = truncated exponential to fourth order),
which is algebraically identical to running the four-stage scheme.  Both
closed-loop simulations build one linear loop model z' = A z + B r over the
plant, compensator and feedforward states.  The linear twin steps it through
those maps; the nonlinear run evaluates it with the standard four-stage
scheme after replacing the four plant rows with the full cart-pendulum
dynamics.

Every run steps its states in place: each step is one gemv (``phi.dot(z,
out=next)``) or RK4 stage written into a ring of CHUNK + 1 state rows, with
the same operations in the same order as the allocating expressions, so
the outputs are the same bits.  Each full ring is flushed at once: the
step response takes one dot product per row, and the closed loops record
their rows after a divergence check per block that still reports the
first step past DIVERGENCE_BOUND.

The multi-sine noise response needs a grid uniform to 1e-12 max|t| and is
a factored complex sum.  With B = ceil(sqrt(T)), sample qB + r of channel
k is Im sum_i U[q,i] V[i,r] W[i,k] for U = exp(i w (t[qB] - t[0])), V =
exp(i w t[r]) and W = c g_k(iw) exp(i phase): two tables of about T N / B
entries and one matrix product per distinct channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import PendulumParams, StateSpace, linear_plant, nonlinear_derivatives
from .poly import Polynomial
from .tf import RationalTF, angular_closed_loop

# largest |eigenvalue of the stepped matrix| * dt a run accepts; _sim_grid
# shortens any step past it, keeping well inside RK4's stability region
FAST_POLE_PRODUCT_LIMIT = 0.1
DIVERGENCE_BOUND = 1e6
# states stepped between two flushes; the ring holds one more row, the carry
CHUNK = 512
# CSV rows formatted per write by write_csv
CSV_BLOCK = 4096


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
        self.t, self.y = sampled("t", self.t, "y", self.y)

    def to_csv(self, path) -> None:
        write_csv(path, "t,y", "%.17g,%.17g", np.column_stack([self.t, self.y]))


def sampled(grid_name: str, grid, curve_name: str, curve) -> tuple:
    """``grid`` and ``curve`` as float arrays.

    ValueError unless the grid is 1-D, finite and strictly increasing and
    the curve has its length.
    """
    grid, curve = np.asarray(grid, dtype=float), np.asarray(curve, dtype=float)
    if curve.shape != grid.shape or grid.ndim != 1:
        raise ValueError(f"{grid_name} and {curve_name} must be 1-D arrays of equal length")
    if not (np.isfinite(grid).all() and np.all(np.diff(grid) > 0.0)):
        raise ValueError(f"{grid_name} grid must be strictly increasing")
    return grid, curve


def write_csv(path, header: str, fmt: str, rows) -> None:
    """The header line, then ``fmt % row`` per row: np.savetxt's bytes, formatted
    CSV_BLOCK rows at a time in one %-format of the block's values."""
    rows = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(rows), CSV_BLOCK):
            block = rows[lo : lo + CSV_BLOCK]
            fh.write(((fmt + "\n") * len(block)) % tuple(block.ravel().tolist()))


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


def _sim_grid(t_end: float, dt: float, A: np.ndarray):
    """(time grid, step) for an RK4 run that steps the state matrix A.

    When A's largest eigenvalue magnitude times dt exceeds
    FAST_POLE_PRODUCT_LIMIT, the step becomes the longest one that divides
    t_end into whole steps and keeps that product within the limit; it is
    then shorter than the requested one.
    """
    t_end, dt = float(t_end), float(dt)
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):
        raise ValueError("t_end and dt must be positive and finite")
    if dt >= t_end:
        raise ValueError("dt must be smaller than t_end")
    fastest = float(np.max(np.abs(np.linalg.eigvals(A)), initial=0.0))
    steps = t_end / dt
    if fastest * dt > FAST_POLE_PRODUCT_LIMIT:
        steps = np.ceil(t_end * fastest / FAST_POLE_PRODUCT_LIMIT)
        dt = t_end / steps
    if not steps < np.inf:
        raise ValueError("t_end / dt overflows: dt is too small for t_end")
    return time_grid(int(round(steps)) + 1) * dt, dt


def time_grid(*args) -> np.ndarray:
    """``np.arange(*args)``; a grid numpy refuses to allocate is a ValueError."""
    try:
        return np.arange(*args)
    except (MemoryError, ValueError):
        raise ValueError("time grid too long to allocate: dt is too small for t_end") from None


def _iterate(step, z0: np.ndarray, size: int, flush) -> None:
    """Step ``step(prev, next)`` from z0 through the states 1 .. size - 1.

    The states are written in place into a ring of CHUNK + 1 rows whose row
    0 carries the last state of the previous block; each time the ring
    fills (and once at the end), ``flush(lo, block)`` receives the states
    lo .. lo + len(block) - 1 as rows of ``block``, valid until it returns.
    """
    ring = np.empty((CHUNK + 1, z0.size))
    ring[0] = z0
    rows = list(ring)  # row views, indexed once
    for lo in range(1, size, CHUNK):
        m = min(CHUNK, size - lo)
        for prev, nxt in zip(rows[:m], rows[1 : m + 1]):
            step(prev, nxt)
        flush(lo, ring[1 : m + 1])
        ring[0] = ring[m]


def _affine_step(phi: np.ndarray, drive: np.ndarray):
    """The step next = phi @ z + drive, written into next (gemv, then one add)."""
    dot, add = phi.dot, np.add

    def step(z, nxt):
        dot(z, out=nxt)
        add(nxt, drive, nxt)

    return step


# ---------------------------------------------------------------------------
# linear responses
# ---------------------------------------------------------------------------


def step_response(tf: RationalTF, t_end: float = 60.0, dt: float = 1e-3) -> TimeSeries:
    """Unit-step response from zero initial state.

    For a stable system y(t_end) approaches tf(0).  A pole too fast for the
    requested step shortens it (see _sim_grid).
    """
    rz = realize(tf)
    t, dt = _sim_grid(t_end, dt, rz.A)
    y = np.empty(t.size)
    phi, gamma = _rk4_maps(rz.A, rz.B, dt)
    c_row = rz.C[0]
    y[0] = rz.D

    def flush(lo, block):
        # one ddot per row, as c_row @ x
        y[lo : lo + len(block)] = np.vecdot(block, c_row) + rz.D

    _iterate(_affine_step(phi, gamma[:, 0]), np.zeros(rz.order), t.size, flush)
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

    Returns (A, B, row_v, alpha): the cart force is v = row_v @ z + alpha * r.
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
    # contiguous copies keep the per-stage A @ z of the nonlinear run fast
    return AB[:, :n].copy(), AB[:, n:].copy(), row_v[:n], row_v[n]


def _run_loop(step, n: int, theta0: float, t: np.ndarray):
    """(cart, angle) series on t of ``step`` iterated from rest tilted by theta0.

    The divergence test runs once per block and reports the first state
    past DIVERGENCE_BOUND (NaN fails the test too).  The steps after it in
    the same block may overflow; their values are never read, so the
    floating-point warnings of this loop alone are silenced.
    """
    z0 = np.zeros(n)
    z0[1] = theta0
    rec = np.empty((2, t.size))
    rec[:, 0] = z0[:2]

    def flush(lo, block):
        bad = ~(np.abs(block).max(axis=1) <= DIVERGENCE_BOUND)
        if bad.any():
            raise TrajectoryDiverged(t_reached=float(t[lo + bad.argmax()]))
        rec[:, lo : lo + len(block)] = block[:, :2].T

    with np.errstate(all="ignore"):
        _iterate(step, z0, t.size, flush)
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
    A, B, row_v, alpha = _loop_model(params, C, P)
    t, dt = _sim_grid(t_end, dt, A)
    drive = B[:, 0] * x_ref_step
    v_ref = alpha * x_ref_step
    n = A.shape[0]
    # each scalar factor as a full row: array-by-array calls skip the scalar
    # conversion, and each product rounds as the scalar one does
    half, full, two, sixth = (np.full(n, c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    k1, k2, k3, k4, w = np.empty((5, n))
    add, mul, dot, v_dot = np.add, np.multiply, A.dot, row_v.dot

    def deriv(z, out):
        # the linear loop, with the four plant rows replaced by the full model
        dot(z, out=out)
        add(out, drive, out)
        out[:4] = nonlinear_derivatives(z[:4].tolist(), float(v_dot(z)) + v_ref, params)

    def step(z, nxt):
        # z + dt/6 * (k1 + 2 k2 + 2 k3 + k4) and its stages, each operation
        # in the order of the allocating expressions
        deriv(z, k1)
        deriv(add(z, mul(half, k1, w), w), k2)
        deriv(add(z, mul(half, k2, w), w), k3)
        deriv(add(z, mul(full, k3, w), w), k4)
        add(k1, mul(two, k2, w), w)
        add(w, mul(two, k3, k1), w)
        add(w, k4, w)
        add(z, mul(sixth, w, w), nxt)

    return _run_loop(step, n, theta0, t)


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
    A, B, _, _ = _loop_model(params, C, P)
    t, dt = _sim_grid(t_end, dt, A)
    phi, gamma = _rk4_maps(A, B, dt)
    return _run_loop(_affine_step(phi, gamma[:, 0] * x_ref_step), A.shape[0], theta0, t)


# ---------------------------------------------------------------------------
# randomized multi-sine noise response
# ---------------------------------------------------------------------------


def noise_time_response(
    channels: tuple[RationalTF, ...], spec: NoiseSpec, t_grid
) -> list[TimeSeries]:
    """Sum-of-sinusoids steady-state response of each noise channel.

    Frequencies are uniform on ``spec.freq_interval``, amplitudes are folded
    normals rescaled to the requested Euclidean norm, phases uniform on
    [0, 2pi); draw order is frequencies, amplitudes, phases.  The grid must
    be uniform: each point within 1e-12 max|t| of t[0] + j h, h the mean step.
    """
    if not all(d.is_hurwitz() for d in {ch.den for ch in channels}):
        raise ValueError("noise response undefined for unstable channel")
    t = np.asarray(t_grid, dtype=float)
    T = t.size
    h = (t[-1] - t[0]) / (T - 1) if T > 1 else 0.0
    off = np.abs(t - t[:1] - h * np.arange(T))
    if not np.all(off <= 1e-12 * np.max(np.abs(t), initial=0.0)):  # NaN fails too
        raise ValueError("noise response needs a uniform time grid")
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.freq_interval
    omega = rng.uniform(lo, hi, size=spec.N)
    c = np.abs(rng.standard_normal(spec.N))
    norm = float(np.linalg.norm(c))
    c = c * (spec.amp_norm / norm) if norm > 0.0 else np.zeros_like(c)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=spec.N)

    B = max(1, int(np.ceil(np.sqrt(T))))  # t[qB + r] = (t[qB] - t[0]) + t[r], r < B
    U = np.exp(1j * np.multiply.outer(t[::B] - t[:1], omega))  # (Q, N)
    V = np.exp(1j * np.multiply.outer(omega, t[:B]))  # (N, B)
    rot = c * np.exp(1j * phase)
    sums: dict = {}  # equal channels (e5 is e4) share one product
    for ch in channels:
        if ch not in sums:
            sums[ch] = (U @ (V * (rot * ch(1j * omega))[:, None])).imag.reshape(-1)[:T]
    return [TimeSeries(t=t, y=sums[ch].copy()) for ch in channels]
