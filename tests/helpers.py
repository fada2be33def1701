"""Shared strategies, comparison helpers and reference functions for the test suite."""

import hashlib
import json
import math

import numpy as np
from hypothesis import strategies as st

from pfclab.analysis import GRID_POINTS, GRID_W_MAX, GRID_W_MIN
from pfclab.plant import PendulumParams, nonlinear_derivatives
from pfclab.poly import CONJUGATE_TOL, Polynomial
from pfclab.sim import (
    DIVERGENCE_BOUND,
    NoiseSpec,
    TimeSeries,
    TrajectoryDiverged,
    _loop_model,
    _rk4_maps,
    _sim_grid,
    realize,
)
from pfclab.synth import (
    BLEND_ALPHA,
    TOURNAMENT_SIZE,
    CoeffVector,
    SynthesisResult,
    decode,
    objective_batch,
)
from pfclab.tf import RationalTF


def stable_root(re_max=-0.05):
    """Strategy for one left-half-plane root (real, or upper-half complex).

    Roots confined to moderate magnitudes keep coefficient dynamic range
    within about 1e4, the regime the accuracy claims target.
    """
    return st.one_of(
        st.tuples(
            st.floats(-3.0, re_max, allow_nan=False),
        ).map(lambda t: complex(t[0], 0.0)),
        st.tuples(
            st.floats(-3.0, re_max, allow_nan=False),
            st.floats(0.05, 3.0, allow_nan=False),
        ).map(lambda t: complex(*t)),
    )


def expand_conjugates(seed):
    out = []
    for r in seed:
        out.extend([r] if r.imag == 0.0 else [r, r.conjugate()])
    return out


def separated(roots, gap=0.01):
    return all(
        abs(a - b) >= gap for i, a in enumerate(roots) for b in roots[i + 1 :]
    )


def match_error(got, want):
    """Multiset root-set distance: nearest-neighbour pairing, worst case.

    Lexicographic sorting misorders roots that share a real part, so direct
    elementwise comparison after sorting is not reliable.
    """
    pool = list(got)
    worst = 0.0
    for w in want:
        j = int(np.argmin([abs(w - g) for g in pool]))
        worst = max(worst, abs(w - pool.pop(j)))
    return worst


def digest_polynomials():
    """Fixed polynomial set whose roots are pinned by SHA-256.

    Random loop denominators of the pendulum plant for n = 1..3, clustered,
    repeated real and complex, integer, zero-at-origin and badly scaled
    polynomials, built with exact `Polynomial` arithmetic only.
    """
    rng = np.random.default_rng(20261019)
    nG, dG = Polynomial((-1.0, 0.0, 1.0)), Polynomial((0.0, 0.0, -1.3, 0.0, 0.3))
    polys = []
    for k in range(240):
        n = 1 + k % 3
        nC, nP = (Polynomial(rng.uniform(-12.0, 12.0, n + 1)) for _ in "CP")
        dC, dP = (Polynomial((1.0, *rng.uniform(-12.0, 12.0, n))) for _ in "CP")
        polys += [dC, dP, dC * dG * dP + nC * nP * dG + nC * nG * dP]
    for k in range(240):
        kind = k % 6
        if kind == 0:
            c = rng.uniform(-3.0, 1.0)
            p = Polynomial.from_roots(list(c + 1e-4 * rng.standard_normal(int(rng.integers(2, 5)))))
        elif kind == 1:
            a, b = rng.uniform(-2.0, 1.0), rng.uniform(0.1, 3.0)
            pair = [complex(a, b), complex(a, -b)] * int(rng.integers(1, 4))
            p = Polynomial.from_roots(pair + [rng.uniform(-3.0, 3.0)])
        elif kind == 2:
            c = rng.integers(-9, 10, int(rng.integers(2, 12))).astype(float)
            c[-1] = c[-1] or 1.0
            p = Polynomial(c)
        elif kind == 3:
            zeros = [0.0] * int(rng.integers(1, 4))
            p = Polynomial(zeros + list(rng.standard_normal(int(rng.integers(2, 9)))))
        elif kind == 4:
            r = float(rng.integers(-3, 3))
            p = Polynomial.from_roots([r] * int(rng.integers(2, 5)) + [float(rng.integers(-5, 5))])
        else:
            d = int(rng.integers(3, 10))
            p = Polynomial(rng.standard_normal(d) * 10.0 ** rng.integers(-4, 5, d))
        polys.append(p)
    return polys


def reference_from_roots(roots):
    """`Polynomial.from_roots` by in-order nearest-conjugate pairing, one root at a time.

    The reference the array pairing of `from_roots` must match bit for bit
    on conjugate-closed lists without repeated complex pairs.  Each root in
    input order is snapped onto the real axis when near-real, else paired
    with the nearest later unused root whose conjugate lies within
    CONJUGATE_TOL; a pair becomes the real quadratic of its average.
    """
    rts = [complex(r) for r in roots]
    used = [False] * len(rts)
    p = Polynomial((1.0,))
    s = Polynomial((0.0, 1.0))
    for i, r in enumerate(rts):
        if used[i]:
            continue
        tol = CONJUGATE_TOL * (1.0 + abs(r))
        if abs(r.imag) <= tol or r.imag == 0.0:  # a NaN modulus snaps nothing
            p = p * (s - r.real)
            continue
        best_j, best_d = -1, math.inf
        for j in range(i + 1, len(rts)):
            d = abs(r.conjugate() - rts[j])
            if not used[j] and d < best_d:
                best_j, best_d = j, d
        if best_j < 0 or best_d > tol:
            raise ValueError(
                "root set is not closed under conjugation; cannot build a real polynomial"
            )
        used[best_j] = True
        z = 0.5 * (r + rts[best_j].conjugate())
        p = p * Polynomial((z.real * z.real + z.imag * z.imag, -2.0 * z.real, 1.0))
    return p


def array_digest(arrays):
    """SHA-256 over each array's length and its complex128 bytes."""
    h = hashlib.sha256()
    for r in arrays:
        r = np.asarray(r, dtype=complex)
        h.update(np.int64(r.size).tobytes())
        h.update(r.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reference block algebra and model quantities
# ---------------------------------------------------------------------------


def rightmost_real_part(p: Polynomial) -> float:
    """Largest real part over all roots of p."""
    if p.degree < 1:
        raise ValueError("rightmost real part needs at least one root")
    return float(np.max(p.roots().real))


def constant(c: float) -> RationalTF:
    return RationalTF((float(c),), (1.0,))


def series(a: RationalTF, b: RationalTF) -> RationalTF:
    den = a.den * b.den
    if den.is_zero:
        raise ValueError("degenerate composition: denominator vanished")
    return RationalTF(a.num * b.num, den)


def parallel(a: RationalTF, b: RationalTF) -> RationalTF:
    den = a.den * b.den
    if den.is_zero:
        raise ValueError("degenerate composition: denominator vanished")
    return RationalTF(a.num * b.den + b.num * a.den, den)


def feedback(fwd: RationalTF, fb: RationalTF) -> RationalTF:
    """Negative feedback loop fwd / (1 + fwd*fb), exact polynomials."""
    den = fwd.den * fb.den + fwd.num * fb.num
    if den.is_zero:
        raise ValueError("degenerate loop: denominator vanished")
    return RationalTF(fwd.num * fb.den, den)


def loop_denominator_formula(G: RationalTF, C: RationalTF, P: RationalTF) -> Polynomial:
    """d_C d_G d_P + n_C n_P d_G + n_C n_G d_P in exact `Polynomial` arithmetic.

    The reference for `tf.loop_rows` and `tf.loop_denominator`, which must
    match it bit for bit; it is the zero polynomial when the loop vanishes.
    """
    return C.den * G.den * P.den + C.num * P.num * G.den + C.num * G.num * P.den


def tf_equal_up_to_scale(a: RationalTF, b: RationalTF, rtol: float = 1e-9) -> bool:
    """Equality of a and b as rational functions: cross-multiplied match.

    Compares num_a*den_b against num_b*den_a up to one scalar factor, which
    makes the test insensitive to unreduced common polynomial factors on
    either side.
    """
    la = np.asarray((a.num * b.den).coeffs)
    rb = np.asarray((b.num * a.den).coeffs)
    if np.all(la == 0.0) and np.all(rb == 0.0):
        return True
    if len(la) != len(rb):
        return False
    ia = int(np.argmax(np.abs(la)))
    if rb[ia] == 0.0:
        return False
    scale = la[ia] / rb[ia]
    tol = rtol * max(np.max(np.abs(la)), np.max(np.abs(rb)) * abs(scale))
    return bool(np.max(np.abs(la - scale * rb)) <= tol)


def total_energy(st, p: PendulumParams = PendulumParams()) -> float:
    """Cart kinetic + bob kinetic + bob potential energy of the state
    (x, theta, xdot, thetadot); invariant under zero input."""
    _, theta, xdot, thetadot = st
    cart = 0.5 * p.M * xdot**2
    bob = 0.5 * p.m * (
        xdot**2
        + 2.0 * p.L * xdot * thetadot * np.cos(theta)
        + (p.L * thetadot) ** 2
    )
    potential = p.m * p.g * p.L * np.cos(theta)
    return float(cart + bob + potential)


# golden-section iterations; interval shrinks by 0.618 per step, so 80
# steps push the bracket to machine precision on any starting interval
_GOLDEN_STEPS = 80
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def peak_gain(tf: RationalTF) -> tuple[float, float]:
    """(omega_peak, peak magnitude in dB) over the standard grid.

    Coarse argmax on the 1000-point log grid, then golden-section
    refinement of log10|tf| in log-omega between the argmax's neighbors.
    Restricted to stable transfer functions: an unstable one has no
    steady-state gain to speak of.
    """
    if not tf.is_stable():
        raise ValueError("peak gain undefined for an unstable transfer function")
    grid = np.logspace(
        math.log10(GRID_W_MIN), math.log10(GRID_W_MAX), GRID_POINTS
    )
    mags = np.abs(tf(1j * grid))
    k = int(np.argmax(mags))
    lo = math.log10(grid[max(k - 1, 0)])
    hi = math.log10(grid[min(k + 1, GRID_POINTS - 1)])

    def g(x: float) -> float:
        return abs(tf(1j * 10.0**x))

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(_GOLDEN_STEPS):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INV_PHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INV_PHI * (b - a)
            gd = g(d)
    x = (a + b) / 2.0
    w = 10.0**x
    return w, 20.0 * math.log10(g(x))


def reference_ga_search(obj_cfg, ga_cfg, n: int) -> SynthesisResult:
    """`synth.ga_search` as one loop over the matings, each drawing from the generator itself.

    The reference that `ga_search`'s array-built generations must match bit
    for bit: one RNG stream consumed in a fixed order (parents, crossover,
    mutation, in that order within each mating; `reference_generation`).
    """
    if n < 1:
        raise ValueError("compensator order must be at least 1")
    dim = 4 * n + 2
    rng = np.random.default_rng(ga_cfg.seed)
    lo0, hi0 = ga_cfg.init_range

    pop = rng.uniform(lo0, hi0, (ga_cfg.population, dim))
    fit = objective_batch(pop, n, obj_cfg)
    best_i = int(fit.argmin())
    best_q = pop[best_i].copy()
    best_F = float(fit[best_i])
    history = [best_F]

    for _ in range(ga_cfg.generations):
        pop = reference_generation(rng, pop, fit, ga_cfg)
        fit = objective_batch(pop, n, obj_cfg)
        i = int(fit.argmin())
        if fit[i] < best_F:
            best_F = float(fit[i])
            best_q = pop[i].copy()
        history.append(best_F)

    vec = CoeffVector(best_q, n)
    return SynthesisResult(
        best_q=vec,
        best_F=best_F,
        pair=decode(vec),
        history=tuple(history),
        objective_config=obj_cfg,
        ga_config=ga_cfg,
    )



def reference_generation(rng, pop, fit, ga_cfg):
    """The population after ``pop``, of fitness ``fit``, built one mating at a time."""
    dim = pop.shape[1]
    order = np.argsort(fit)
    new = [pop[order[i]].copy() for i in range(ga_cfg.elitism)]
    while len(new) < ga_cfg.population:
        i1 = min(
            rng.integers(0, ga_cfg.population, TOURNAMENT_SIZE),
            key=lambda i: fit[i],
        )
        i2 = min(
            rng.integers(0, ga_cfg.population, TOURNAMENT_SIZE),
            key=lambda i: fit[i],
        )
        pa, pb = pop[i1].copy(), pop[i2].copy()
        if rng.random() < ga_cfg.crossover_rate:
            lo = np.minimum(pa, pb)
            hi = np.maximum(pa, pb)
            d = hi - lo
            child1 = rng.uniform(lo - BLEND_ALPHA * d, hi + BLEND_ALPHA * d)
            child2 = rng.uniform(lo - BLEND_ALPHA * d, hi + BLEND_ALPHA * d)
        else:
            child1, child2 = pa, pb
        for child in (child1, child2):
            mask = rng.random(dim) < ga_cfg.mutation_rate
            child[mask] *= np.exp(
                ga_cfg.mutation_scale * rng.standard_normal(int(mask.sum()))
            )
            new.append(child)
    # two children per mating can overshoot an odd slot count
    return np.array(new[: ga_cfg.population])


# ---------------------------------------------------------------------------
# reference time-domain loops: one allocating step per grid point
# ---------------------------------------------------------------------------


def reference_step_response(tf: RationalTF, t_end: float = 60.0, dt: float = 1e-3) -> TimeSeries:
    """`sim.step_response` with each state a fresh ``phi @ x + u``."""
    rz = realize(tf)
    t, dt = _sim_grid(t_end, dt, rz.A)
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


def longdouble_step_response(tf: RationalTF, t_end: float = 60.0, dt: float = 1e-3) -> np.ndarray:
    """The outputs of `reference_step_response`'s recursion, on the same float64
    phi and gamma, carried in np.longdouble: the step responses' accuracy oracle."""
    rz = realize(tf)
    t, dt = _sim_grid(t_end, dt, rz.A)
    phi, gamma = _rk4_maps(rz.A, rz.B, dt)
    phi, u, c_row = (a.astype(np.longdouble) for a in (phi, gamma[:, 0], rz.C[0]))
    x = np.zeros(rz.order, dtype=np.longdouble)
    y = np.empty(t.size, dtype=np.longdouble)
    y[0] = rz.D
    for k in range(1, t.size):
        x = phi @ x + u
        y[k] = c_row @ x + rz.D
    return y


def gap_to_peak(y, exact) -> float:
    """max |y - exact| over max |exact|."""
    return float(np.max(np.abs(y - exact)) / np.max(np.abs(exact)))


def _reference_run_loop(step, n: int, theta0: float, t: np.ndarray):
    """`sim._run_loop` with the divergence test after every step."""
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


def reference_nonlinear_closed_loop(
    params, C, P, x_ref_step, theta0, t_end=60.0, dt=1e-3
) -> tuple[TimeSeries, TimeSeries]:
    """`sim.nonlinear_closed_loop` with every RK4 stage and sum a fresh array."""
    A, B, row_v, alpha = _loop_model(params, C, P)
    t, dt = _sim_grid(t_end, dt, A)
    drive = B[:, 0] * x_ref_step
    v_ref = alpha * x_ref_step

    def deriv(z):
        out = A @ z + drive
        out[:4] = nonlinear_derivatives(z[:4], row_v @ z + v_ref, params)
        return out

    def step(z):
        k1 = deriv(z)
        k2 = deriv(z + 0.5 * dt * k1)
        k3 = deriv(z + 0.5 * dt * k2)
        k4 = deriv(z + dt * k3)
        return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _reference_run_loop(step, A.shape[0], theta0, t)


def reference_linear_closed_loop(
    params, C, P, x_ref_step, theta0, t_end=60.0, dt=1e-3
) -> tuple[TimeSeries, TimeSeries]:
    """`sim.linear_closed_loop` with each state a fresh ``phi @ z + drive``."""
    A, B, _, _ = _loop_model(params, C, P)
    t, dt = _sim_grid(t_end, dt, A)
    phi, gamma = _rk4_maps(A, B, dt)
    drive = gamma[:, 0] * x_ref_step
    return _reference_run_loop(lambda z: phi @ z + drive, A.shape[0], theta0, t)


def reference_noise_time_response(
    channels: tuple[RationalTF, ...], spec: NoiseSpec, t_grid
) -> list[TimeSeries]:
    """`sim.noise_time_response` as a sine table per channel, refilled in blocks of sines."""
    if not all(ch.den.is_hurwitz() for ch in channels):
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
    block = max(1, min(spec.N, int(2_000_000 / max(1, t.size))))  # bound the outer-product size
    buf = np.empty(t.size * block)  # one (t.size, block) sine table, refilled per block
    out = []
    sums: dict = {}
    for ch in channels:
        if ch in sums:  # equal channels (e5 is e4) share one sine sum
            out.append(TimeSeries(t=t, y=sums[ch].copy()))
            continue
        gain = ch(s)
        amp = c * np.abs(gain)
        psi = np.angle(gain) + phase
        y = np.zeros_like(t)
        for start in range(0, spec.N, block):
            sl = slice(start, min(start + block, spec.N))
            # a contiguous (t.size, width) table, as np.outer gave: BLAS may
            # round the matrix product otherwise on a strided one
            arg = buf[: t.size * (sl.stop - start)].reshape(t.size, sl.stop - start)
            np.multiply.outer(t, omega[sl], out=arg)
            arg += psi[sl]
            y += np.sin(arg, out=arg) @ amp[sl]
        sums[ch] = y
        out.append(TimeSeries(t=t, y=y))
    return out


# ---------------------------------------------------------------------------
# artifact writers, one Python call per row, as sim.write_csv replaced them
# ---------------------------------------------------------------------------


def reference_savetxt(path, header: str, rows) -> None:
    """`TimeSeries.to_csv` and `noise.csv` as np.savetxt wrote them."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def reference_bode_csv(curve, path) -> None:
    with open(path, "w") as fh:
        fh.write("omega,mag_db\n")
        for w, m in zip(curve.omega, curve.mag_db):
            fh.write(f"{w:.17g},{m:.17g}\n")


def reference_history_csv(res: SynthesisResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("generation,best_F\n")
        for g, F in enumerate(res.history):
            fh.write(f"{g},{F:.17g}\n")


def reference_cloud_csv(rep, path) -> None:
    with open(path, "w") as fh:
        fh.write("trial,re,im\n")
        for t, z in rep.pole_cloud:
            fh.write(f"{t},{z.real:.17g},{z.imag:.17g}\n")


def reference_mc_json(rep) -> str:
    """`McReport.to_json` through json's own indent=2 encoder."""
    d = {k: getattr(rep, k) for k in ("trials", "unstable_count", "seed", "sigma")}
    d["pole_cloud"] = [[t, z.real, z.imag] for t, z in rep.pole_cloud]
    return json.dumps(d, indent=2)
