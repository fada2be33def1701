"""Shared strategies, comparison helpers and reference functions for the test suite."""

import hashlib
import math

import numpy as np
from hypothesis import strategies as st

from pfclab.analysis import GRID_POINTS, GRID_W_MAX, GRID_W_MIN
from pfclab.plant import PendulumParams
from pfclab.poly import Polynomial
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

    The reference that `ga_search`'s draw and array passes must match bit
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
