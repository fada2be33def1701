"""Direct search for stable proper compensator pairs.

A candidate pair is flattened into a coefficient vector

    q = (a_0..a_2n, b_0..b_2n),   len(q) = 4n + 2,

with C = (a_0 + a_1 s + ... + a_n s^n) / (1 + a_{n+1} s + ... + a_{2n} s^n)
and P built the same way from the b block.  Pinning both denominator
constant terms at 1 removes the scale ambiguity of each ratio.

The scalar objective rewards candidates whose own poles and whose
closed-loop poles all sit in the open left half plane; a genetic algorithm
minimizes it.  Any strictly negative objective value certifies a
stabilizing stable pair, which `verify_pair` then re-checks from scratch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .poly import monic_is_finite, roots_rows, roots_stack
from .sim import write_csv
from .tf import CompensatorPair, RationalTF, loop_denominator, loop_rows, tf_rows
from .tf import closed_loop  # noqa: F401  (pfcbench/tracer.py patches this name here)

# Score assigned to degenerate candidates (degree collapse anywhere);
# finite so ranking stays total and the search can move past them.
LARGE = 1e9

TOURNAMENT_SIZE = 3
BLEND_ALPHA = 0.5

# the weights of `objective`, named in its docstring
PENALTY = 6.0
EPS1 = 1e-5
EPS2 = 1e-4


@dataclass(frozen=True)
class CoeffVector:
    """Flat encoding of a candidate pair of order n."""

    q: tuple[float, ...]
    n: int

    def __init__(self, q: Sequence[float], n: int):
        n = int(n)
        q = tuple(float(x) for x in q)
        _checked_rows([q], n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)


def _checked_rows(rows, n: int) -> np.ndarray:
    """``rows`` as a 2-D float array, once each is a valid order-n vector."""
    if n < 1:
        raise ValueError("compensator order must be at least 1")
    dim = 4 * n + 2
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(
            f"coefficient vector for order {n} must have length {dim}, "
            f"got {rows.shape[-1]}"
        )
    if not np.all(np.isfinite(rows)):
        raise ValueError("coefficient vector entries must be finite")
    return rows


def decode(vec: CoeffVector) -> CompensatorPair:
    """Candidate pair from a coefficient vector.

    No stability or properness screening happens here; bad candidates are
    scored by `objective` and judged by `verify_pair`.
    """
    (nC, dC), (nP, dP) = candidate_stacks(np.array([vec.q]), vec.n)
    C, P = RationalTF(nC[0], dC[0]), RationalTF(nP[0], dP[0])
    return CompensatorPair(C=C, P=P, label="candidate")


def encode(pair: CompensatorPair, n: int | None = None) -> CoeffVector:
    """Coefficient vector of a pair, order inferred unless given.

    Both transfer functions are first rescaled so the denominator constant
    term is exactly 1; a denominator that vanishes at s = 0 has no such
    normal form and is rejected.
    """
    tfs = (pair.C, pair.P)
    if n is None:
        n = max(max(t.num.degree, t.den.degree) for t in tfs)
        n = max(n, 1)
    blocks: list[float] = []
    for t in tfs:
        d0 = t.den.coeffs[0]
        if d0 == 0.0:
            raise ValueError(
                "cannot encode: denominator constant term is zero"
            )
        num = [c / d0 for c in t.num.coeffs]
        den = [c / d0 for c in t.den.coeffs]
        if len(num) > n + 1 or len(den) > n + 1:
            raise ValueError(
                f"pair has degree above the requested order {n}"
            )
        num += [0.0] * (n + 1 - len(num))
        den += [0.0] * (n + 1 - len(den))
        blocks.extend(num)
        blocks.extend(den[1:])
    return CoeffVector(blocks, n)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Plant for the pole-placement score; the weights are PENALTY, EPS1 and EPS2."""

    plant: RationalTF

    def to_json_dict(self) -> dict:
        return {
            "plant": self.plant.to_json_dict(),
            "penalty": PENALTY,
            "eps1": EPS1,
            "eps2": EPS2,
        }


def objective(vec: CoeffVector, cfg: ObjectiveConfig) -> float:
    """Stability score of one candidate; lower is better, negative certifies.

    p1 is the rightmost real part over the candidate's own poles, p2 the
    rightmost over the closed-loop poles.  While p1 >= 0 the score is
    p2 + PENALTY*p1, which pushes the compensators themselves into the left
    half plane before polishing the loop; once p1 < 0 only p2 remains.  Two
    small regularizers keep coefficients and pole magnitudes from drifting:

        F = f0 + EPS1*||q||_2 + EPS2*max|z_H|.

    Candidates whose compensator or closed-loop denominator degree
    collapses score LARGE instead of raising.  The one-row case of
    `objective_batch`.
    """
    return float(objective_batch([vec.q], vec.n, cfg)[0])


def objective_batch(rows, n: int, cfg: ObjectiveConfig) -> np.ndarray:
    """`objective` of each order-n coefficient row, bit for bit.

    C, P and the loop denominator are read off row slices by
    `candidate_stacks` and `tf.loop_rows`, with no `Polynomial` per candidate.
    Each candidate's C and P roots come from one `roots_stack` call and its
    loop roots from another, and the score is taken over those root arrays.
    A row scores LARGE when its C, P or loop denominator loses its leading
    coefficient or has one too small to divide by, or when its loop
    denominator is non-finite or vanishes.
    """
    n = int(n)
    rows = _checked_rows(rows, n)
    F = np.full(len(rows), LARGE)
    C, P = candidate_stacks(rows, n)
    den = loop_rows(tf_rows(cfg.plant), C, P)
    deg = 2 * n + cfg.plant.den.degree  # the loop degree unless leading terms cancel
    den_C, den_P = C[1], P[1]
    # a zero leading coefficient or a non-finite entry fails monic_is_finite too
    ok = (
        monic_is_finite(den[:, : deg + 1])
        & ~np.any(den[:, deg + 1 :], axis=1)
        & monic_is_finite(den_C)
        & monic_is_finite(den_P)
    )
    right = roots_stack(np.concatenate([den_C[ok], den_P[ok]])).real.max(axis=1)
    right_C, right_P = np.split(right, 2)
    z_H = roots_stack(den[ok, : deg + 1])
    p1 = np.where(right_P > right_C, right_P, right_C)  # max(right_C, right_P), NaN too
    p2 = z_H.real.max(axis=1)
    f0 = np.where(p1 >= 0.0, p2 + PENALTY * p1, p2)
    # numpy's dot function per row rounds as np.linalg.norm does; an axis-1 sum may not
    q = rows[ok]
    norm = np.sqrt(np.vecdot(q, q))
    F[ok] = f0 + EPS1 * norm + EPS2 * np.abs(z_H).max(axis=1)
    return F


def candidate_stacks(q: np.ndarray, n: int):
    """(num, den) coefficient stacks of C and of P, read off order-n rows ``q``.

    Row k of each stack is what `decode` gives row k of ``q``, before
    `Polynomial` trims it.
    """
    one = np.ones((len(q), 1))
    C = q[:, : n + 1], np.hstack([one, q[:, n + 1 : 2 * n + 1]])
    P = q[:, 2 * n + 1 : 3 * n + 2], np.hstack([one, q[:, 3 * n + 2 :]])
    return C, P


@dataclass(frozen=True)
class GaConfig:
    """Search knobs: generational GA, tournament-3, blend crossover.

    Mutation is multiplicative log-normal per gene so it respects the
    scale each coefficient has already reached; init_range bounds the
    initial sampling only, not the search.
    """

    population: int = 200
    generations: int = 500
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_scale: float = 0.2
    elitism: int = 2
    init_range: tuple[float, float] = (-12.0, 12.0)
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        for name in ("crossover_rate", "mutation_rate"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not (math.isfinite(self.mutation_scale) and self.mutation_scale >= 0.0):
            raise ValueError("mutation_scale must be finite and nonnegative")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must lie in [0, population)")
        lo, hi = self.init_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("init_range ends must be finite")
        if not lo < hi:
            raise ValueError("init_range must be a nonempty interval")
        if not math.isfinite((hi - lo) * (1.0 + 2.0 * BLEND_ALPHA)):
            raise ValueError("init_range is too wide: the first blend span overflows")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "init_range": list(self.init_range)}


@dataclass(frozen=True)
class SynthesisResult:
    """Best candidate found plus the per-generation best-ever trace."""

    best_q: CoeffVector
    best_F: float
    pair: CompensatorPair
    history: tuple[float, ...]
    objective_config: ObjectiveConfig
    ga_config: GaConfig

    @property
    def success(self) -> bool:
        return self.best_F < 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.best_q.n,
            "best_q": list(self.best_q.q),
            "best_F": self.best_F,
            "success": self.success,
            "pair": self.pair.to_json_dict(),
            "history": list(self.history),
            "objective": self.objective_config.to_json_dict(),
            "ga": self.ga_config.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def history_to_csv(self, path) -> None:
        write_csv(path, "generation,best_F", "%d,%.17g", list(enumerate(self.history)))


def ga_search(
    obj_cfg: ObjectiveConfig, ga_cfg: GaConfig, n: int
) -> SynthesisResult:
    """Minimize the objective over order-n coefficient vectors.

    Deterministic for a fixed seed.  history[g] is the best value seen up
    to and including generation g; history[0] scores the initial
    population.  Failure to reach F < 0 is a valid outcome, reported
    through `success`.

    The initial population is ``rng.uniform(lo, hi, (population, 4n + 2))``
    of ``rng = np.random.default_rng(seed)``.  A generation keeps the
    ``elitism`` best rows (``np.argsort`` order) and fills the other slots
    two children per mating, dropping a last odd child.  A mating draws, in
    this order: two tournaments of ``rng.integers(0, population, 3)``, each
    won by the first index of least fitness; one ``rng.random()`` that
    decides crossover; when it is below ``crossover_rate``, two blends
    ``rng.uniform(lo - d/2, hi + d/2)`` of the parents' elementwise
    ``lo = min``, ``hi = max`` and ``d = hi - lo``, else copies of the
    parents; then per child ``rng.random(4n + 2) < mutation_rate`` and one
    log-normal factor ``exp(mutation_scale * rng.standard_normal(k))``
    for each of its k chosen genes.

    `_next_population` makes those calls one mating at a time and then
    builds every child of the generation in one array pass.  A blend span
    or a kept child's gene past the largest double raises OverflowError.
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
        pop = _next_population(rng, pop, fit, ga_cfg)
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


def _next_population(
    rng: np.random.Generator, pop: np.ndarray, fit: np.ndarray, cfg: GaConfig
) -> np.ndarray:
    """The population after ``pop``, of fitness ``fit``: its elites, then the children.

    The draws are made one mating at a time, in `ga_search`'s stream order,
    and then every tournament, blend and mutation of the generation is done
    at once, in the per-mating floating-point operations, so each child is
    bit for bit the one the calls in `ga_search`'s docstring give.  One
    ``rng.integers`` call of six draws what two calls of three would.
    """
    dim = pop.shape[1]
    matings = (cfg.population - cfg.elitism + 1) // 2
    picks = np.empty((matings, 2 * TOURNAMENT_SIZE), dtype=np.int64)
    crossed, units, masks, normals = [], [], [], []
    for i in range(matings):
        picks[i] = rng.integers(0, cfg.population, 2 * TOURNAMENT_SIZE)
        if rng.random() < cfg.crossover_rate:
            crossed.append(i)
            units.append(rng.random(2 * dim))
        for _child in range(2):
            masks.append(rng.random(dim) < cfg.mutation_rate)
            normals.append(rng.standard_normal(np.count_nonzero(masks[-1])))

    picks = picks.reshape(matings, 2, TOURNAMENT_SIZE)
    # min(picks, key=fit.__getitem__): a later entrant wins only on a
    # strictly lower fitness, so the first least one wins, NaN or not
    win = picks[..., 0]
    for j in range(1, TOURNAMENT_SIZE):
        win = np.where(fit[picks[..., j]] < fit[win], picks[..., j], win)
    kids = pop[win]
    crossed = np.array(crossed, dtype=int)
    pa, pb = kids[crossed, 0], kids[crossed, 1]
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
    # an overflowing span is judged by the check below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        d = hi - lo
        low = lo - BLEND_ALPHA * d
        span = (hi + BLEND_ALPHA * d) - low
    if not np.all(np.isfinite(span)):
        # ends in the words rng.uniform raises on such a span
        raise OverflowError(
            "init_range is too wide: the search overflowed (Range exceeds valid bounds)"
        )
    # rng.uniform(low, high) draws low + (high - low) * unit
    kids[crossed] = low[:, None] + span[:, None] * np.reshape(units, (-1, 2, dim))
    kids = kids.reshape(2 * matings, dim)
    r, c = np.nonzero(masks)
    # as with the span, an overflowing gene is judged below; only kept
    # children are, since the dropped odd one never reaches the objective
    with np.errstate(over="ignore", invalid="ignore"):
        kids[r, c] *= np.exp(cfg.mutation_scale * np.concatenate(normals))
    kids = kids[: cfg.population - cfg.elitism]
    if not np.all(np.isfinite(kids)):
        raise OverflowError("mutation_scale is too large: a mutated gene overflowed")
    elites = pop[np.argsort(fit)[: cfg.elitism]]
    return np.concatenate([elites, kids])


@dataclass(frozen=True)
class VerificationReport:
    """Independent pass/fail audit of a pair against a plant.

    Rightmost fields are real parts of the nearest-to-instability pole of
    each denominator (-inf when there are no poles at all); relative
    degrees are the properness margins.
    """

    c_proper: bool
    p_proper: bool
    c_stable: bool
    p_stable: bool
    closed_loop_stable: bool
    c_rightmost: float
    p_rightmost: float
    h_rightmost: float
    c_relative_degree: int
    p_relative_degree: int

    @property
    def passed(self) -> bool:
        return (
            self.c_proper
            and self.p_proper
            and self.c_stable
            and self.p_stable
            and self.closed_loop_stable
        )


def verify_pair(G: RationalTF, pair: CompensatorPair) -> VerificationReport:
    """Re-derive every stability and properness claim for a pair.

    Works from the raw polynomials: the closed-loop denominator is
    assembled without cancellation, so a pair that only looks stable after
    cancelling an unstable factor fails here.  All poles and stable flags
    come from one `roots_rows` call; a constant denominator has no poles
    (rightmost -inf).  Each stable flag is `Polynomial.is_hurwitz`'s exact
    verdict, so a pole on the imaginary axis fails even when its float real
    part is negative.
    """
    dens = (pair.C.den, pair.P.den, loop_denominator(G, pair.C, pair.P))
    stack = np.zeros((3, max(len(d.coeffs) for d in dens)))
    for row, d in zip(stack, dens):
        row[: len(d.coeffs)] = d.coeffs
    roots, ok = roots_rows(stack)
    c_r, p_r, h_r = (float(z.real.max()) if len(z) else -math.inf for z in roots)
    c_ok, p_ok, h_ok = ok.tolist()
    return VerificationReport(
        c_proper=pair.C.is_proper,
        p_proper=pair.P.is_proper,
        c_stable=c_ok,
        p_stable=p_ok,
        closed_loop_stable=h_ok,
        c_rightmost=c_r,
        p_rightmost=p_r,
        h_rightmost=h_r,
        c_relative_degree=pair.C.den.degree - pair.C.num.degree,
        p_relative_degree=pair.P.den.degree - pair.P.num.degree,
    )
