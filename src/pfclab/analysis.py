"""Frequency-response curves and seeded Monte Carlo stability studies.

Two study families live here.  `robustness_mc` shakes the physical plant
coefficients under a fixed pair and watches the closed-loop poles;
`fragility_mc` holds the plant and shakes the pair's own coefficients
instead.  Both report the full pole cloud so the failure geometry is
inspectable, not just the count.

Frequencies are nondimensional (rad per unit time of the scaled model).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .plant import position_plant_rows
from .plant import position_plant  # noqa: F401  (pfcbench/tracer.py patches this name here)
from .synth import candidate_stacks, encode
from .poly import roots_rows
from .sim import sampled, write_csv
from .tf import CompensatorPair, RationalTF, loop_rows, tf_rows
from .tf import closed_loop  # noqa: F401  (pfcbench/tracer.py patches this name here)

GRID_POINTS = 1000
GRID_W_MIN = 1e-2
GRID_W_MAX = 1e2
# one pole of McReport.to_json: [trial, re, im] at json.dumps(indent=2)'s depth
_JSON_POLE = "    [\n      %d,\n      %r,\n      %r\n    ],\n"


@dataclass
class BodeCurve:
    """Magnitude samples on a log frequency grid.

    near_axis_pole marks curves whose transfer function has a pole close
    enough to the evaluated stretch of the imaginary axis that the sampled
    magnitudes spike; values are reported as computed either way.
    """

    omega: np.ndarray
    mag_db: np.ndarray
    near_axis_pole: bool = False

    def __post_init__(self):
        self.omega, self.mag_db = sampled("omega", self.omega, "mag_db", self.mag_db)

    def to_csv(self, path) -> None:
        write_csv(path, "omega,mag_db", "%.17g,%.17g", np.column_stack([self.omega, self.mag_db]))


def bode(
    tf: RationalTF,
    w_min: float = GRID_W_MIN,
    w_max: float = GRID_W_MAX,
    n_points: int = GRID_POINTS,
) -> BodeCurve:
    """Sample 20*log10|tf(i*omega)| on a log-spaced grid.

    A pole within one grid step of the evaluated axis segment sets
    near_axis_pole; the curve itself is still the pointwise truth.
    """
    if not w_min > 0.0:
        raise ValueError("w_min must be positive")
    if not w_max > w_min:
        raise ValueError("w_max must exceed w_min")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    omega = np.logspace(math.log10(w_min), math.log10(w_max), n_points)
    vals = tf(1j * omega)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(vals))

    # relative grid step; a pole at sigma + i*w with |sigma| below one step
    # of |w| makes the sampled curve spike without ever hitting infinity
    step = (w_max / w_min) ** (1.0 / (n_points - 1)) - 1.0
    flagged = any(
        w_min * (1.0 - step) <= abs(p.imag) <= w_max * (1.0 + step)
        and abs(p.real) <= step * max(abs(p.imag), w_min)
        for p in tf.poles()
    )
    return BodeCurve(omega, mag_db, near_axis_pole=flagged)


# ---------------------------------------------------------------------------
# Monte Carlo studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McReport:
    """Outcome of one seeded perturbation study.

    pole_cloud carries every closed-loop pole of every trial, tagged by
    trial index, so unstable_count can always be re-derived from it.
    """

    trials: int
    unstable_count: int
    pole_cloud: tuple[tuple[int, complex], ...]
    seed: int
    sigma: float

    def __post_init__(self):
        if self.unstable_count > self.trials:
            raise ValueError("unstable_count cannot exceed trials")

    def to_json(self) -> str:
        """What json.dumps(indent=2) writes of the report, each pole a
        [trial, re, im] list; the cloud is formatted as one %-format."""
        head = {k: getattr(self, k) for k in ("trials", "unstable_count", "seed", "sigma")}
        text = json.dumps({**head, "pole_cloud": []}, indent=2)
        if not self.pole_cloud:
            return text
        rows = self._cloud_rows()
        body = (_JSON_POLE * len(rows)) % tuple(rows.ravel().tolist())
        # json spells the non-finite floats NaN, Infinity and -Infinity
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
        return text[: -len("[]\n}")] + "[\n" + body[: -len(",\n")] + "\n  ]\n}"

    def cloud_to_csv(self, path) -> None:
        write_csv(path, "trial,re,im", "%d,%.17g,%.17g", self._cloud_rows())

    def _cloud_rows(self) -> np.ndarray:
        """The cloud as rows (trial, re, im)."""
        a = np.array(self.pole_cloud, dtype=complex).reshape(-1, 2)
        return np.column_stack([a[:, 0].real, a[:, 1].real, a[:, 1].imag])


def _draws(per_trial: int, trials: int, sigma: float, seed: int) -> np.ndarray:
    """One row of ``per_trial`` N(0, sigma) numbers per trial.

    Trial t draws from ``default_rng([seed, t])``, bit for bit, so trial
    order, serial or parallel, cannot change any draw; the substreams'
    seed words come from one array pass over every trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be finite and nonnegative")
    return np.array([
        np.random.Generator(np.random.PCG64(_Words(w))).normal(0.0, sigma, per_trial)
        for w in _substream_words(seed, trials)
    ])


# numpy's SeedSequence: hash constants, pool size in uint32 words, xorshift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_POOL = 4
_XSHIFT = 16


class _Words(ISeedSequence):
    """A seed sequence whose state is known: one row of `_substream_words`, as PCG64 asks for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _substream_words(seed: int, trials: int) -> np.ndarray:
    """``SeedSequence([seed, t]).generate_state(4, np.uint64)`` for each trial t, one row each.

    SeedSequence's uint32 hashing, spelled out on arrays with one lane per
    trial: ``seed`` enters as its little-endian uint32 words, ``t`` as one.
    """
    entropy = [np.full(trials, w, dtype=np.uint32) for w in _seed_words(seed)]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(trials, np.uint32))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(pool[i % _POOL]) for i in range(8)], axis=1)
    # little-endian word pairs, as SeedSequence forms uint64 words
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seed_words(seed: int) -> list[int]:
    """``seed`` as little-endian uint32 words, with SeedSequence's errors."""
    try:
        n = operator.index(seed)
    except TypeError:
        raise TypeError("seed must be integer") from None
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its constant advances on each call."""
    const = init

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        v = v * np.uint32(const)
        return v ^ (v >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> _XSHIFT)


def _mc_report(den: np.ndarray, sigma: float, seed: int) -> McReport:
    """Verdicts and pole cloud of the trials' loop denominators, rows of ``den``.

    A trial with any root in the closed right half plane, the imaginary
    axis included, counts as unstable.  All roots and verdicts come from
    one `roots_rows` call.
    """
    if not np.all(np.any(den, axis=1)):
        raise ValueError("degenerate loop: closed-loop denominator vanished")
    poles, stable = roots_rows(den)
    if not all(map(len, poles)):
        raise ValueError("a nonzero constant has no roots")
    return McReport(
        trials=len(den),
        unstable_count=int(np.count_nonzero(~stable)),
        pole_cloud=tuple((trial, z) for trial, zs in enumerate(poles) for z in zs.tolist()),
        seed=seed,
        sigma=sigma,
    )


def robustness_mc(
    C: RationalTF,
    P: RationalTF,
    M: float = 0.3,
    trials: int = 1000,
    sigma: float = 0.02,
    seed: int = 0,
) -> McReport:
    """Plant-side stability margin under multiplicative coefficient noise.

    Each trial scales the four physical plant coefficients by independent
    (1 + N(0, sigma)) factors, rebuilds the position plant, and checks the
    closed-loop poles under the fixed pair.  A trial with any pole in the
    closed right half plane counts as unstable.
    """
    G = position_plant_rows(1.0 + _draws(4, trials, sigma, seed), M)
    return _mc_report(loop_rows(G, tf_rows(C), tf_rows(P)), sigma, seed)


def fragility_mc(
    G: RationalTF,
    C: RationalTF,
    P: RationalTF,
    trials: int = 1000,
    sigma: float = 0.02,
    seed: int = 0,
) -> McReport:
    """Pair-side robustness: perturb the compensator coefficients instead.

    C and P must already be in the normalized form with unit denominator
    constant terms; the study multiplies each of the 4n+2 free coefficients
    by (1 + N(0, sigma)) per trial, the structural 1's staying put, and
    counts trials whose closed loop goes unstable.
    """
    for t in (C, P):
        if abs(t.den.coeffs[0] - 1.0) > 1e-12:
            raise ValueError(
                "fragility study needs the normalized pair form with unit "
                "constant denominator term"
            )
    vec = encode(CompensatorPair(C, P))
    q = np.asarray(vec.q)
    rows = q * (1.0 + _draws(q.size, trials, sigma, seed))
    den = loop_rows(tf_rows(G), *candidate_stacks(rows, vec.n))
    return _mc_report(den, sigma, seed)
