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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .plant import PerturbedPlantParams, position_plant
from .synth import CoeffVector, decode, encode
from .poly import Polynomial, hurwitz_from_roots, roots_batch
from .tf import CompensatorPair, RationalTF, loop_denominator
from .tf import closed_loop  # noqa: F401  (pfcbench/tracer.py patches this name here)

GRID_POINTS = 1000
GRID_W_MIN = 1e-2
GRID_W_MAX = 1e2


@dataclass(frozen=True)
class BodeCurve:
    """Magnitude (and optionally phase) samples on a log frequency grid.

    near_axis_pole marks curves whose transfer function has a pole close
    enough to the evaluated stretch of the imaginary axis that the sampled
    magnitudes spike; values are reported as computed either way.
    """

    omega: tuple[float, ...]
    mag_db: tuple[float, ...]
    phase_deg: tuple[float, ...] | None = None
    near_axis_pole: bool = False

    def __post_init__(self):
        om = tuple(float(w) for w in self.omega)
        mg = tuple(float(m) for m in self.mag_db)
        if len(om) != len(mg):
            raise ValueError("omega and mag_db must have equal length")
        if any(b <= a for a, b in zip(om, om[1:])):
            raise ValueError("omega grid must be strictly increasing")
        ph = self.phase_deg
        if ph is not None:
            ph = tuple(float(p) for p in ph)
            if len(ph) != len(om):
                raise ValueError("phase_deg length must match omega")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "mag_db", mg)
        object.__setattr__(self, "phase_deg", ph)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("omega,mag_db\n")
            for w, m in zip(self.omega, self.mag_db):
                fh.write(f"{w:.17g},{m:.17g}\n")


def bode(
    tf: RationalTF,
    w_min: float = GRID_W_MIN,
    w_max: float = GRID_W_MAX,
    n_points: int = GRID_POINTS,
) -> BodeCurve:
    """Sample 20*log10|tf(i*omega)| on a log-spaced grid.

    Phase is the principal value in degrees, not unwrapped.  A pole within
    one grid step of the evaluated axis segment sets near_axis_pole; the
    curve itself is still the pointwise truth.
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
    phase = np.degrees(np.angle(vals))

    # relative grid step; a pole at sigma + i*w with |sigma| below one step
    # of |w| makes the sampled curve spike without ever hitting infinity
    step = (w_max / w_min) ** (1.0 / (n_points - 1)) - 1.0
    flagged = False
    for p in tf.poles():
        w = abs(p.imag)
        if w_min * (1.0 - step) <= w <= w_max * (1.0 + step) and abs(
            p.real
        ) <= step * max(w, w_min):
            flagged = True
            break
    return BodeCurve(
        omega=tuple(omega),
        mag_db=tuple(mag_db),
        phase_deg=tuple(phase),
        near_axis_pole=flagged,
    )


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

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "unstable_count": self.unstable_count,
            "seed": self.seed,
            "sigma": self.sigma,
            "pole_cloud": [
                [t, z.real, z.imag] for t, z in self.pole_cloud
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def cloud_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("trial,re,im\n")
            for t, z in self.pole_cloud:
                fh.write(f"{t},{z.real:.17g},{z.imag:.17g}\n")


def _mc_study(
    trial_den: Callable[[np.ndarray], Polynomial],
    draws: int, trials: int, sigma: float, seed: int,
) -> McReport:
    """Seeded trial loop shared by both studies.

    Each trial maps ``draws`` N(0, sigma) numbers to a perturbed loop
    denominator; a trial with any root in the closed right half plane, the
    imaginary axis included, counts as unstable.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be finite and nonnegative")
    # substream keyed by (seed, trial) so trial order, serial or parallel,
    # cannot change any draw
    dens = [
        trial_den(np.random.default_rng([seed, trial]).normal(0.0, sigma, draws))
        for trial in range(trials)
    ]
    cloud: list[tuple[int, complex]] = []
    unstable = 0
    for trial, (den, poles) in enumerate(zip(dens, roots_batch(dens))):
        if not hurwitz_from_roots(den, poles):
            unstable += 1
        cloud.extend((trial, complex(z)) for z in poles)
    return McReport(
        trials=trials,
        unstable_count=unstable,
        pole_cloud=tuple(cloud),
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

    def trial_den(r: np.ndarray) -> Polynomial:
        params = PerturbedPlantParams(
            A0=1.0 + r[0], A1=1.0 + r[1], A2=1.0 + r[2], A3=1.0 + r[3]
        )
        return loop_denominator(position_plant(params, M), C, P)

    return _mc_study(trial_den, 4, trials, sigma, seed)


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

    def trial_den(s: np.ndarray) -> Polynomial:
        perturbed = decode(CoeffVector(q * (1.0 + s), vec.n))
        return loop_denominator(G, perturbed.C, perturbed.P)

    return _mc_study(trial_den, q.size, trials, sigma, seed)
