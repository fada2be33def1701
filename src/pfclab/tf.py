"""Rational transfer functions and loop topology.

The central object is the two-compensator loop: a feedback compensator C
acting on the augmented measurement Z = Y + P*v, where P is a parallel
feedforward branch driven by the control signal v.  With plant G the loop
transfer from reference to output is

    H = n_G d_C d_P / loop_denominator(G, C, P)

and every noise channel below shares that denominator.  No pole-zero
cancellation is ever performed: exact cancellations can hide unobservable
modes, so numerators and denominators are kept as constructed.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

# Real/RHP classification tolerance for the strong-stabilizability test.
PIP_TOL = 1e-7


def _as_polynomial(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial(x)


def _json_entry(d: dict, key: str):
    if key not in d:
        raise ValueError(f"JSON object has no {key!r} entry")
    return d[key]


@dataclass(frozen=True)
class RationalTF:
    """Ratio of two real polynomials, ascending coefficients.

    Construct from Polynomials or plain coefficient sequences:
    ``RationalTF([1.0], [1.0, 1.0])`` is 1/(s+1).
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        num = _as_polynomial(num)
        den = _as_polynomial(den)
        if den.is_zero:
            raise ValueError("transfer function denominator is zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- structure ------------------------------------------------------

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def poles(self) -> np.ndarray:
        if self.den.degree < 1:
            return np.array([], dtype=complex)
        return self.den.roots()

    def zeros(self) -> np.ndarray:
        if self.num.degree < 1:
            return np.array([], dtype=complex)
        return self.num.roots()

    def is_stable(self) -> bool:
        """Strict Hurwitz denominator; no cancellation credit."""
        return self.den.is_hurwitz()

    def __call__(self, s):
        return self.num(s) / self.den(s)

    # -- arithmetic helpers ---------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return RationalTF(self.num * float(other), self.den)
        return series(self, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RationalTF(num={list(self.num.coeffs)}, den={list(self.den.coeffs)})"

    # -- interchange ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RationalTF":
        coeffs = {}
        for key in ("num", "den"):
            entry = _json_entry(d, key)
            if not isinstance(entry, list):
                raise ValueError(f"JSON entry {key!r} must be a list of coefficients")
            coeffs[key] = entry
        return cls(**coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "RationalTF":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class CompensatorPair:
    """Feedback compensator C and parallel feedforward compensator P.

    The container itself does not enforce stability or properness; the
    verification report in :mod:`pfclab.synth` checks those claims.
    """

    C: RationalTF
    P: RationalTF
    label: str = ""

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "C": self.C.to_json_dict(),
            "P": self.P.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CompensatorPair":
        blocks = {}
        for key in ("C", "P"):
            entry = _json_entry(d, key)
            if not isinstance(entry, dict):
                raise ValueError(f"JSON entry {key!r} must be an object")
            blocks[key] = RationalTF.from_json_dict(entry)
        return cls(label=str(d.get("label", "")), **blocks)


@dataclass(frozen=True)
class StabilizabilityVerdict:
    """Outcome of the parity test for stabilizability by stable compensators.

    ``checks`` holds one (real closed-RHP zero, count of real closed-RHP
    poles between it and the next such zero) pair per zero, in increasing
    order; ``math.inf`` stands for the zero at infinity of a strictly
    proper plant, and the last zero counts 0.  It is empty when fewer than
    two zeros leave nothing to interlace.  Any odd count blocks
    stabilization.
    """

    strongly_stabilizable: bool
    checks: tuple[tuple[float, int], ...]

    @property
    def offending(self) -> tuple[tuple[float, int], ...]:
        return tuple((z, c) for z, c in self.checks if c % 2 == 1)


# ---------------------------------------------------------------------------
# loop construction
# ---------------------------------------------------------------------------


def loop_denominator(G: RationalTF, C: RationalTF, P: RationalTF) -> Polynomial:
    """Loop denominator d_C d_G d_P + n_C n_P d_G + n_C n_G d_P.

    Exact and returned as computed, even when leading coefficients cancel;
    never warns.  Raises ValueError when it vanishes identically.
    """
    den = C.den * G.den * P.den + C.num * P.num * G.den + C.num * G.num * P.den
    if den.is_zero:
        raise ValueError("degenerate loop: closed-loop denominator vanished")
    return den


def closed_loop(G: RationalTF, C: RationalTF, P: RationalTF) -> RationalTF:
    """Reference-to-output transfer of the two-compensator loop.

    Exact polynomial assembly; if the leading coefficients of the three
    denominator terms cancel, the degree drop is reported through a warning
    but the result is returned as computed.
    """
    num = G.num * C.den * P.den
    den = loop_denominator(G, C, P)
    expected = C.den.degree + G.den.degree + P.den.degree
    if den.degree < expected:
        warnings.warn(
            f"closed-loop denominator degree dropped from {expected} to "
            f"{den.degree}: leading coefficients cancelled",
            stacklevel=2,
        )
    return RationalTF(num, den)


def angular_closed_loop(
    F: RationalTF, G: RationalTF, C: RationalTF, P: RationalTF
) -> RationalTF:
    """Pendulum angle response of the position-feedback loop.

    Valid only for a consistent plant pair: the position plant denominator
    must equal -s^2 times the angle plant denominator (the cart position is
    the double integral of the force imbalance that also drives the angle).
    """
    s2_dF = Polynomial((0.0, 0.0, 1.0)) * F.den
    mismatch = G.den + s2_dF
    if any(abs(c) > 1e-12 for c in mismatch.coeffs):
        raise ValueError(
            "inconsistent plant pair: position denominator is not -s^2 "
            "times the angle denominator"
        )
    num = -1.0 * (F.num * C.den * P.den * Polynomial((0.0, 0.0, 1.0)))
    return RationalTF(num, loop_denominator(G, C, P))


# ---------------------------------------------------------------------------
# stabilizability
# ---------------------------------------------------------------------------


def pip_check(G: RationalTF, tol: float = PIP_TOL) -> StabilizabilityVerdict:
    """Parity interlacing test: can any *stable* compensator stabilize G?

    G is strongly stabilizable iff between every two consecutive real zeros
    in the closed right half plane, counting the zero at infinity when G is
    strictly proper, lies an even number of real poles, with multiplicity
    (Youla, Bongiorno & Lu, Automatica 1974).  Zeros and poles at the
    origin belong to the closed right half plane.  Nothing is cancelled.
    """
    if G.is_zero:
        raise ValueError("stabilizability undefined for the zero plant")

    def real_closed_rhp(arr: np.ndarray) -> list[float]:
        keep = [
            float(r.real)
            for r in arr
            if r.real > -tol and abs(r.imag) <= tol * (1.0 + abs(r))
        ]
        return sorted(keep)

    zeros = real_closed_rhp(G.zeros())
    if G.is_strictly_proper:
        zeros.append(math.inf)
    poles = real_closed_rhp(G.poles())
    checks: tuple[tuple[float, int], ...] = ()
    if len(zeros) >= 2:
        checks = tuple(
            (z, sum(1 for p in poles if z < p < z_next))
            for z, z_next in zip(zeros, zeros[1:])
        ) + ((zeros[-1], 0),)
    ok = all(c % 2 == 0 for _, c in checks)
    return StabilizabilityVerdict(strongly_stabilizable=ok, checks=checks)


# ---------------------------------------------------------------------------
# noise channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseChannelSet:
    """Transfer functions from the six loop injection points to the output.

    Injection points, one per signal node of the loop: e1 at the reference
    summing junction, e2 at the plant input (actuator noise), e3 at the
    plant output (sensor noise), e4 at the feedforward branch output, e5 at
    the augmented-measurement junction, e6 at the feedback compensator
    output.  All six share one denominator by construction.
    """

    channels: tuple[RationalTF, ...]
    common_den: Polynomial


def noise_channels(G: RationalTF, C: RationalTF, P: RationalTF) -> NoiseChannelSet:
    """Six additive-noise transfer functions over the common loop denominator."""
    den = loop_denominator(G, C, P)
    inner = C.den * P.den + C.num * P.num  # 1 + C*P cleared of fractions
    e1 = G.num * C.den * P.den
    e2 = G.num * inner
    e3 = G.den * inner
    e4 = -1.0 * (C.num * G.num * P.den)
    e5 = e4
    e6 = -1.0 * e1
    chans = tuple(RationalTF(n, den) for n in (e1, e2, e3, e4, e5, e6))
    return NoiseChannelSet(channels=chans, common_den=den)


# ---------------------------------------------------------------------------
# block algebra
# ---------------------------------------------------------------------------


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


def constant(c: float) -> RationalTF:
    return RationalTF((float(c),), (1.0,))


def tf_equal_up_to_scale(
    a: RationalTF, b: RationalTF, rtol: float = 1e-9
) -> bool:
    """Equality of a and b as rational functions: cross-multiplied match.

    Compares num_a*den_b against num_b*den_a up to one scalar factor, which
    makes the test insensitive to unreduced common polynomial factors on
    either side.
    """
    lhs = (a.num * b.den).coeffs
    rhs = (b.num * a.den).coeffs
    la = np.asarray(lhs)
    rb = np.asarray(rhs)
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
