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

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .poly import Polynomial, trimmed_lengths

# numpy's correlate sums the full-overlap outputs of `np.convolve` in a plain
# C loop for kernels up to this length, and in its dot function beyond it.
SMALL_KERNEL = 11


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
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    # -- interchange ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RationalTF":
        coeffs = {}
        for key in ("num", "den"):
            entry = _json_entry(d, key)
            numbers = isinstance(entry, list) and all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in entry
            )
            if not numbers:
                raise ValueError(f"JSON entry {key!r} must be a list of numbers")
            coeffs[key] = entry
        return cls(**coeffs)


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
        label = d.get("label", "")
        if not isinstance(label, str):
            raise ValueError("JSON entry 'label' must be a string")
        return cls(label=label, **blocks)


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


# ---------------------------------------------------------------------------
# loop construction
# ---------------------------------------------------------------------------


def loop_denominator(G: RationalTF, C: RationalTF, P: RationalTF) -> Polynomial:
    """Loop denominator d_C d_G d_P + n_C n_P d_G + n_C n_G d_P.

    The one-row case of `loop_rows`.  Exact and returned as computed, even
    when leading coefficients cancel; never warns.  Raises ValueError when
    it vanishes identically.
    """
    den = Polynomial(loop_rows(tf_rows(G), tf_rows(C), tf_rows(P))[0])
    if den.is_zero:
        raise ValueError("degenerate loop: closed-loop denominator vanished")
    return den


def tf_rows(tf: RationalTF):
    """(num, den) of ``tf`` as one-row stacks, which `loop_rows` shares among all loops."""
    return [tf.num.coeffs], [tf.den.coeffs]


def loop_rows(G, C, P) -> np.ndarray:
    """The loop denominator of each of a stack of loops.

    G, C and P are (num, den) pairs of 2-D stacks of ascending coefficient
    rows, one row per loop; a stack of one row serves every loop, and any
    other row count must be the same in every stack (ValueError otherwise).
    Each loop's three products d_C d_G d_P, n_C n_P d_G and n_C n_G d_P are
    associated left to right and formed for all rows at once by `_product`,
    each operand row read up to its last nonzero entry.  They round as
    `np.convolve` and so as `Polynomial` products do: with the shorter
    operand of length k as the kernel, the k - 1 partial-overlap outputs at
    each end are fused BLAS dot chains, and the full-overlap outputs plain
    left-to-right sums when k <= SMALL_KERNEL and dot chains beyond
    (`_convolve`).  The products are summed over the stacked rows.  Returns
    one row per loop, zero-padded to a common width; a loop whose
    denominator vanishes comes back as a zero row, and nothing is warned.
    """
    # rows of unit stride: numpy's dot function hands BLAS the row stride,
    # and ddot rounds otherwise on strided rows
    tfs = [[np.asarray(x, dtype=float, order="C") + 0.0 for x in tf] for tf in (G, C, P)]
    width = sum(max(x.shape[1] for x in tf) for tf in tfs) - 2
    counts = {len(x) for tf in tfs for x in tf} - {1}
    if len(counts) > 1:
        raise ValueError(
            f"stacks of {' and '.join(map(str, sorted(counts)))} rows: every "
            "stack needs one row or the same row count as the others"
        )
    loops = counts.pop() if counts else 1
    (ng, dg), (nc, dc), (npp, dp) = tfs
    den = np.zeros((loops, width))
    # an overflowed product may hold inf or NaN, and the sum inf - inf;
    # callers refuse such a row as non-finite, so nothing need warn
    with np.errstate(over="ignore", invalid="ignore"):
        # ((0.0 + t1) + t2) + t3: the 0.0 folds -0.0 as Polynomial does
        for prod in (
            _product(_product(dc, dg), dp),
            _product(_product(nc, npp), dg),
            _product(_product(nc, ng), dp),
        ):
            den[:, : prod.shape[1]] += prod
    return den


def _product(x, y):
    """Row products of the zero-padded stacks ``x`` and ``y``, zero-padded.

    Row r of a stack holds a polynomial up to its last nonzero entry
    (`trimmed_lengths`); a stack of one row serves every row of the other.
    The rows of one pair of lengths take one `_convolve` call on the
    trimmed rows, so each product row holds the bits `Polynomial.__mul__`
    gives, zero tail and all.
    """
    lx, ly = trimmed_lengths(x), trimmed_lengths(y)
    key = lx * (y.shape[1] + 1) + ly  # one key per pair of lengths
    out = np.zeros((len(key), x.shape[1] + y.shape[1] - 1))
    for g in set(key.tolist()):
        at = np.flatnonzero(key == g)
        m, k = divmod(g, y.shape[1] + 1)
        out[at, : m + k - 1] = _convolve(
            x[:, :m] if len(x) == 1 else x[at, :m],
            y[:, :k] if len(y) == 1 else y[at, :k],
        )
    return out


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.convolve(a[r], b[r])`` for each row r, bit for bit.

    One row of ``a`` or ``b`` serves every row of the other.  `np.convolve`
    correlates the longer operand (``a`` on a tie) with the reversed
    shorter one, the kernel of length k.  Its k - 1 partial-overlap outputs
    at each end go through numpy's dot function, which is BLAS ``ddot``
    (a fused multiply-add chain on short windows); `np.vecdot` calls that
    same function, here on the same exact windows.  The full-overlap outputs are the plain
    left-to-right sums ``0.0 + a[i] k[0] + a[i+1] k[1] + ...`` of numpy's
    small-kernel loop up to SMALL_KERNEL, which array operations reproduce,
    and dot function calls beyond it.
    """
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    m, k = a.shape[1], b.shape[1]
    rev = b[:, ::-1].copy()  # numpy's dot function calls BLAS on positive strides only
    p = np.empty((max(len(a), len(b)), m + k - 1))
    for i in range(k - 1):
        p[:, i] = np.vecdot(a[:, : i + 1], rev[:, k - 1 - i :])
        p[:, m + i] = np.vecdot(a[:, m - k + 1 + i :], rev[:, : k - 1 - i])
    full = p[:, k - 1 : m]
    if k > SMALL_KERNEL:
        full[...] = np.vecdot(sliding_window_view(a, k, axis=1), rev[:, None, :])
    else:
        full[...] = 0.0
        for j in range(k):
            full += a[:, j : j + m - k + 1] * rev[:, j : j + 1]
    return p


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


def pip_check(G: RationalTF) -> StabilizabilityVerdict:
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
        # roots come from `roots_stack`, whose `_snap_real` has already put
        # every near-real root exactly on the axis and a root at the origin at 0
        return sorted(float(r.real) for r in arr if r.imag == 0.0 and r.real >= 0.0)

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


def noise_channels(G: RationalTF, C: RationalTF, P: RationalTF) -> tuple[RationalTF, ...]:
    """Transfer functions from the six loop injection points to the output.

    Injection points, one per signal node of the loop: e1 at the reference
    summing junction, e2 at the plant input (actuator noise), e3 at the
    plant output (sensor noise), e4 at the feedforward branch output, e5 at
    the augmented-measurement junction, e6 at the feedback compensator
    output.  All six share one loop denominator object.
    """
    den = loop_denominator(G, C, P)
    inner = C.den * P.den + C.num * P.num  # 1 + C*P cleared of fractions
    e1 = G.num * C.den * P.den
    e2 = G.num * inner
    e3 = G.den * inner
    e4 = -1.0 * (C.num * G.num * P.den)
    e5 = e4
    e6 = -1.0 * e1
    return tuple(RationalTF(n, den) for n in (e1, e2, e3, e4, e5, e6))
