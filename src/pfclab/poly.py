"""Real-coefficient polynomials in the Laplace variable.

Coefficients are stored in ascending powers: ``coeffs[k]`` multiplies
``s**k``.  Root sets are numpy complex arrays, conjugate-closed, with
multiplicity expressed by repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance for pairing a root with its conjugate during symmetrization.
CONJUGATE_TOL = 1e-6


@dataclass(frozen=True)
class Polynomial:
    """Immutable real polynomial; the zero polynomial is ``(0.0,)``.

    Trailing coefficients are trimmed only when exactly zero: user-supplied
    coefficients are treated as exact data, never rounded away.  NaN and
    infinite coefficients are rejected.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        c = [float(x) + 0.0 for x in coeffs]  # +0.0 folds -0.0 into 0.0
        if not all(map(math.isfinite, c)):
            raise ValueError("polynomial coefficients must be finite")
        if not c:
            c = [0.0]
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(c[:n]))

    @classmethod
    def from_roots(
        cls,
        roots: Sequence[complex],
        leading: float = 1.0,
        tol: float = CONJUGATE_TOL,
    ) -> "Polynomial":
        """Monic-times-``leading`` polynomial with the given roots.

        The root list must be closed under conjugation within ``tol``;
        conjugate pairs are folded into real quadratic factors so the result
        has exactly real coefficients.
        """
        p = cls((float(leading),))
        s = cls((0.0, 1.0))
        for z, paired in _pair_conjugates([complex(r) for r in roots], tol):
            if paired:
                # modulus squared without the hypot round trip, exact for exact inputs
                p = p * cls((z.real * z.real + z.imag * z.imag, -2.0 * z.real, 1.0))
            elif z.imag == 0.0:
                p = p * (s - z.real)
            else:
                raise ValueError(
                    "root set is not closed under conjugation; cannot build "
                    "a real polynomial"
                )
        return p

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Polynomial(tuple(c * float(other) for c in self.coeffs))
        other = _as_poly(other)
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Long division: self = q * other + r with deg(r) < deg(other)."""
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = np.asarray(self.coeffs, dtype=float).copy()
        d = np.asarray(other.coeffs, dtype=float)
        dn = len(d) - 1
        if len(rem) - 1 < dn:
            return Polynomial((0.0,)), Polynomial(rem)
        quot = np.zeros(len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            q = rem[k] / d[dn]
            quot[k - dn] = q
            rem[k - dn : k + 1] -= q * d
        return Polynomial(quot), Polynomial(rem[:dn] if dn else [0.0])

    def __call__(self, s):
        """Horner evaluation; accepts scalars or numpy arrays."""
        acc = np.zeros_like(np.asarray(s), dtype=complex) if np.ndim(s) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    # ------------------------------------------------------------------
    # roots and stability
    # ------------------------------------------------------------------

    def roots(self) -> np.ndarray:
        """All complex roots, with multiplicity, sorted by (real, imag).

        Exact zero roots (vanishing low-order coefficients) are split off
        first, so a plant with a double pole at the origin reports it as
        exactly 0.  The rest come from balanced companion-matrix eigenvalues
        polished by Newton steps and conjugate-symmetrized.
        """
        if self.is_zero:
            raise ValueError("undefined roots: the zero polynomial")
        if self.degree == 0:
            raise ValueError("a nonzero constant has no roots")
        c = np.asarray(self.coeffs, dtype=float)
        n_zero = 0
        while c[n_zero] == 0.0:
            n_zero += 1
        zeros_at_origin = np.zeros(n_zero, dtype=complex)
        c = c[n_zero:]
        if len(c) == 1:
            return zeros_at_origin
        c = c / c[-1]
        n = len(c) - 1
        comp = np.eye(n, k=-1)
        comp[0, :] = -c[-2::-1]
        raw = np.linalg.eigvals(comp)
        # Highest degree first for Horner; + 0.0 folds -0.0 as Polynomial does.
        c_hi = [x + 0.0 for x in c[::-1].tolist()]
        dc_hi = [k * x + 0.0 for k, x in zip(range(n, 0, -1), c_hi)]
        polished = [_newton_polish(c_hi, dc_hi, r) for r in raw.tolist()]
        out = zeros_at_origin.tolist()
        for z, paired in _pair_conjugates(polished, CONJUGATE_TOL):
            out.extend((z, z.conjugate()) if paired else (z,))
        return np.sort_complex(np.asarray(out, dtype=complex))

    def rightmost_real_part(self) -> float:
        """Largest real part over all roots."""
        if self.degree < 1:
            raise ValueError("rightmost real part needs at least one root")
        return float(np.max(self.roots().real))

    def is_hurwitz(self) -> bool:
        """True iff every root lies strictly in the open left half plane.

        A nonzero constant is vacuously Hurwitz; the zero polynomial is an
        error.
        """
        if self.is_zero:
            raise ValueError("stability undefined for the zero polynomial")
        if self.degree == 0:
            return True
        return bool(np.all(self.roots().real < 0.0))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0.0 and self.degree > 0:
                continue
            if k == 0:
                terms.append(f"{c:g}")
            elif k == 1:
                terms.append(f"{c:g}*s")
            else:
                terms.append(f"{c:g}*s^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return Polynomial((float(x),))
    raise TypeError(f"cannot interpret {type(x).__name__} as Polynomial")


def _newton_polish(c_hi: list, dc_hi: list, r: complex, max_steps: int = 12) -> complex:
    """Newton refinement with an improvement guard.

    Simple roots converge in one step; clustered roots improve linearly, so
    a few extra steps are allowed as long as the residual keeps dropping.
    ``c_hi`` and ``dc_hi`` are the polynomial and its derivative, highest
    degree first.  Python numbers are used: they round as numpy scalars do
    (division via `_cdiv`) at a fraction of the cost.
    """
    pr = _horner(c_hi, r)
    fr = abs(pr)
    for _ in range(max_steps):
        dfr = _horner(dc_hi, r)
        if dfr == 0:
            break
        cand = r - (_cdiv(pr, dfr) if isinstance(dfr, complex) else pr / dfr)
        pc = _horner(c_hi, cand)
        fc = abs(pc)
        if not math.isfinite(fc) or fc >= fr:
            break
        r, pr, fr = cand, pc, fc
    return r


def _horner(c_hi: list[float], z):
    acc = 0.0
    for c in c_hi:
        acc = acc * z + c
    return acc


def _cdiv(a: complex, b: complex) -> complex:
    """a / b by Smith's method, rounding as numpy's complex division does."""
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _pair_conjugates(roots: Sequence[complex], tol: float) -> list[tuple[complex, bool]]:
    """In-order nearest-conjugate pairing, one ``(z, paired)`` per group.

    A near-real root comes back snapped to the real axis, a conjugate pair
    as its average z (the partner being conj(z)), and a non-real root with
    no partner within ``tol`` as itself, unpaired.
    """
    rts = list(roots)
    used = [False] * len(rts)
    out: list[tuple[complex, bool]] = []
    for i, r in enumerate(rts):
        if used[i]:
            continue
        if abs(r.imag) <= tol * (1.0 + abs(r)):
            out.append((complex(r.real, 0.0), False))
            continue
        want = r.conjugate()
        best_j, best_d = -1, math.inf
        for j in range(i + 1, len(rts)):
            if used[j]:
                continue
            d = abs(want - rts[j])
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= tol * (1.0 + abs(r)):
            used[best_j] = True
            out.append((0.5 * (r + rts[best_j].conjugate()), True))
        else:
            out.append((r, False))
    return out
