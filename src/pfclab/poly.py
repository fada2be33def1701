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

# Newton steps per root at most: simple roots converge in one step,
# clustered roots improve linearly.
NEWTON_STEPS = 12

# Rows per Newton block in `roots_batch`: a block's temporaries stay near a
# megabyte at degree 10, whatever the batch size.
NEWTON_ROWS = 256


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
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        """Monic polynomial with the given roots.

        The root list must be closed under conjugation within CONJUGATE_TOL;
        conjugate pairs are folded into real quadratic factors so the result
        has exactly real coefficients.
        """
        p = cls((1.0,))
        s = cls((0.0, 1.0))
        for z, paired in _pair_conjugates([complex(r) for r in roots]):
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

        The one-row case of `roots_batch`: exact zero roots are split off
        first, so a plant with a double pole at the origin reports them as
        exactly 0, and the rest are polished companion-matrix eigenvalues.
        """
        return roots_batch([self])[0]

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


def roots_batch(polys: Sequence[Polynomial]) -> list[np.ndarray]:
    """Roots of each polynomial, as `Polynomial.roots` documents them.

    Exact zeros at the origin are split off row by row.  The remaining
    factors are grouped by degree; each group takes one eigenvalue call on
    its stack of companion matrices and an array Newton pass, and a row's
    roots do not depend on the other rows in the batch.
    """
    out: list = [None] * len(polys)
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(polys):
        if p.is_zero:
            raise ValueError("undefined roots: the zero polynomial")
        if p.degree == 0:
            raise ValueError("a nonzero constant has no roots")
        n_zero = 0
        while p.coeffs[n_zero] == 0.0:
            n_zero += 1
        groups.setdefault(p.degree - n_zero, []).append((i, n_zero))
    for n, rows in groups.items():
        if n == 0:
            for i, n_zero in rows:
                out[i] = np.zeros(n_zero, dtype=complex)
            continue
        c = np.array([polys[i].coeffs[n_zero:] for i, n_zero in rows])
        c = c / c[:, -1:]
        raw = np.linalg.eigvals(_companions(c))
        # polished in blocks of rows, which bounds the temporaries
        z = np.concatenate([
            _newton(c[k : k + NEWTON_ROWS], raw[k : k + NEWTON_ROWS])
            for k in range(0, len(c), NEWTON_ROWS)
        ])
        for (i, n_zero), row in zip(rows, z):
            found = [0j] * n_zero
            for r, paired in _pair_conjugates(row.tolist()):
                found.extend((r, r.conjugate()) if paired else (r,))
            out[i] = np.sort_complex(np.asarray(found, dtype=complex))
    return out


def _newton(c: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Newton refinement of each row's eigenvalues ``raw`` with an improvement guard.

    Each root takes Newton steps while its residual keeps dropping, at most
    NEWTON_STEPS.  The arithmetic is the scalar complex arithmetic of
    CPython spelled out on real and imaginary float64 arrays, so a row gets
    the same bits alone or in any batch.  A row whose eigenvalues are all
    real stays in real arithmetic, as a single eigenvalue call returns them.
    """
    n = c.shape[1] - 1
    real = np.all(raw.imag == 0.0, axis=1)[:, None]
    # highest degree first for Horner; + 0.0 folds -0.0 as Polynomial does
    c_hi = c[:, ::-1] + 0.0
    dc_hi = np.arange(n, 0, -1) * c_hi[:, :n] + 0.0
    zr = raw.real.copy()
    zi = np.where(real, 0.0, raw.imag)
    # every root is stepped every round and only live ones keep the result,
    # so discarded lanes may divide by zero or overflow without consequence
    with np.errstate(all="ignore"):
        pr, pi = _horner(c_hi, zr, zi)
        fr = np.hypot(pr, pi)
        live = np.ones(zr.shape, dtype=bool)
        for _ in range(NEWTON_STEPS):
            dr, di = _horner(dc_hi, zr, zi)
            live &= (dr != 0.0) | (di != 0.0)
            qr, qi = _cdiv(pr, pi, dr, di)
            # real rows divide in real arithmetic, as Python floats would
            cr = zr - np.where(real, pr / dr, qr)
            ci = zi - np.where(real, 0.0, qi)
            pcr, pci = _horner(c_hi, cr, ci)
            fc = np.hypot(pcr, pci)
            live &= np.isfinite(fc) & ~(fc >= fr)
            if not live.any():
                break
            zr, zi = np.where(live, cr, zr), np.where(live, ci, zi)
            pr, pi = np.where(live, pcr, pr), np.where(live, pci, pi)
            fr = np.where(live, fc, fr)
    z = np.empty(zr.shape, dtype=complex)
    z.real, z.imag = zr, zi
    return z


def _companions(c: np.ndarray) -> np.ndarray:
    """Stack of companion matrices of monic rows ``c`` (ascending)."""
    b, m = c.shape
    comp = np.zeros((b, m - 1, m - 1))
    comp[:, 0, :] = -c[:, -2::-1]
    comp[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
    return comp


def _horner(c_hi: np.ndarray, zr: np.ndarray, zi: np.ndarray):
    """Row k's polynomial at each zr[k] + i*zi[k], rounded as CPython's complex Horner."""
    ar = np.zeros_like(zr)
    ai = np.zeros_like(zr)
    for c in c_hi.T[:, :, None]:
        ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr + 0.0
    return ar, ai


def _cdiv(ar, ai, br, bi):
    """(ar + i*ai) / (br + i*bi) by Smith's method, rounding as numpy's complex division."""
    big = np.abs(br) >= np.abs(bi)
    rat = np.where(big, bi / br, br / bi)
    scl = 1.0 / np.where(big, br + bi * rat, bi + br * rat)
    qr = np.where(big, ar + ai * rat, ar * rat + ai) * scl
    qi = np.where(big, ai - ar * rat, ai * rat - ar) * scl
    return qr, qi


def _pair_conjugates(roots: Sequence[complex]) -> list[tuple[complex, bool]]:
    """In-order nearest-conjugate pairing, one ``(z, paired)`` per group.

    A near-real root comes back snapped to the real axis, a conjugate pair
    as its average z (the partner being conj(z)), and a non-real root with
    no partner within CONJUGATE_TOL as itself, unpaired.
    """
    tol = CONJUGATE_TOL
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
