"""Real-coefficient polynomials in the Laplace variable.

Coefficients are stored in ascending powers: ``coeffs[k]`` multiplies
``s**k``.  Root sets are numpy complex arrays, conjugate-closed, with
multiplicity expressed by repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# Tolerance for pairing a root with its conjugate during symmetrization.
CONJUGATE_TOL = 1e-6

# `hurwitz_stack` trusts the sign of the rightmost float real part only
# beyond this margin, relative to 1 + the largest root modulus; a root of
# multiplicity m on the axis comes out about eps**(1/m) off it (4e-6 at m = 3).
# Closer in it runs the exact Routh array, which takes about 0.5 ms at degree
# 10, some five times a whole Monte Carlo trial.
HURWITZ_MARGIN = 1e-4

# Newton steps per root at most: simple roots converge in one step,
# clustered roots improve linearly.
NEWTON_STEPS = 12

# Rows per Newton block in `roots_stack`: a block's temporaries stay near a
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
        try:
            c = [float(x) + 0.0 for x in coeffs]  # +0.0 folds -0.0 into 0.0
        except OverflowError:  # an integer past the largest double, as 1e400 reads
            c = [math.inf]
        if not all(map(math.isfinite, c)):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(trim_trailing_zeros(c or [0.0])))

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        """Monic polynomial with the given roots.

        The root list must be closed under conjugation within CONJUGATE_TOL.
        Near-real roots go onto the real axis as `roots_stack` puts them,
        and the lower-half roots then meet the upper-half ones in one sorted
        array step.  Each pair becomes the real quadratic of its conjugate
        average, at the place of its first member, and the factors multiply
        in input order, so the result has exactly real coefficients.
        """
        z = _snap_real(np.array(roots, dtype=complex).reshape(-1))
        up, lo = np.flatnonzero(z.imag > 0.0), np.flatnonzero(~(z.imag >= 0.0))  # NaN below
        closed = len(up) == len(lo)
        if closed and len(up):
            u = z[up].conj()
            # a root sorts by the first u within CONJUGATE_TOL of it, so each
            # lower root lines up with a partner, in a repeated pair too
            tol = CONJUGATE_TOL * (1.0 + np.abs(u))
            up = up[np.argsort(np.argmax(np.abs(u[:, None] - u) <= tol, axis=1), kind="stable")]
            lo = lo[np.argsort(np.argmax(np.abs(z[lo, None] - u) <= tol, axis=1), kind="stable")]
            # abs as CPython computes it, of the first member of each pair
            d, r = z[up].conj() - z[lo], z[np.minimum(up, lo)]
            tol = CONJUGATE_TOL * (1.0 + np.hypot(r.real, r.imag))
            closed = bool(np.all(np.hypot(d.real, d.imag) <= tol))
        if not closed:
            raise ValueError(
                "root set is not closed under conjugation; cannot build a real polynomial"
            )
        factors = {i: (-z.real[i], 1.0) for i in np.flatnonzero(z.imag == 0.0).tolist()}
        for i, j in zip(up.tolist(), lo.tolist()):
            m = 0.5 * (z[i] + z[j].conjugate())
            # modulus squared without the hypot round trip, exact for exact inputs
            factors[min(i, j)] = (m.real * m.real + m.imag * m.imag, -2.0 * m.real, 1.0)
        p = cls((1.0,))
        for i in sorted(factors):
            p = p * cls(factors[i])
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

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

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

        The one-row case of `roots_rows`: exact zero roots are split off
        first, so a plant with a double pole at the origin reports them as
        exactly 0, and the rest are polished companion-matrix eigenvalues.
        """
        if self.degree == 0:
            raise ValueError("a nonzero constant has no roots")
        return roots_rows(np.array([self.coeffs]))[0][0]

    def is_hurwitz(self) -> bool:
        """True iff every root lies strictly in the open left half plane.

        Decided exactly, by a Routh array on the coefficients as rationals,
        so a root on the imaginary axis is never rounded into stability.  A
        nonzero constant is vacuously Hurwitz; the zero polynomial is an
        error.
        """
        if self.is_zero:
            raise ValueError("stability undefined for the zero polynomial")
        desc = [Fraction(c) for c in reversed(self.coeffs)]
        positive = desc[0] > 0
        prev, cur = desc[0::2], desc[1::2]
        # a zero pivot or a zero row means a root on or right of the axis
        while cur:
            if cur[0] == 0 or (cur[0] > 0) != positive:
                return False
            pad = cur + [Fraction(0)] * (len(prev) - len(cur))
            prev, cur = cur, [
                prev[j + 1] - prev[0] * pad[j + 1] / cur[0] for j in range(len(prev) - 1)
            ]
        return True

    def __str__(self) -> str:
        """Descending powers with a sign between terms, ``-2s^3 - s + 1``."""
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            mag = f"{abs(c):g}"
            power = "" if k == 0 else "s" if k == 1 else f"s^{k}"
            if c != 0.0:
                terms.append(("- " if c < 0 else "+ ") + (power if mag == "1" and k else mag + power))
        text = " ".join(terms) or "+ 0"  # the zero polynomial
        return text[2:] if text[0] == "+" else "-" + text[2:]


def hurwitz_stack(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`Polynomial.is_hurwitz` of each row of ``c``, from its roots, row ``z``.

    The sign of the rightmost root decides when it is clear of the
    imaginary axis by HURWITZ_MARGIN; closer in, the exact Routh array of
    `is_hurwitz` does, for that row alone.
    """
    right = z.real.max(axis=1)
    ok = right < 0.0
    near = ~(np.abs(right) > HURWITZ_MARGIN * (1.0 + np.abs(z).max(axis=1)))
    for i in np.flatnonzero(near).tolist():
        ok[i] = Polynomial(c[i]).is_hurwitz()
    return ok


def monic_is_finite(c: np.ndarray) -> np.ndarray:
    """Whether each row of ``c`` stays finite divided by its last (leading) coefficient.

    A subnormal or tiny leading coefficient makes that division overflow,
    and `roots_stack` has no companion matrix for such a row.  A row with a
    zero leading coefficient or a non-finite entry is not finite either.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.all(np.isfinite(c / c[:, -1:]), axis=1)


def trim_trailing_zeros(c):
    """The sequence ``c`` without its trailing exact zeros, keeping at least one entry."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def trimmed_lengths(c: np.ndarray) -> np.ndarray:
    """Length of each row of the 2-D stack ``c`` as `trim_trailing_zeros` leaves it.

    That is up to the row's last nonzero entry, and at least 1.
    """
    nonzero = c[:, ::-1] != 0.0
    nonzero[:, -1] = True  # the constant term stays
    return c.shape[1] - nonzero.argmax(axis=1)


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return Polynomial((float(x),))
    raise TypeError(f"cannot interpret {type(x).__name__} as Polynomial")


def roots_rows(c: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Roots and `Polynomial.is_hurwitz` verdict of each row of the 2-D stack ``c``.

    Rows hold ascending coefficients, zero-padded on the right, and a row's
    degree is the index of its last nonzero entry.  The rows of one degree
    take one `roots_stack` call and one `hurwitz_stack` verdict, so a row's
    roots and verdict do not depend on the other rows.  A nonzero constant
    row has no roots and is Hurwitz; a zero row or a non-finite entry is an
    error.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients must be finite")
    if not np.all(np.any(c, axis=1)):
        raise ValueError("undefined roots: the zero polynomial")
    degree = trimmed_lengths(c) - 1
    roots: list = [np.zeros(0, dtype=complex)] * len(c)
    ok = np.ones(len(c), dtype=bool)
    for d in set(degree.tolist()) - {0}:
        rows = np.flatnonzero(degree == d)
        group = c[rows, : d + 1]
        z = roots_stack(group)
        ok[rows] = hurwitz_stack(group, z)
        for i, zi in zip(rows.tolist(), z):
            roots[i] = zi
    return roots, ok


def roots_stack(c: np.ndarray) -> np.ndarray:
    """Roots of each row of ``c``, ascending coefficients of one degree d >= 1.

    Returns a (rows, d) complex array, each row sorted by (real, imag).
    Exact zeros at the origin are split off first.  The rows with the same
    count of them take one eigenvalue call on their stack of companion
    matrices and an array Newton pass.  Conjugate pairing is then one array
    step: LAPACK returns each non-real pair as adjacent exact conjugates,
    and `_newton` treats z and conj(z) alike bit for bit, so each pair is
    already its own conjugate average; only the near-real roots move, onto
    the real axis by `_snap_real`, the rule `Polynomial.from_roots` applies.
    """
    c = np.asarray(c, dtype=float) + 0.0  # + 0.0 folds -0.0 as Polynomial does
    if c.ndim != 2 or c.shape[1] < 2 or not np.all(c[:, -1] != 0.0):
        raise ValueError("rows must share a degree >= 1 and have nonzero leading coefficients")
    if not np.all(monic_is_finite(c)):
        raise ValueError(
            "leading coefficient too small: dividing its row by it overflows"
        )
    z = np.zeros((len(c), c.shape[1] - 1), dtype=complex)
    n_zero = np.argmax(c != 0.0, axis=1)
    for k in set(n_zero.tolist()):
        rows = np.flatnonzero(n_zero == k)
        if k < z.shape[1]:
            z[rows, k:] = _polished_roots(c[rows, k:])
    _snap_real(z).sort(axis=1)
    return z


def _snap_real(z: np.ndarray) -> np.ndarray:
    """``z``, in place, with each root of |imag| <= CONJUGATE_TOL * (1 + |z|) on the real axis."""
    # abs(z) as CPython computes it; numpy's complex abs rounds otherwise
    z.imag[np.abs(z.imag) <= CONJUGATE_TOL * (1.0 + np.hypot(z.real, z.imag))] = 0.0
    return z


def _polished_roots(c: np.ndarray) -> np.ndarray:
    """Polished eigenvalues of the companion matrices of rows ``c`` (a0 != 0)."""
    c = c / c[:, -1:]
    raw = np.linalg.eigvals(_companions(c))
    # polished in blocks of rows, which bounds the temporaries
    return np.concatenate([
        _newton(c[k : k + NEWTON_ROWS], raw[k : k + NEWTON_ROWS])
        for k in range(0, len(c), NEWTON_ROWS)
    ])


def _newton(c: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Newton refinement of each row's eigenvalues ``raw`` with an improvement guard.

    Each root takes Newton steps while its residual keeps dropping, at most
    NEWTON_STEPS.  The roots go into flat complex128 lanes, each with its
    row's index, so a row gets the same bits alone or in any batch: Horner
    rounds as CPython's complex arithmetic, and every lane steps by numpy's
    complex division.  A lane leaves for good once its step stops
    improving, so each round steps only the roots still live.
    """
    n = c.shape[1] - 1
    # highest degree first for Horner, one column per row; + 0.0 folds -0.0
    # as Polynomial does
    c_hi = (c[:, ::-1] + 0.0).T.copy()
    dc_hi = np.arange(n, 0, -1)[:, None] * c_hi[:n] + 0.0
    row = np.repeat(np.arange(len(c)), n)
    z = raw.ravel().astype(complex)
    out = z.copy()
    lane = np.arange(z.size)
    # a lane is judged only after its step, so a step that divides by zero
    # or overflows is simply not kept
    with np.errstate(all="ignore"):
        p = _horner(c_hi, row, z)
        # |p| as CPython's abs computes it; numpy's complex abs rounds otherwise
        f = np.hypot(p.real, p.imag)
        for _ in range(NEWTON_STEPS):
            cand = z - p / _horner(dc_hi, row, z)
            pc = _horner(c_hi, row, cand)
            fc = np.hypot(pc.real, pc.imag)
            live = np.isfinite(fc) & ~(fc >= f)
            lane, row, z, p, f = (x[live] for x in (lane, row, cand, pc, fc))
            if not lane.size:
                break
            out[lane] = z
    return out.reshape(raw.shape)


def _companions(c: np.ndarray) -> np.ndarray:
    """Stack of companion matrices of monic rows ``c`` (ascending)."""
    b, m = c.shape
    comp = np.zeros((b, m - 1, m - 1))
    comp[:, 0, :] = -c[:, -2::-1]
    comp[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
    return comp


def _horner(c_hi: np.ndarray, row: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Column row[k]'s polynomial at z[k], rounded as CPython's complex Horner."""
    zr, zi = z.real, z.imag
    ar = np.zeros_like(zr)
    ai = np.zeros_like(zr)
    for c in c_hi:
        ar, ai = ar * zr - ai * zi + c[row], ar * zi + ai * zr + 0.0
    acc = np.empty_like(z)
    acc.real, acc.imag = ar, ai
    return acc
