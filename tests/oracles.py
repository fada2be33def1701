"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive and written from first principles so
that agreement with the package is meaningful: no code is shared with
src/pfclab beyond numpy.
"""

import math
from fractions import Fraction

import numpy as np


def naive_convolve(a, b):
    """Schoolbook polynomial product, ascending coefficients."""
    a = list(a)
    b = list(b)
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def newton_polish(c_monic, raw, steps):
    """Each root in ``raw`` refined alone by guarded Newton steps, in scalar arithmetic.

    ``c_monic`` holds ascending coefficients with a unit leading one.  A
    root steps while p' is nonzero and |p| strictly drops, at most
    ``steps`` times.  Rows with all-real ``raw`` divide as floats; the
    others divide as numpy complex128 scalars.
    """
    hi = [float(a) + 0.0 for a in reversed(c_monic)]
    n = len(hi) - 1
    d_hi = [(n - k) * a + 0.0 for k, a in enumerate(hi[:n])]
    real = all(z.imag == 0.0 for z in raw)

    def horner(cs, z):
        acc = 0j
        for a in cs:
            acc = acc * z + a
        return acc

    out = []
    for z in raw:
        z = complex(z.real, 0.0 if real else z.imag)
        p = horner(hi, z)
        for _ in range(steps):
            d = horner(d_hi, z)
            if d == 0:
                break
            if real:
                q = complex(p.real / d.real, 0.0)
            else:
                q = complex(np.complex128(p) / np.complex128(d))
            cand = complex(z.real - q.real, z.imag - q.imag)
            pc = horner(hi, cand)
            fc = math.hypot(pc.real, pc.imag)
            if not math.isfinite(fc) or fc >= math.hypot(p.real, p.imag):
                break
            z, p = cand, pc
        out.append(z)
    return np.array(out, dtype=complex)


def routh_is_stable(coeffs_ascending):
    """Strict Hurwitz test via the Routh array; no root finding involved.

    Any zero pivot or zero row means roots on or right of the imaginary
    axis, hence not strictly stable. Degree-0 polynomials are vacuously
    stable. The array is built in rational arithmetic, so the verdict is
    exact for integer or float coefficients.
    """
    c = [Fraction(x) for x in coeffs_ascending]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if len(c) <= 1:
        if c == [0.0]:
            raise ValueError("zero polynomial")
        return True
    desc = c[::-1]
    n = len(desc)
    rows = [desc[0::2], desc[1::2]]
    width = len(rows[0])
    rows[1] += [Fraction(0)] * (width - len(rows[1]))
    for _ in range(n - 2):
        prev, cur = rows[-2], rows[-1]
        if cur[0] == 0.0:
            return False
        nxt = [
            (cur[0] * prev[k + 1] - prev[0] * cur[k + 1]) / cur[0]
            for k in range(width - 1)
        ] + [Fraction(0)]
        rows.append(nxt)
    first_col = [r[0] for r in rows]
    if any(x == 0.0 for x in first_col):
        return False
    signs = {x > 0 for x in first_col}
    return len(signs) == 1


def lti_step_exact(A, B, C, D, t):
    """Step response by eigendecomposition: y = C expm-integral B + D.

    x(t) = A^{-1}(e^{At} - I)B for the unit step; implemented through the
    eigenbasis so no ODE integrator is involved. Requires diagonalizable A
    with no zero eigenvalue (true for every stable loop tested here).
    """
    lam, V = np.linalg.eig(A)
    Vb = np.linalg.solve(V, np.asarray(B, dtype=complex).reshape(-1))
    CV = np.asarray(C, dtype=complex).reshape(-1) @ V
    t = np.asarray(t, dtype=float)
    phi = (np.exp(np.outer(t, lam)) - 1.0) / lam  # (len(t), n)
    y = phi @ (CV * Vb) + float(D)
    return y.real


def resonance_peak_second_order(zeta):
    """Peak gain and frequency of 1/(s^2 + 2*zeta*s + 1), zeta < 1/sqrt(2)."""
    w = np.sqrt(1.0 - 2.0 * zeta**2)
    peak = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
    return w, peak


def critical_gain_cubic(K):
    """Closed-loop denominator of the angle-feedback demo loop at gain K.

    Loop: plant 1/(1.3 - 0.3 s^2), compensator K * (-(s+3))/(s+10), unity
    feedback. Coefficients ascending.
    """
    return [3.0 * K - 13.0, K - 1.3, 3.0, 0.3]
