"""Reference computations for the benchmark's correctness checks.

Nothing here imports pfclab.  Every routine is rebuilt from the loop's
block diagram and from textbook algorithms, so agreement with pfclab is
evidence that both are right:

- an exact Routh-Hurwitz test on ``fractions.Fraction`` coefficients,
- schoolbook polynomial products for closed-loop denominators,
- exact linear responses by eigendecomposition, with no time stepping,
- pointwise noise-channel gains solved from the loop equations in complex
  arithmetic.

Polynomials are coefficient sequences in ascending powers of s.  A transfer
function is a ``(num, den)`` pair of such sequences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def exact(coeffs: Sequence) -> list[Fraction]:
    """Coefficients as exact rationals; a float converts without rounding."""
    return [Fraction(c) for c in coeffs]


def trim(coeffs: Sequence) -> list:
    """Drop exactly-zero leading (highest-power) coefficients."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def mul(a: Sequence, b: Sequence) -> list:
    """Schoolbook product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def add(*polys: Sequence) -> list:
    out = [0] * max(len(p) for p in polys)
    for p in polys:
        for k, c in enumerate(p):
            out[k] += c
    return out


def closed_loop_den(G, C, P) -> list:
    """d_C d_G d_P + n_C n_P d_G + n_C n_G d_P, the loop's characteristic polynomial.

    The loop drives the plant G with v = r - C (y + P v), so
    v (1 + C G + C P) = r; clearing the three denominators gives this sum.
    """
    (nG, dG), (nC, dC), (nP, dP) = G, C, P
    return trim(add(mul(mul(dC, dG), dP), mul(mul(nC, nP), dG), mul(mul(nC, nG), dP)))


def closed_loop_num(G, C, P) -> list:
    """Numerator of y/r = G / (1 + C G + C P) over :func:`closed_loop_den`."""
    (nG, _), (_, dC), (_, dP) = G, C, P
    return trim(mul(mul(nG, dC), dP))


def routh_stable(coeffs: Sequence) -> bool:
    """Exact strict Hurwitz test by the Routh array.

    True iff every root has a strictly negative real part.  The
    coefficients become exact rationals and then integers over their common
    denominator; each new row is formed without division and scaled by a
    positive factor (the pivot's magnitude over the row's gcd), which keeps
    every sign of the textbook array.  A zero pivot (a root on the imaginary
    axis, or a pair symmetric about the origin) means "not strictly
    stable".  A nonzero constant is vacuously stable; the zero polynomial
    has no verdict.
    """
    c = trim(exact(coeffs))
    if c == [0]:
        raise ValueError("stability undefined for the zero polynomial")
    if len(c) == 1:
        return True
    desc = integers(c)[::-1]
    width = (len(desc) + 1) // 2
    upper = desc[0::2]
    lower = desc[1::2] + [0] * (width - len(desc[1::2]))
    first_col = [upper[0]]
    for _ in range(len(desc) - 1):
        pivot = lower[0]
        if pivot == 0:
            return False
        first_col.append(pivot)
        nxt = [pivot * upper[k + 1] - upper[0] * lower[k + 1] for k in range(width - 1)]
        scale = math.gcd(*nxt) or 1
        if pivot < 0:
            scale = -scale
        upper, lower = lower, [x // scale for x in nxt] + [0]
    positive = first_col[0] > 0
    return all((x > 0) == positive for x in first_col)


def integers(coeffs: Sequence) -> list[int]:
    """Exact rationals times the positive common denominator: same roots."""
    c = exact(coeffs)
    lcm = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (lcm // x.denominator) for x in c]


def integer_tf(num: Sequence, den: Sequence) -> tuple[list[int], list[int]]:
    """num/den with both sides scaled by one positive integer into integers."""
    both = integers(list(num) + list(den))
    return both[: len(num)], both[len(num) :]


def horner(coeffs: Sequence, s):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def dc_gain(num: Sequence, den: Sequence) -> Fraction:
    """Exact value at s = 0 of num/den; the den constant term must be nonzero."""
    n0, d0 = Fraction(num[0]), Fraction(den[0])
    if d0 == 0:
        raise ZeroDivisionError("pole at the origin: no DC gain")
    return n0 / d0


# ---------------------------------------------------------------------------
# state space and exact responses
# ---------------------------------------------------------------------------


def observable_form(num: Sequence[float], den: Sequence[float]):
    """(A, B, C, D) of a proper transfer function in observable canonical form.

    A deliberately different realization from a controllable-form one: the
    denominator sits in the first column and the numerator enters through B.
    """
    num = [float(x) for x in num]
    den = [float(x) for x in trim(den)]
    n = len(den) - 1
    if len(trim(num)) - 1 > n:
        raise ValueError("improper transfer function")
    lead = den[-1]
    a = [x / lead for x in den]
    b = [x / lead for x in num] + [0.0] * (n + 1 - len(num))
    d = b[n]
    A = np.zeros((n, n))
    B = np.zeros(n)
    for i in range(n):
        # x_i' = -a_{n-1-i} x_0 + x_{i+1} + (b_{n-1-i} - a_{n-1-i} d) u
        A[i, 0] = -a[n - 1 - i]
        if i + 1 < n:
            A[i, i + 1] = 1.0
        B[i] = b[n - 1 - i] - a[n - 1 - i] * d
    C = np.zeros(n)
    if n:
        C[0] = 1.0
    return A, B, C, d


def lti_response(A, B, C, D, x0, u, t) -> np.ndarray:
    """y(t) of x' = A x + B u, y = C x + D u for a constant input u.

    Closed form through the eigenbasis of A: x(t) = V e^{Lt} V^-1 x0 +
    V diag((e^{lt} - 1)/l) V^-1 B u.  Needs a diagonalizable A without a
    zero eigenvalue, which holds for every stable loop checked here.
    """
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    if np.any(lam == 0):
        raise ValueError("zero eigenvalue: use a stable system")
    t = np.asarray(t, dtype=float)
    z0 = np.linalg.solve(V, np.asarray(x0, dtype=complex))
    zb = np.linalg.solve(V, np.asarray(B, dtype=complex)) * u
    e = np.exp(np.outer(t, lam))
    z = e * z0 + (e - 1.0) / lam * zb
    return (z @ (np.asarray(C, dtype=complex) @ V)).real + D * u


def pendulum_linear(M: float, L: float = 1.0, m: float = 1.0, g: float = 1.0):
    """Small-angle cart-pendulum model, state (x, theta, x', theta'), input force.

    Linearizing (M+m) x'' + m L theta'' = u and x'' + L theta'' = g theta
    about the upright rest state and solving for the two accelerations:
    x'' = (u - m g theta)/M and theta'' = ((M+m) g theta - u)/(M L).
    """
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    A[2, 1] = -m * g / M
    A[3, 1] = (M + m) * g / (M * L)
    B = np.array([0.0, 0.0, 1.0 / M, -1.0 / (M * L)])
    return A, B


def loop_state_space(plant_A, plant_B, C, P):
    """Closed loop of a state-space plant with the compensator pair.

    The plant output is its first state.  C reads y + P v, P reads v, and
    v = r - C_out; the two feedthroughs make v an algebraic unknown:
    v (1 + D_C D_P) = r - C_C x_C - D_C (y + C_P x_P).
    Returns (A, B) of z' = A z + B r with z = (plant, x_C, x_P).
    """
    Ac, Bc, Cc, Dc = observable_form(*C)
    Ap, Bp, Cp, Dp = observable_form(*P)
    n_pl, n_c, n_p = plant_A.shape[0], Ac.shape[0], Ap.shape[0]
    n = n_pl + n_c + n_p
    sc = slice(n_pl, n_pl + n_c)
    sp = slice(n_pl + n_c, n)
    alpha = 1.0 / (1.0 + Dc * Dp)
    # v = v_row @ z + alpha r
    v_row = np.zeros(n)
    v_row[0] = -Dc
    v_row[sc] = -Cc
    v_row[sp] = -Dc * Cp
    v_row *= alpha
    # C input m = y + C_P x_P + D_P v
    m_row = np.zeros(n)
    m_row[0] = 1.0
    m_row[sp] += Cp
    m_row += Dp * v_row
    A = np.zeros((n, n))
    B = np.zeros(n)
    A[:n_pl, :n_pl] = plant_A
    A[:n_pl] += np.outer(plant_B, v_row)
    B[:n_pl] = plant_B * alpha
    A[sc, sc] = Ac
    A[sc] += np.outer(Bc, m_row)
    B[sc] = Bc * Dp * alpha
    A[sp, sp] = Ap
    A[sp] += np.outer(Bp, v_row)
    B[sp] = Bp * alpha
    return A, B


# ---------------------------------------------------------------------------
# noise channels
# ---------------------------------------------------------------------------


def noise_gains(G, C, P, s) -> np.ndarray:
    """Gains from the six injection points to the plant output at points s.

    Injection points: e1 reference junction, e2 plant input, e3 plant
    output, e4 feedforward output, e5 measurement junction, e6 compensator
    output.  With the loop v = r + e1 - (C m + e6), u = v + e2,
    y = G u + e3, m = y + P v + e4 + e5, eliminating v and m leaves one
    scalar equation per injection, solved here in complex arithmetic.
    Returns an array of shape (6, len(s)).
    """
    s = np.asarray(s, dtype=complex)
    g = horner(G[0], s) / horner(G[1], s)
    c = horner(C[0], s) / horner(C[1], s)
    p = horner(P[0], s) / horner(P[1], s)
    loop = 1.0 + c * g + c * p
    return np.array(
        [
            g / loop,
            g * (1.0 + c * p) / loop,
            (1.0 + c * p) / loop,
            -c * g / loop,
            -c * g / loop,
            -g / loop,
        ]
    )


def multisine(gain: np.ndarray, amp, omega, phase, t) -> np.ndarray:
    """Steady state of sum_k amp_k sin(omega_k t + phase_k) through ``gain``.

    ``gain[k]`` is the channel's complex gain at i*omega_k.
    """
    t = np.asarray(t, dtype=float)
    arg = np.outer(t, omega) + np.angle(gain) + phase
    return np.sin(arg) @ (np.asarray(amp) * np.abs(gain))
