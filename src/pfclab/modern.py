"""State-space design route: estimator plus full state feedback.

Builds the combined plant/estimator system for the pendulum cart, extracts
its implied feedback transfer function, and derives the two limiting
single-loop compensators that the equivalent classical configuration would
require.  Both come out unusable (one improper and unstable, one resting on
a right-half-plane cancellation), which is the point of the exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import StateSpace
from .poly import Polynomial
from .tf import RationalTF

RANK_TOL = 1e-9
FACTOR_MATCH_TOL = 1e-6
DIVISION_TOL = 1e-9  # relative remainder bound in `remove_factor`
DUST_TOL = 1e-12  # relative size of coefficient dust in `ss_to_tf`


@dataclass(frozen=True)
class RankedMatrix:
    matrix: np.ndarray
    rank: int


@dataclass(frozen=True)
class GainMatrices:
    """State-feedback row K and observer column Gobs."""

    K: np.ndarray  # 1 x n
    Gobs: np.ndarray  # n x 1


def _match_distance(got, want) -> float:
    """Worst nearest-neighbour gap between two eigenvalue multisets.

    Sorting is unreliable when members share real parts to rounding error.
    """
    pool = list(np.asarray(got, dtype=complex))
    worst = 0.0
    for w in np.asarray(want, dtype=complex):
        j = int(np.argmin([abs(w - g) for g in pool]))
        worst = max(worst, abs(w - pool.pop(j)))
    return worst


def _krylov(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns [v | A v | ... | A^(n-1) v] for an n x n matrix A."""
    cols = [v]
    for _ in range(A.shape[0] - 1):
        cols.append(A @ cols[-1])
    return np.hstack(cols)


def controllability_matrix(ss: StateSpace) -> RankedMatrix:
    """Columns [A^3 B | A^2 B | A B | B], highest power leftmost."""
    m = _krylov(ss.A, ss.B)[:, ::-1]
    return RankedMatrix(matrix=m, rank=np.linalg.matrix_rank(m, rtol=RANK_TOL))


def observability_matrix(ss: StateSpace) -> RankedMatrix:
    """Rows [C A^3; C A^2; C A; C], highest power on top: the dual pair's Krylov columns."""
    m = _krylov(ss.A.T, ss.C.T)[:, ::-1].T
    return RankedMatrix(matrix=m, rank=np.linalg.matrix_rank(m, rtol=RANK_TOL))


def place_poles(A: np.ndarray, B: np.ndarray, desired) -> np.ndarray:
    """State-feedback row gain via Ackermann's formula.

    Returns K with eig(A - B K) at the desired locations.  The desired set
    must be closed under conjugation and (A, B) must be controllable.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], 1)
    n = A.shape[0]
    if len(desired) != n:
        raise ValueError(f"need exactly {n} desired poles, got {len(desired)}")
    phi = Polynomial.from_roots(desired)  # rejects non-conjugate-closed sets

    ctrl = _krylov(A, B)
    if np.linalg.matrix_rank(ctrl, rtol=RANK_TOL) < n:
        raise ValueError("pair (A, B) is not controllable")

    # phi(A) by Horner; phi is monic of degree n
    phi_A = np.zeros_like(A)
    for c in reversed(phi.coeffs):
        phi_A = phi_A @ A + c * np.eye(n)
    last_row = np.linalg.solve(ctrl.T, np.eye(n)[:, -1])
    return (last_row @ phi_A).reshape(1, n)


def gain_design(ss: StateSpace, system_poles, estimator_poles) -> GainMatrices:
    """Place the feedback poles directly and the observer poles by duality."""
    K = place_poles(ss.A, ss.B, system_poles)
    Gobs = place_poles(ss.A.T, ss.C.T, estimator_poles).T
    for closed, want in (
        (ss.A - ss.B @ K, system_poles),
        (ss.A - Gobs @ ss.C, estimator_poles),
    ):
        if _match_distance(np.linalg.eigvals(closed), want) > 1e-6:
            raise RuntimeError("pole placement failed its eigenvalue check")
    return GainMatrices(K=K, Gobs=Gobs)


def combined_system(ss: StateSpace, gains: GainMatrices) -> StateSpace:
    """Stack true state over estimated state.

    The true state evolves under A with input -K xhat + u; the estimate adds
    the output-injection correction.  Blocks: [[A, -BK], [GC, A-BK-GC]],
    input enters both halves, output reads the true cart position.
    """
    A, B, C = ss.A, ss.B, ss.C
    K, G = gains.K, gains.Gobs
    n = A.shape[0]
    return StateSpace(
        A=np.block([[A, -B @ K], [G @ C, A - B @ K - G @ C]]),
        B=np.vstack([B, B]),
        C=np.hstack([C, np.zeros((1, n))]),
    )


# ---------------------------------------------------------------------------
# resolvent to transfer function
# ---------------------------------------------------------------------------


def ss_to_tf(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: float = 0.0) -> RationalTF:
    """Transfer function C (sI - A)^-1 B + D by the Leverrier-Faddeev recurrence.

    No pole-zero cancellation is performed; the denominator is the full
    characteristic polynomial (monic).  Coefficients smaller than DUST_TOL
    of the largest in their polynomial are structured zeros of the recurrence
    carrying float dust and are snapped to exact zero.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    B = np.asarray(B, dtype=float).reshape(n, 1)
    C = np.asarray(C, dtype=float).reshape(1, n)

    den_desc = np.empty(n + 1)
    den_desc[0] = 1.0
    num_desc = np.empty(n)
    Mk = np.eye(n)
    for k in range(1, n + 1):
        num_desc[k - 1] = (C @ Mk @ B).item()
        AM = A @ Mk
        ck = -np.trace(AM) / k
        den_desc[k] = ck
        Mk = AM + ck * np.eye(n)

    den = _snap_dust(den_desc[::-1])
    num = _snap_dust(num_desc[::-1])
    num_poly = Polynomial(num) + Polynomial(den) * float(D)
    return RationalTF(num_poly, Polynomial(den))


def _snap_dust(coeffs):
    c = np.array(coeffs, dtype=float)
    if c.size:
        c[np.abs(c) < DUST_TOL * np.max(np.abs(c))] = 0.0
    return c


def common_factors(tf: RationalTF) -> tuple[complex, ...]:
    """Roots shared by numerator and denominator, matched within FACTOR_MATCH_TOL.

    Report only; nothing is cancelled.  Each denominator root can absorb at
    most one numerator root.
    """
    if tf.num.is_zero:
        return ()
    pool = list(tf.den.roots())
    shared = []
    for z in tf.num.roots():
        if not pool:
            break
        j = int(np.argmin([abs(z - p) for p in pool]))
        if abs(z - pool[j]) <= FACTOR_MATCH_TOL * (1.0 + abs(z)):
            shared.append(pool.pop(j))
    return tuple(shared)


def remove_factor(tf: RationalTF, factor: Polynomial) -> RationalTF:
    """Divide numerator and denominator by a structurally known factor.

    Exact polynomial division with a remainder check; root matching cannot
    be trusted here because repeated roots split by far more than their
    coefficient accuracy.
    """
    out = []
    for poly in (tf.num, tf.den):
        q, r = divmod(poly, factor)
        r_norm = max((abs(c) for c in r.coeffs), default=0.0)
        scale = max(abs(c) for c in poly.coeffs)
        if r_norm > DIVISION_TOL * max(scale, 1.0):
            raise ValueError("factor does not divide both sides of the transfer function")
        out.append(q)
    return RationalTF(out[0], out[1])


# ---------------------------------------------------------------------------
# equivalent single-loop compensators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalentCompensator:
    """One limiting factorization of the implied loop, with its verdict."""

    reduced: RationalTF
    proper: bool
    stable: bool
    plant_cancellations: tuple[complex, ...]
    rhp_cancellation: bool


def _numerator_ratio(Q: RationalTF, G: RationalTF) -> float | None:
    """Scalar lam with n_Q = lam * n_G, or None when not proportional."""
    if Q.num.is_zero:
        return 0.0
    if G.num.is_zero or Q.num.degree != G.num.degree:
        return None
    lam = Q.num.leading / G.num.leading
    diff = Q.num - G.num * lam
    scale = max(abs(c) for c in Q.num.coeffs)
    if max(abs(c) for c in diff.coeffs) <= 1e-8 * max(scale, 1.0):
        return lam
    return None


def _verdict(reduced: RationalTF, G: RationalTF) -> EquivalentCompensator:
    loop = RationalTF(reduced.num * G.num, reduced.den * G.den)
    shared = common_factors(loop)
    return EquivalentCompensator(
        reduced=reduced,
        proper=reduced.is_proper,
        stable=reduced.is_zero or reduced.is_stable(),
        plant_cancellations=shared,
        rhp_cancellation=any(r.real > 1e-7 for r in shared),
    )


def equivalent_Kb(Q: RationalTF, G: RationalTF) -> EquivalentCompensator:
    """Feedback-only factorization 1/Q - 1/G.

    The raw difference keeps every factor; when Q and G share their
    numerator up to a scalar (they share zeros by construction) the common
    numerator factor is divided out structurally.
    """
    if Q.num.is_zero:
        raise ValueError("Q must be nonzero")
    lam = _numerator_ratio(Q, G)
    if lam:
        reduced = RationalTF(Q.den - G.den * lam, G.num * lam)
    else:
        reduced = RationalTF(Q.den * G.num - G.den * Q.num, Q.num * G.num)
    return _verdict(reduced, G)


def equivalent_Kf(Q: RationalTF, G: RationalTF) -> EquivalentCompensator:
    """Forward-only factorization (Q/G) / (1 - Q).

    d_Q always cancels; the shared-numerator factor goes the same way as in
    the feedback case, leaving lam * d_G / (d_Q - n_Q).
    """
    lam = _numerator_ratio(Q, G)
    if lam is not None:
        reduced = RationalTF(G.den * lam, Q.den - Q.num)
    else:
        reduced = RationalTF(Q.num * G.den, G.num * (Q.den - Q.num))
    return _verdict(reduced, G)
