"""End-to-end acceptance gate.

Ten numbered criteria cover the whole pipeline: plant structure and
stabilizability, the two shipped compensator pairs, the critical gain of the
angle loop, the estimator-based design walkthrough, state-space/transfer
equivalence, step-response settling, noise amplification levels, Monte Carlo
perturbation bands, the genetic search, and the nonlinear simulation cross
check.  Each test prints one ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and carries its runtime in the report line.

Criterion 9 runs the full ten-seed search study, takes several minutes and
is marked ``slow``; everything else finishes in seconds.  Run the fast part
with

    pytest tests/test_acceptance.py -v -m "not slow"
"""

import math
import time

import numpy as np
import pytest

from pfclab.analysis import fragility_mc, robustness_mc
from pfclab.designs import ANGLE_DEMO_COMPENSATOR, PAIR_A, PAIR_B
from pfclab.modern import (
    combined_system,
    controllability_matrix,
    equivalent_Kb,
    equivalent_Kf,
    gain_design,
    observability_matrix,
    remove_factor,
    ss_to_tf,
)
from pfclab.plant import PendulumParams, angle_plant, linear_plant, position_plant
from pfclab.poly import Polynomial
from pfclab.sim import (
    angle_step_response,
    linear_closed_loop,
    nonlinear_closed_loop,
    step_response,
)
from pfclab.synth import GaConfig, ObjectiveConfig, ga_search, verify_pair
from pfclab.tf import (
    CompensatorPair,
    RationalTF,
    closed_loop,
    noise_channels,
    pip_check,
)

from helpers import match_error, peak_gain, rightmost_real_part, tf_equal_up_to_scale
from oracles import critical_gain_cubic, routh_is_stable

G = position_plant()
F = angle_plant()
SYS_POLES = (-1 + 1j, -1 - 1j, -2 + 1j, -2 - 1j)
EST_POLES = (-1.0, -2.0, -3 + 1j, -3 - 1j)


def _finish(num, desc, failures, t0):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d}: {status} - {desc} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def _max_channel_peak(plant, C, P):
    best_db, best_w = -math.inf, math.nan
    for ch in noise_channels(plant, C, P).channels:
        w, db = peak_gain(ch)
        if db > best_db:
            best_db, best_w = db, w
    return best_w, best_db


def test_criterion_01_plant_structure():
    t0 = time.perf_counter()
    bad = []
    _check(bad, match_error(G.zeros(), [1.0, -1.0]) < 1e-9, "position plant zeros")
    root = math.sqrt(13.0 / 3.0)
    _check(
        bad,
        match_error(G.poles(), [0.0, 0.0, root, -root]) < 1e-9,
        "position plant poles",
    )
    # the six-figure printed value rounds to within 6e-7 of sqrt(13/3)
    _check(bad, abs(root - 2.081666) < 1e-6, "printed pole value")
    _check(bad, not pip_check(G).strongly_stabilizable, "position plant pip verdict")
    _check(bad, pip_check(F).strongly_stabilizable, "angle plant pip verdict")
    _finish(1, "plant root structure and stabilizability verdicts", bad, t0)


def test_criterion_02_shipped_pairs_verify():
    t0 = time.perf_counter()
    bad = []
    for pair in (PAIR_A, PAIR_B):
        rep = verify_pair(G, pair)
        _check(bad, rep.passed, f"pair {pair.label} verification")
        _check(bad, rep.h_rightmost < 0.0, f"pair {pair.label} rightmost pole")
        _check(bad, rep.c_stable and rep.p_stable, f"pair {pair.label} Hurwitz")
        _check(bad, rep.c_proper and rep.p_proper, f"pair {pair.label} properness")
    _finish(2, "both shipped pairs pass full verification", bad, t0)


def test_criterion_03_critical_gain():
    t0 = time.perf_counter()
    bad = []
    C2 = ANGLE_DEMO_COMPENSATOR

    def rightmost(K):
        den = C2.den * F.den + (C2.num * F.num) * K
        return rightmost_real_part(den)

    lo, hi = 2.0, 8.0  # unstable / stable bracket
    _check(bad, rightmost(lo) > 0 and rightmost(hi) < 0, "bisection bracket")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rightmost(mid) > 0:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    _check(bad, abs(k_star - 13.0 / 3.0) <= 1e-6, f"critical gain {k_star!r}")
    # independent cubic-coefficient oracle flips at the same gain
    _check(bad, routh_is_stable(critical_gain_cubic(k_star + 1e-3)), "oracle above")
    _check(bad, not routh_is_stable(critical_gain_cubic(k_star - 1e-3)), "oracle below")
    _finish(3, "angle-loop critical gain 13/3 found by bisection", bad, t0)


def test_criterion_04_estimator_design_reproduction():
    t0 = time.perf_counter()
    bad = []
    ss = linear_plant(PendulumParams())
    cm = controllability_matrix(ss)
    want_cm = np.array(
        [
            [100 / 9, 0.0, 10 / 3, 0.0],
            [-130 / 9, 0.0, -10 / 3, 0.0],
            [0.0, 100 / 9, 0.0, 10 / 3],
            [0.0, -130 / 9, 0.0, -10 / 3],
        ]
    )
    _check(
        bad,
        np.allclose(cm.matrix, want_cm, rtol=1e-13, atol=0.0) and cm.rank == 4,
        "controllability matrix",
    )
    om = observability_matrix(ss)
    want_om = np.array(
        [
            [0.0, 0.0, 0.0, -10 / 3],
            [0.0, -10 / 3, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    _check(
        bad,
        np.allclose(om.matrix, want_om, rtol=1e-13, atol=0.0) and om.rank == 4,
        "observability matrix",
    )

    gains = gain_design(ss, SYS_POLES, EST_POLES)
    comb = combined_system(ss, gains)
    raw = ss_to_tf(comb.A, comb.B, comb.C)
    q = remove_factor(raw, Polynomial.from_roots(EST_POLES))
    scale = 3.0 / q.den.leading
    _check(
        bad,
        np.allclose([c * scale for c in q.den.coeffs], [30, 54, 45, 18, 3], rtol=1e-6)
        and np.allclose(
            [c * scale for c in q.num.coeffs], [-10, 0, 10], rtol=1e-6, atol=1e-9
        ),
        "reduced compensator after estimator-factor removal",
    )

    kb = equivalent_Kb(q, G)
    want_kb = RationalTF((15.0, 27.0, 29.0, 9.0), (-5.0, 0.0, 5.0))
    _check(bad, tf_equal_up_to_scale(kb.reduced, want_kb, rtol=1e-6), "Kb form")
    _check(bad, not kb.proper and not kb.stable, "Kb improper and unstable")

    kf = equivalent_Kf(q, G)
    want_kf = RationalTF((0.0, 0.0, -13.0, 0.0, 3.0), (40.0, 54.0, 35.0, 18.0, 3.0))
    _check(bad, tf_equal_up_to_scale(kf.reduced, want_kf, rtol=1e-6), "Kf form")
    _check(bad, kf.proper and kf.stable, "Kf proper and stable")
    _check(
        bad,
        kf.rhp_cancellation and len(kf.plant_cancellations) > 0,
        "Kf hides plant cancellations in the right half plane",
    )
    _finish(4, "estimator-based design matrices and compensators", bad, t0)


def test_criterion_05_state_space_equivalence():
    t0 = time.perf_counter()
    bad = []
    ss = linear_plant(PendulumParams())
    _check(
        bad,
        tf_equal_up_to_scale(ss_to_tf(ss.A, ss.B, ss.C), G, rtol=1e-9),
        "state-space realization reproduces the position transfer function",
    )
    gains = gain_design(ss, SYS_POLES, EST_POLES)
    comb = combined_system(ss, gains)
    eig = np.linalg.eigvals(comb.A)
    _check(
        bad,
        match_error(eig, SYS_POLES + EST_POLES) < 1e-6,
        "combined system eigenvalues split into the two placed sets",
    )
    _finish(5, "state-space equivalence and separation of pole sets", bad, t0)


def test_criterion_06_step_responses():
    t0 = time.perf_counter()
    bad = []
    for pair, dc_want in ((PAIR_A, 100.0 / 9.0), (PAIR_B, 10.0 / 3.0)):
        H = closed_loop(G, pair.C, pair.P)
        dc = H(0.0).real
        _check(bad, abs(dc - dc_want) < 1e-9 * abs(dc_want), f"pair {pair.label} DC gain")
        ts = step_response(H, t_end=60.0, dt=1e-3)
        _check(
            bad,
            abs(ts.y[-1] - dc) <= 0.01 * abs(dc),
            f"pair {pair.label} settles within 1% by t=60",
        )
        ang = angle_step_response(F, G, pair.C, pair.P, t_end=60.0, dt=1e-3)
        _check(
            bad,
            abs(ang.y[-1]) < 1e-3,
            f"pair {pair.label} angular response decays",
        )

    lag = RationalTF((1.0,), (1.0, 1.0))

    def max_err(dt):
        ts = step_response(lag, t_end=2.0, dt=dt)
        return np.max(np.abs(ts.y - (1.0 - np.exp(-ts.t))))

    factor = max_err(1e-2) / max_err(5e-3)
    _check(bad, 14.0 < factor < 18.0, f"integrator convergence factor {factor:.2f}")
    _finish(6, "step responses settle and the integrator converges at order 4", bad, t0)


def test_criterion_07_noise_channel_peaks():
    t0 = time.perf_counter()
    bad = []
    w_b, db_b = _max_channel_peak(G, PAIR_B.C, PAIR_B.P)
    _check(bad, 27.0 <= db_b <= 33.0, f"pair b peak {db_b:.2f} dB")
    _check(bad, 0.2 < w_b < 5.0, f"pair b peak frequency {w_b:.3f}")
    _, db_a = _max_channel_peak(G, PAIR_A.C, PAIR_A.P)
    _check(bad, db_a > db_b, "pair a peak strictly above pair b")
    C5 = 5.0 * ANGLE_DEMO_COMPENSATOR
    _, db_base = _max_channel_peak(F, C5, RationalTF((0.0,), (1.0,)))
    _check(
        bad,
        7.0 <= db_b - db_base <= 13.0,
        f"angle-feedback baseline sits {db_b - db_base:.2f} dB lower",
    )
    _finish(7, "noise amplification peaks and orderings", bad, t0)


def test_criterion_08_monte_carlo_bands():
    t0 = time.perf_counter()
    bad = []
    rob_a = robustness_mc(PAIR_A.C, PAIR_A.P, trials=1000, sigma=0.02, seed=0)
    _check(bad, 0 <= rob_a.unstable_count <= 5, f"robustness a: {rob_a.unstable_count}")
    rob_b = robustness_mc(PAIR_B.C, PAIR_B.P, trials=1000, sigma=0.02, seed=0)
    _check(bad, 15 <= rob_b.unstable_count <= 90, f"robustness b: {rob_b.unstable_count}")
    fra_a = fragility_mc(G, PAIR_A.C, PAIR_A.P, trials=1000, sigma=0.02, seed=0)
    _check(bad, 0 <= fra_a.unstable_count <= 30, f"fragility a: {fra_a.unstable_count}")
    fra_b = fragility_mc(G, PAIR_B.C, PAIR_B.P, trials=1000, sigma=0.02, seed=0)
    _check(bad, 10 <= fra_b.unstable_count <= 70, f"fragility b: {fra_b.unstable_count}")
    again = robustness_mc(PAIR_B.C, PAIR_B.P, trials=1000, sigma=0.02, seed=0)
    _check(bad, again.to_json() == rob_b.to_json(), "identical seed, identical report")
    _finish(8, "Monte Carlo perturbation counts inside the expected bands", bad, t0)


@pytest.mark.slow
def test_criterion_09_synthesis_over_ten_seeds():
    t0 = time.perf_counter()
    bad = []
    obj = ObjectiveConfig(plant=G)
    results = []
    for seed in range(10):
        res = ga_search(obj, GaConfig(seed=seed), n=3)
        results.append(res)
        print(f"  seed {seed}: best F = {res.best_F:+.6f}"
              f" ({'success' if res.success else 'no stabilizing pair'})")
    successes = [r for r in results if r.success]
    _check(bad, len(successes) >= 1, "at least one seed found a stabilizing pair")
    for res in successes:
        _check(
            bad,
            verify_pair(G, res.pair).passed,
            f"claimed success fails verification (F={res.best_F})",
        )
    _check(bad, time.perf_counter() - t0 < 900.0, "search study exceeded 15 minutes")
    _finish(9, "genetic search succeeds within ten seeds and verifies", bad, t0)


def test_criterion_10_nonlinear_validation():
    t0 = time.perf_counter()
    bad = []
    p = PendulumParams()
    args = dict(x_ref_step=0.0, theta0=0.01, t_end=5.0)
    xs_n, th_n = nonlinear_closed_loop(p, PAIR_B.C, PAIR_B.P, **args)
    xs_l, th_l = linear_closed_loop(p, PAIR_B.C, PAIR_B.P, **args)
    for name, nl, lin in (("cart", xs_n, xs_l), ("angle", th_n, th_l)):
        scale = np.max(np.abs(lin.y))
        err = np.max(np.abs(nl.y - lin.y))
        _check(bad, err <= 0.02 * scale, f"{name} trajectory off by {err:.2e}")
    xs0, th0 = nonlinear_closed_loop(p, PAIR_B.C, PAIR_B.P, x_ref_step=0.0, theta0=0.0, t_end=5.0)
    _check(
        bad,
        bool(np.all(xs0.y == 0.0) and np.all(th0.y == 0.0)),
        "upright equilibrium drifts",
    )
    _finish(10, "nonlinear simulation tracks the linear model", bad, t0)
