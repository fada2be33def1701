"""Frequency response and Monte Carlo study layer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfclab.analysis import (
    BodeCurve,
    McReport,
    _draws,
    _mc_report,
    bode,
    fragility_mc,
    robustness_mc,
)
from pfclab.designs import ANGLE_DEMO_COMPENSATOR, PAIR_A, PAIR_B
from pfclab.plant import angle_plant, position_plant
from pfclab.poly import Polynomial
from pfclab.synth import verify_pair
from pfclab.tf import CompensatorPair, RationalTF, noise_channels

from helpers import array_digest, peak_gain
from oracles import resonance_peak_second_order

G_PEND = position_plant()
ONE = RationalTF((1.0,), (1.0,))
LAG = RationalTF((1.0,), (1.0, 1.0))  # 1/(s+1)
RESON = RationalTF((1.0,), (1.0, 0.2, 1.0))  # zeta = 0.1


# ---------------------------------------------------------------------------
# Bode curves
# ---------------------------------------------------------------------------


class TestBode:
    def test_unity_is_zero_db(self):
        curve = bode(ONE)
        assert max(abs(m) for m in curve.mag_db) == 0.0
        assert not curve.near_axis_pole

    def test_half_power_point(self):
        # 1001 points puts omega = 1 exactly on the grid
        curve = bode(LAG, 1e-2, 1e2, 1001)
        k = 500
        assert curve.omega[k] == pytest.approx(1.0, rel=1e-12)
        assert curve.mag_db[k] == pytest.approx(-10.0 * math.log10(2.0), abs=1e-9)

    def test_returns_float_arrays(self):
        curve = bode(LAG, 0.1, 10.0, 50)
        for x in (curve.omega, curve.mag_db):
            assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (50,)

    def test_lengths_and_monotone_grid(self):
        curve = bode(LAG, 0.1, 10.0, 50)
        assert len(curve.omega) == len(curve.mag_db) == 50
        assert all(b > a for a, b in zip(curve.omega, curve.omega[1:]))
        assert curve.omega[0] == pytest.approx(0.1)
        assert curve.omega[-1] == pytest.approx(10.0)

    def test_axis_pole_is_flagged(self):
        osc = RationalTF((1.0,), (1.0, 0.0, 1.0))  # poles at +-i
        assert bode(osc).near_axis_pole
        assert not bode(LAG).near_axis_pole

    def test_origin_pole_below_grid_not_flagged(self):
        # double integrator: pole at 0 sits below w_min, the curve is
        # large but finite at the left edge and carries no flag
        curve = bode(G_PEND)
        assert not curve.near_axis_pole
        assert all(math.isfinite(m) for m in curve.mag_db)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="w_min"):
            bode(LAG, 0.0, 10.0)
        with pytest.raises(ValueError, match="w_max"):
            bode(LAG, 1.0, 1.0)
        with pytest.raises(ValueError, match="two"):
            bode(LAG, 0.1, 1.0, 1)

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="length"):
            BodeCurve((1.0, 2.0), (0.0,))
        with pytest.raises(ValueError, match="increasing"):
            BodeCurve((1.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize("omega", [(1.0, math.nan, 3.0), (math.nan,), (1.0, 2.0, math.inf)])
    def test_curve_rejects_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="strictly increasing"):
            BodeCurve(omega, (1.0,) * len(omega))

    def test_csv_roundtrip(self, tmp_path):
        curve = bode(LAG, 0.1, 10.0, 20)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        got = np.genfromtxt(path, delimiter=",", names=True)
        assert got["omega"].tolist() == pytest.approx(list(curve.omega))
        assert got["mag_db"].tolist() == pytest.approx(list(curve.mag_db))


# ---------------------------------------------------------------------------
# peak gain
# ---------------------------------------------------------------------------


class TestPeakGain:
    def test_resonance_against_closed_form(self):
        w, db = peak_gain(RESON)
        w_ref, peak_ref = resonance_peak_second_order(0.1)
        assert w == pytest.approx(w_ref, rel=1e-8)
        assert db == pytest.approx(20.0 * math.log10(peak_ref), abs=1e-9)

    def test_constant_gain(self):
        w, db = peak_gain(RationalTF((3.0,), (1.0,)))
        assert db == pytest.approx(20.0 * math.log10(3.0), abs=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            peak_gain(RationalTF((1.0,), (-1.0, 1.0)))

    def test_marginally_stable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            peak_gain(RationalTF((1.0,), (1.0, 0.0, 1.0)))

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scalar_shift_property(self, c):
        w0, db0 = peak_gain(RESON)
        w1, db1 = peak_gain(c * RESON)
        assert w1 == pytest.approx(w0, rel=1e-6)
        assert db1 - db0 == pytest.approx(20.0 * math.log10(c), abs=1e-9)

    def test_negative_scale_uses_magnitude(self):
        w0, db0 = peak_gain(RESON)
        w1, db1 = peak_gain(-2.0 * RESON)
        assert db1 - db0 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)
        assert w1 == pytest.approx(w0, rel=1e-6)


# ---------------------------------------------------------------------------
# noise channel magnitudes
# ---------------------------------------------------------------------------


def max_channel_peak(G, C, P):
    best_db, best_w = -math.inf, math.nan
    for ch in noise_channels(G, C, P).channels:
        w, db = peak_gain(ch)
        if db > best_db:
            best_db, best_w = db, w
    return best_w, best_db


class TestNoiseChannelPeaks:
    def test_pair_b_peaks_near_thirty_db(self):
        w, db = max_channel_peak(G_PEND, PAIR_B.C, PAIR_B.P)
        assert 27.0 < db < 33.0
        assert 0.2 < w < 5.0

    def test_pair_a_peaks_near_thirty_db(self):
        _, db = max_channel_peak(G_PEND, PAIR_A.C, PAIR_A.P)
        assert 27.0 < db < 33.0

    def test_angle_feedback_baseline_sits_lower(self):
        # the angle loop with the gain-5 lead compensator and no parallel
        # branch amplifies noise roughly 10 dB less than position feedback
        C5 = 5.0 * ANGLE_DEMO_COMPENSATOR
        Pz = RationalTF((0.0,), (1.0,))
        _, base_db = max_channel_peak(angle_plant(), C5, Pz)
        assert 17.0 <= base_db <= 23.0
        _, pos_db = max_channel_peak(G_PEND, PAIR_B.C, PAIR_B.P)
        assert 7.0 < pos_db - base_db < 13.0


# ---------------------------------------------------------------------------
# Monte Carlo studies
# ---------------------------------------------------------------------------


# SHA-256 of pair b's trial tags and poles at the defaults (1000 trials,
# sigma 0.02, seed 0), recorded with one root call per trial, before the
# trials shared one batch (Python 3.11.7, numpy 2.4.6)
CLOUD_B_SHA256 = {
    "robustness": "9e4a028e23e177b224b1f4fbc577e701392007e2071a9d6efc804c66e04b364a",
    "fragility": "3b7a724df5e244e1f57309e4416a35c4fbc329bdfad72ea37bd2fb62a1cc793e",
}


# the same digests for pair a, recorded with one `Polynomial` loop
# denominator per trial, before the trials were assembled as stacked rows
CLOUD_A_SHA256 = {
    "robustness": "2f03319f6f9deed260baa9ab372ef958164a557d90890a053628144c12dbab1c",
    "fragility": "aeeceda4f713c795c592ef0c1d082a259f3aee5fd3e9aab6376f4a76225f484c",
}


def cloud_digests(pair):
    """Digest of each study's trial tags and poles at the defaults."""
    reports = {
        "robustness": robustness_mc(pair.C, pair.P),
        "fragility": fragility_mc(G_PEND, pair.C, pair.P),
    }
    return {
        study: array_digest([[t for t, _ in rep.pole_cloud], [z for _, z in rep.pole_cloud]])
        for study, rep in reports.items()
    }


def test_pair_a_pole_clouds_pinned():
    assert cloud_digests(PAIR_A) == CLOUD_A_SHA256


def test_pair_b_pole_clouds_pinned():
    assert cloud_digests(PAIR_B) == CLOUD_B_SHA256


class TestDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 3])
    def test_rows_are_the_default_rng_substreams(self, seed):
        # one array pass seeds every trial as default_rng([seed, trial]) would
        for trials in (1, 1000):
            for k in (4, 14):
                want = np.array([
                    np.random.default_rng([seed, t]).normal(0.0, 0.02, k) for t in range(trials)
                ])
                assert _draws(k, trials, 0.02, seed).tobytes() == want.tobytes()

    def test_seed_errors_are_the_library_errors(self):
        for draw in (lambda s: _draws(4, 2, 0.02, s), lambda s: np.random.default_rng([s, 0])):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                draw(-1)
            with pytest.raises(TypeError, match="seed must be integer"):
                draw(1.5)


def test_report_degree_is_the_last_nonzero_entry():
    den = np.array([
        [2.0, 3.0, 1.0, 0.0, 0.0],  # (s+1)(s+2)
        [6.0, 11.0, 6.0, 1.0, 0.0],  # (s+1)(s+2)(s+3)
        [-1.0, 0.0, 0.0, 0.0, 1.0],  # s^4 - 1
    ])
    rep = _mc_report(den, 0.0, 0)
    assert rep.unstable_count == 1
    for trial, row in enumerate(den):
        zs = [z for t, z in rep.pole_cloud if t == trial]
        assert np.array(zs).tobytes() == Polynomial(row).roots().tobytes()
    with pytest.raises(ValueError, match="degenerate loop: closed-loop denominator vanished"):
        _mc_report(np.vstack([den, np.zeros(5)]), 0.0, 0)
    with pytest.raises(ValueError, match="a nonzero constant has no roots"):
        _mc_report(np.vstack([den, [3.0, 0.0, 0.0, 0.0, 0.0]]), 0.0, 0)


class TestRobustnessMc:
    def test_zero_sigma_never_destabilizes(self):
        rep = robustness_mc(PAIR_B.C, PAIR_B.P, trials=100, sigma=0.0, seed=3)
        assert rep.unstable_count == 0

    def test_pair_b_count_band(self):
        rep = robustness_mc(PAIR_B.C, PAIR_B.P, trials=1000, sigma=0.02, seed=0)
        assert 15 <= rep.unstable_count <= 90
        # the cloud holds one int object per trial, shared by its poles
        assert len({id(t) for t, _ in rep.pole_cloud}) == rep.trials

    def test_pair_a_count_band(self):
        rep = robustness_mc(PAIR_A.C, PAIR_A.P, trials=1000, sigma=0.02, seed=0)
        assert 0 <= rep.unstable_count <= 5

    def test_cloud_holds_every_pole(self):
        rep = robustness_mc(PAIR_B.C, PAIR_B.P, trials=20, seed=1)
        # degree-10 closed loop: ten poles per trial
        assert len(rep.pole_cloud) == 200
        assert {t for t, _ in rep.pole_cloud} == set(range(20))

    def test_count_rederivable_from_cloud(self):
        rep = robustness_mc(PAIR_B.C, PAIR_B.P, trials=200, seed=2)
        by_trial = {}
        for t, z in rep.pole_cloud:
            by_trial.setdefault(t, []).append(z)
        rederived = sum(
            1 for zs in by_trial.values() if not all(z.real < 0 for z in zs)
        )
        assert rederived == rep.unstable_count

    def test_deterministic_per_seed(self):
        a = robustness_mc(PAIR_B.C, PAIR_B.P, trials=100, seed=5)
        b = robustness_mc(PAIR_B.C, PAIR_B.P, trials=100, seed=5)
        assert a == b
        c = robustness_mc(PAIR_B.C, PAIR_B.P, trials=100, seed=6)
        assert c.pole_cloud != a.pole_cloud

    def test_validation(self):
        with pytest.raises(ValueError, match="trial"):
            robustness_mc(PAIR_B.C, PAIR_B.P, trials=0)
        with pytest.raises(ValueError, match="sigma"):
            robustness_mc(PAIR_B.C, PAIR_B.P, trials=10, sigma=-0.1)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be finite"):
                robustness_mc(PAIR_B.C, PAIR_B.P, trials=10, sigma=sigma)
            with pytest.raises(ValueError, match="sigma must be finite"):
                fragility_mc(G_PEND, PAIR_B.C, PAIR_B.P, trials=10, sigma=sigma)


class TestFragilityMc:
    def test_zero_sigma_never_destabilizes(self):
        rep = fragility_mc(G_PEND, PAIR_A.C, PAIR_A.P, trials=100, sigma=0.0)
        assert rep.unstable_count == 0

    def test_pair_a_count_band(self):
        rep = fragility_mc(G_PEND, PAIR_A.C, PAIR_A.P, trials=1000, seed=0)
        assert 0 <= rep.unstable_count <= 30

    def test_pair_b_count_band(self):
        rep = fragility_mc(G_PEND, PAIR_B.C, PAIR_B.P, trials=1000, seed=0)
        assert 10 <= rep.unstable_count <= 70

    def test_pole_on_axis_counts_unstable(self):
        # G = s/(s+1), C = 1/(s+1), P = -1/(s+1): loop denominator
        # s^3 + 4s^2 + 3s has a pole exactly at the origin
        G = RationalTF((0.0, 1.0), (1.0, 1.0))
        C = RationalTF((1.0,), (1.0, 1.0))
        P = RationalTF((-1.0,), (1.0, 1.0))
        assert not verify_pair(G, CompensatorPair(C, P)).closed_loop_stable
        rep = fragility_mc(G, C, P, trials=3, sigma=0.0)
        assert rep.unstable_count == 3

    def test_poles_on_axis_count_unstable(self):
        # G = 1/(s^2 + 1), C = 0, P = 1/(s + 1): loop denominator
        # (s + 1)(s^2 + 1), whose float roots +-i have real part about -1e-18
        G = RationalTF((1.0,), (1.0, 0.0, 1.0))
        C = RationalTF((0.0,), (1.0,))
        P = RationalTF((1.0,), (1.0, 1.0))
        assert not verify_pair(G, CompensatorPair(C, P)).closed_loop_stable
        rep = fragility_mc(G, C, P, trials=3, sigma=0.0)
        assert rep.unstable_count == 3

    def test_requires_normalized_denominators(self):
        C = RationalTF((1.0,), (2.0, 1.0))  # constant term 2
        with pytest.raises(ValueError, match="normalized"):
            fragility_mc(G_PEND, C, PAIR_A.P, trials=10)

    def test_conjugate_symmetric_cloud(self):
        rep = fragility_mc(G_PEND, PAIR_B.C, PAIR_B.P, trials=50, seed=4)
        by_trial = {}
        for t, z in rep.pole_cloud:
            by_trial.setdefault(t, []).append(z)
        for zs in by_trial.values():
            got = np.sort_complex(np.asarray(zs))
            mirrored = np.sort_complex(np.conj(np.asarray(zs)))
            assert np.allclose(got, mirrored, rtol=0, atol=0)

    def test_deterministic_per_seed(self):
        a = fragility_mc(G_PEND, PAIR_B.C, PAIR_B.P, trials=100, seed=9)
        b = fragility_mc(G_PEND, PAIR_B.C, PAIR_B.P, trials=100, seed=9)
        assert a == b


class TestSigmaMonotonicity:
    def test_mean_count_grows_with_sigma(self):
        # smoke check, not a theorem: small samples may invert one step
        sigmas = (0.01, 0.02, 0.05)
        means = []
        for s in sigmas:
            counts = [
                robustness_mc(
                    PAIR_B.C, PAIR_B.P, trials=200, sigma=s, seed=seed
                ).unstable_count
                for seed in range(5)
            ]
            means.append(sum(counts) / len(counts))
        inversions = sum(1 for a, b in zip(means, means[1:]) if b < a)
        assert inversions <= 1


class TestMcReport:
    def test_count_bounded_by_trials(self):
        with pytest.raises(ValueError, match="exceed"):
            McReport(
                trials=5, unstable_count=6, pole_cloud=(), seed=0, sigma=0.02
            )

    def test_json_and_csv(self, tmp_path):
        rep = robustness_mc(PAIR_A.C, PAIR_A.P, trials=5, seed=7)
        d = json.loads(rep.to_json())
        assert d["trials"] == 5
        assert d["seed"] == 7
        assert d["sigma"] == 0.02
        assert len(d["pole_cloud"]) == len(rep.pole_cloud)
        t0, re0, im0 = d["pole_cloud"][0]
        assert (t0, complex(re0, im0)) == rep.pole_cloud[0]
        path = tmp_path / "cloud.csv"
        rep.cloud_to_csv(path)
        got = np.genfromtxt(path, delimiter=",", names=True)
        assert got["trial"][0] == rep.pole_cloud[0][0]
        assert got["re"].tolist() == pytest.approx(
            [z.real for _, z in rep.pole_cloud]
        )
        assert got["im"].tolist() == pytest.approx(
            [z.imag for _, z in rep.pole_cloud]
        )
