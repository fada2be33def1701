"""Coefficient-vector search layer: encoding, objective, GA, verification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfclab.designs import ANGLE_DEMO_COMPENSATOR, PAIR_A, PAIR_B
from pfclab.plant import angle_plant, position_plant
from pfclab.synth import (
    LARGE,
    CoeffVector,
    GaConfig,
    ObjectiveConfig,
    decode,
    encode,
    ga_search,
    objective,
    objective_batch,
    verify_pair,
)
from pfclab.tf import CompensatorPair, RationalTF, loop_denominator

from helpers import array_digest, rightmost_real_part
from oracles import routh_is_stable

G_PEND = position_plant()
EASY = RationalTF((1.0,), (-1.0, 1.0))  # 1/(s-1)

# objective values of the builtin pairs on the benchmark plant, frozen
# from a direct evaluation; pair a comes out negative because its huge
# pole near -2.1e3 belongs to C alone, not to the closed loop
F_PAIR_A = -0.14494205154348355
F_PAIR_B = -0.3192543750769919

# SHA-256 of history, best_q and best_F of the n=3, seed-1 search below,
# recorded with the one-candidate-at-a-time scorer that objective_batch
# replaced (Python 3.11.7, numpy 2.4.6)
GA_N3_SEED1_SHA256 = "e8a8488b80d9ff6174221ece99b4fc159859a3287b32f6bf5997e9a85a1bcf9f"


def brute_F(q, n, G, penalty=6.0, eps1=1e-5, eps2=1e-4):
    """Objective recomputed with numpy-only polynomial arithmetic."""
    q = np.asarray(q, float)
    a, b = q[: 2 * n + 1], q[2 * n + 1 :]
    nC, dC = a[: n + 1][::-1], np.concatenate([a[n + 1 :][::-1], [1.0]])
    nP, dP = b[: n + 1][::-1], np.concatenate([b[n + 1 :][::-1], [1.0]])
    nG, dG = np.asarray(G.num.coeffs)[::-1], np.asarray(G.den.coeffs)[::-1]
    conv = np.convolve
    D = np.polyadd(
        np.polyadd(conv(conv(dC, dG), dP), conv(conv(nC, nP), dG)),
        conv(conv(nC, nG), dP),
    )
    zc, zp, zh = np.roots(dC), np.roots(dP), np.roots(D)
    p1 = max(zc.real.max(), zp.real.max())
    p2 = zh.real.max()
    f0 = p2 + penalty * p1 if p1 >= 0 else p2
    return f0 + eps1 * np.linalg.norm(q) + eps2 * np.abs(zh).max()


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


class TestCoeffVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            CoeffVector((1.0, 2.0, 3.0), n=1)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            CoeffVector((1.0, 1.0), n=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CoeffVector((1, 0, 1, 0, 0, np.inf), n=1)

    def test_split_blocks(self):
        v = CoeffVector(tuple(range(6)), n=1)
        a, b = v.split()
        assert a == (0.0, 1.0, 2.0)
        assert b == (3.0, 4.0, 5.0)


class TestDecodeEncode:
    def test_decode_order_one_example(self):
        pair = decode(CoeffVector((1, 0, 1, 0, 0, 1), n=1))
        assert pair.C.num.coeffs == (1.0,)
        assert pair.C.den.coeffs == (1.0, 1.0)
        assert pair.P.num.coeffs == (0.0,)
        assert pair.P.den.coeffs == (1.0, 1.0)

    def test_pair_a_coefficients_read_off(self):
        # both builtin denominators already have unit constant term, so
        # the encoding is the coefficient list verbatim
        v = encode(PAIR_A)
        assert v.n == 3
        assert v.q == (
            0.09, 0.9, 2.0, -10.1, 10.2, 4.2, 0.002,
            -1.9, -0.1, 7.0, 0.05, 5.4, 21.7, 11.0,
        )

    def test_encode_normalizes_constant_term(self):
        C = RationalTF((2.0,), (4.0, 2.0))  # 2/(4+2s) = 0.5/(1+0.5s)
        P = RationalTF((1.0,), (2.0, 1.0))
        v = encode(CompensatorPair(C, P), n=1)
        assert v.q == (0.5, 0.0, 0.5, 0.5, 0.0, 0.5)

    def test_encode_rejects_zero_constant_term(self):
        C = RationalTF((1.0,), (0.0, 1.0))
        with pytest.raises(ValueError, match="constant term"):
            encode(CompensatorPair(C, C), n=1)

    def test_encode_rejects_degree_above_order(self):
        with pytest.raises(ValueError, match="order"):
            encode(PAIR_A, n=2)

    @given(
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_decode_encode_roundtrip(self, n, data):
        coeff = st.floats(
            min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
        )
        q = data.draw(
            st.lists(coeff, min_size=4 * n + 2, max_size=4 * n + 2)
        )
        v = CoeffVector(q, n)
        assert encode(decode(v), n).q == v.q


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


class TestObjective:
    def stable_vec(self):
        # C = 1/(s+1), P = 1/(s+2), both rescaled to unit constant den
        pair = CompensatorPair(
            RationalTF((1.0,), (1.0, 1.0)), RationalTF((1.0,), (2.0, 1.0))
        )
        return encode(pair, n=1)

    def test_matches_brute_force_on_stable_candidate(self):
        G = RationalTF((1.0,), (3.0, 1.0))
        v = self.stable_vec()
        F = objective(v, ObjectiveConfig(plant=G))
        assert F == pytest.approx(brute_F(v.q, 1, G), rel=1e-9)
        # p1 < 0 branch: no penalty term, F is negative for this loop
        assert F < 0

    def test_penalty_branch_arithmetic(self):
        # C pole at exactly +2: den 1 - s/2
        G = RationalTF((1.0,), (3.0, 1.0))
        v = CoeffVector((1, 0, -0.5, 0.5, 0, 0.5), n=1)
        cfg = ObjectiveConfig(plant=G)
        F = objective(v, cfg)
        assert F == pytest.approx(brute_F(v.q, 1, G), rel=1e-9)
        # strip regularizers to expose f0 = p2 + 6*2
        q = np.asarray(v.q)
        pair = decode(v)
        zh = np.roots(
            np.polyadd(
                np.polyadd(
                    np.convolve(np.convolve([-0.5, 1], [1, 3]), [0.5, 1]),
                    np.convolve([0.5], [1, 3]),
                ),
                np.convolve([1], [0.5, 1]),
            )
        )
        f0 = F - 1e-5 * np.linalg.norm(q) - 1e-4 * np.abs(zh).max()
        assert f0 == pytest.approx(zh.real.max() + 6.0 * 2.0, rel=1e-7)

    def test_pair_b_scores_negative(self):
        F = objective(encode(PAIR_B), ObjectiveConfig(plant=G_PEND))
        assert F < 0
        assert F == pytest.approx(F_PAIR_B, rel=1e-12)

    def test_pair_a_measured_value(self):
        # recorded, not assumed: the sign was an open question because of
        # the fast C pole, and the measurement settles it
        F = objective(encode(PAIR_A), ObjectiveConfig(plant=G_PEND))
        assert F == pytest.approx(F_PAIR_A, rel=1e-12)

    def test_bit_for_bit_reproducible(self):
        v = encode(PAIR_B)
        cfg = ObjectiveConfig(plant=G_PEND)
        assert objective(v, cfg) == objective(v, cfg)

    def test_degree_collapse_scores_large(self):
        # leading denominator gene exactly zero: C = 1/1, degree drop
        v = CoeffVector((1, 0, 0, 1, 0, 1), n=1)
        assert objective(v, ObjectiveConfig(plant=EASY)) == LARGE
        # C = (1+s)/(1+s), P = (1-s)/(1+s): the loop's s^3 terms cancel,
        # leaving (1+s)(3s-1); scored and audited without a warning
        v = CoeffVector((1, 1, 1, 1, -1, 1), n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert objective(v, ObjectiveConfig(plant=EASY)) == LARGE
            rep = verify_pair(EASY, decode(v))
        assert not rep.passed and not rep.closed_loop_stable

    def test_batch_matches_one_row_bit_for_bit(self):
        rng = np.random.default_rng(11)
        cfg = ObjectiveConfig(plant=G_PEND)
        for n in (1, 2, 3):
            rows = rng.uniform(-12.0, 12.0, (40, 4 * n + 2))
            rows[3, 2 * n] = 0.0  # C denominator degree collapse
            rows[5, 4 * n + 1] = 0.0  # P denominator degree collapse
            rows[7, 0] = 0.0  # a0 == 0: a loop pole exactly at the origin
            F = objective_batch(rows, n, cfg)
            alone = [objective(CoeffVector(r, n), cfg) for r in rows]
            assert F.tobytes() == np.array(alone).tobytes()
            assert F[3] == F[5] == LARGE
            # the origin pole is scored, not degenerate: p2 = 0 at best
            assert 0.0 <= F[7] < LARGE
        # loop degree drop (see above) and a loop denominator that vanishes:
        # C = -1 and P = 0 around the unit plant give d_P*(d_C + n_C) = 0
        for plant, bad in (
            (EASY, (1, 1, 1, 1, -1, 1)),
            (RationalTF((1.0,), (1.0,)), (-1, -1, 1, 0, 0, 1)),
        ):
            cfg = ObjectiveConfig(plant=plant)
            rows = np.vstack([rng.uniform(-12.0, 12.0, (5, 6)), bad, rng.uniform(-12.0, 12.0, (5, 6))])
            F = objective_batch(rows, 1, cfg)
            alone = [objective(CoeffVector(r, 1), cfg) for r in rows]
            assert F.tobytes() == np.array(alone).tobytes()
            assert F[5] == LARGE and np.all(F[np.arange(11) != 5] != LARGE)

    def test_continuous_across_penalty_switch(self):
        # compensator pole pair at (+/-)delta + i: crossing p1 = 0 changes
        # branch but not the limit value
        G = RationalTF((1.0,), (3.0, 1.0))
        delta = 1e-8

        def vec(d):
            # (s - (d+i))(s - (d-i)) scaled to unit constant term
            c = 1.0 + d * d
            return CoeffVector(
                (1, 0, 0, -2 * d / c, 1 / c, 0, 0, 0, 0, 1),
                n=2,
            )

        cfg = ObjectiveConfig(plant=G)
        F_plus = objective(vec(delta), cfg)
        F_minus = objective(vec(-delta), cfg)
        assert abs(F_plus - F_minus) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError, match="penalty"):
            ObjectiveConfig(plant=EASY, penalty=0.0)
        with pytest.raises(ValueError, match="eps"):
            ObjectiveConfig(plant=EASY, eps1=-1e-9)


# ---------------------------------------------------------------------------
# GA search
# ---------------------------------------------------------------------------


class TestGaSearch:
    def test_easy_plant_finds_stabilizer(self):
        cfg = GaConfig(population=60, generations=40, seed=0)
        res = ga_search(ObjectiveConfig(plant=EASY), cfg, n=1)
        assert res.success
        # independent audit of the winner
        rep = verify_pair(EASY, res.pair)
        assert rep.passed
        pair = res.pair
        D = np.polyadd(
            np.polyadd(
                np.convolve(
                    np.convolve(
                        np.asarray(pair.C.den.coeffs)[::-1], [1.0, -1.0]
                    ),
                    np.asarray(pair.P.den.coeffs)[::-1],
                ),
                np.convolve(
                    np.convolve(
                        np.asarray(pair.C.num.coeffs)[::-1],
                        np.asarray(pair.P.num.coeffs)[::-1],
                    ),
                    [1.0, -1.0],
                ),
            ),
            np.convolve(
                np.asarray(pair.C.num.coeffs)[::-1],
                np.asarray(pair.P.den.coeffs)[::-1],
            ),
        )
        assert np.roots(D).real.max() < 0

    def test_fixed_seed_is_deterministic(self):
        ocfg = ObjectiveConfig(plant=EASY)
        gcfg = GaConfig(population=12, generations=5, seed=7)
        r1 = ga_search(ocfg, gcfg, n=1)
        r2 = ga_search(ocfg, gcfg, n=1)
        assert r1.history == r2.history
        assert r1.best_q.q == r2.best_q.q
        assert r1.best_F == r2.best_F

    def test_pinned_history_n3_seed1(self):
        cfg = ObjectiveConfig(plant=G_PEND)
        res = ga_search(cfg, GaConfig(seed=1, generations=8), 3)
        digest = array_digest([res.history, res.best_q.q, [res.best_F]])
        assert digest == GA_N3_SEED1_SHA256
        assert res.best_F == objective(res.best_q, cfg)

    def test_history_is_monotone_best_ever(self):
        res = ga_search(
            ObjectiveConfig(plant=EASY),
            GaConfig(population=12, generations=8, seed=3),
            n=1,
        )
        assert len(res.history) == 9
        assert list(res.history) == sorted(res.history, reverse=True)
        assert res.history[-1] == res.best_F

    def test_zero_generations_returns_initial_best(self):
        gcfg = GaConfig(population=15, generations=0, seed=11)
        res = ga_search(ObjectiveConfig(plant=EASY), gcfg, n=1)
        assert len(res.history) == 1
        assert res.best_F == res.history[0]
        # recompute the initial population's best from the same stream
        rng = np.random.default_rng(11)
        pop = rng.uniform(-12.0, 12.0, (15, 6))
        F = min(
            objective(CoeffVector(row, 1), ObjectiveConfig(plant=EASY))
            for row in pop
        )
        assert res.best_F == F

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            ga_search(ObjectiveConfig(plant=EASY), GaConfig(), n=0)

    def test_ga_config_validation(self):
        with pytest.raises(ValueError, match="population"):
            GaConfig(population=1)
        with pytest.raises(ValueError, match="crossover_rate"):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(ValueError, match="elitism"):
            GaConfig(population=4, elitism=4)
        with pytest.raises(ValueError, match="init_range"):
            GaConfig(init_range=(3.0, -3.0))
        with pytest.raises(ValueError, match="generations"):
            GaConfig(generations=-1)
        for scale in (math.inf, math.nan):
            with pytest.raises(ValueError, match="mutation_scale"):
                GaConfig(mutation_scale=scale)
        for interval in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="init_range"):
                GaConfig(init_range=interval)

    def test_result_serialization(self, tmp_path):
        res = ga_search(
            ObjectiveConfig(plant=EASY),
            GaConfig(population=10, generations=3, seed=2),
            n=1,
        )
        d = res.to_json_dict()
        assert d["n"] == 1
        assert d["ga"]["seed"] == 2
        assert d["objective"]["plant"]["num"] == [1.0]
        assert len(d["history"]) == 4
        assert d["best_q"] == list(res.best_q.q)
        path = tmp_path / "history.csv"
        res.history_to_csv(path)
        got = np.genfromtxt(path, delimiter=",", names=True)
        assert got["best_F"].tolist() == pytest.approx(list(res.history))
        assert got["generation"].tolist() == list(range(4))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class TestVerifyPair:
    def test_builtin_pairs_pass(self):
        for pair in (PAIR_A, PAIR_B):
            rep = verify_pair(G_PEND, pair)
            assert rep.passed
            assert rep.c_rightmost < 0
            assert rep.p_rightmost < 0
            assert rep.h_rightmost < 0
            assert rep.c_relative_degree == 0
            assert rep.p_relative_degree == 0

    def test_angle_loop_with_zero_feedforward(self):
        # gain-5 lead compensator on the angle plant needs no feedforward
        C = 5.0 * ANGLE_DEMO_COMPENSATOR
        pair = CompensatorPair(C, RationalTF((0.0,), (1.0,)))
        F = angle_plant()
        rep = verify_pair(F, pair)
        assert rep.passed
        # cross-check the loop polynomial with the Routh oracle
        D = (
            C.den * F.den + C.num * F.num
        )
        assert routh_is_stable(D.coeffs)

    def test_unstable_compensator_fails_with_margin(self):
        bad = CompensatorPair(
            RationalTF((1.0,), (-1.0, 1.0)), RationalTF((0.0,), (1.0,))
        )
        rep = verify_pair(G_PEND, bad)
        assert not rep.passed
        assert not rep.c_stable
        assert rep.c_rightmost == pytest.approx(1.0)

    def test_improper_compensator_flagged(self):
        pair = CompensatorPair(
            RationalTF((1.0, 2.0), (1.0,)), RationalTF((0.0,), (1.0,))
        )
        rep = verify_pair(G_PEND, pair)
        assert not rep.c_proper
        assert rep.c_relative_degree == -1

    @pytest.mark.parametrize(
        "pair",
        [
            PAIR_A,
            PAIR_B,
            CompensatorPair(RationalTF((1.0,), (-1.0, 1.0)), RationalTF((0.0,), (1.0,))),
            CompensatorPair(RationalTF((2.0,), (1.0,)), PAIR_B.P),
        ],
        ids=["a", "b", "failing", "constant-C-den"],
    )
    def test_report_matches_per_polynomial_checks(self, pair):
        rep = verify_pair(G_PEND, pair)
        dens = (pair.C.den, pair.P.den, loop_denominator(G_PEND, pair.C, pair.P))
        stable = (rep.c_stable, rep.p_stable, rep.closed_loop_stable)
        rightmost = (rep.c_rightmost, rep.p_rightmost, rep.h_rightmost)
        for den, ok, r in zip(dens, stable, rightmost):
            assert ok == den.is_hurwitz()
            assert r == (rightmost_real_part(den) if den.degree else -math.inf)

    def test_report_json_fields(self):
        d = verify_pair(G_PEND, PAIR_B).to_json_dict()
        assert d["passed"] is True
        assert set(d) >= {
            "c_proper", "p_proper", "c_stable", "p_stable",
            "closed_loop_stable", "h_rightmost",
        }

    def test_successful_search_passes_verification(self):
        res = ga_search(
            ObjectiveConfig(plant=EASY),
            GaConfig(population=60, generations=40, seed=0),
            n=1,
        )
        assert res.success
        assert verify_pair(EASY, res.pair).passed
