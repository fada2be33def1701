import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfclab.modern import (
    GainMatrices,
    _verdict,
    combined_system,
    common_factors,
    controllability_matrix,
    equivalent_Kb,
    equivalent_Kf,
    gain_design,
    observability_matrix,
    place_poles,
    remove_factor,
    ss_to_tf,
)
from pfclab.plant import PendulumParams, StateSpace, linear_plant, position_plant
from pfclab.poly import Polynomial
from pfclab.sim import realize
from pfclab.tf import RationalTF

from helpers import (
    expand_conjugates,
    match_error,
    separated,
    stable_root,
    tf_equal_up_to_scale,
)

SS = linear_plant(PendulumParams(M=0.3))
SYS_POLES = [-1 + 1j, -1 - 1j, -2 + 1j, -2 - 1j]
EST_POLES = [-1.0, -2.0, -3 + 1j, -3 - 1j]


def pendulum_q():
    gains = gain_design(SS, SYS_POLES, EST_POLES)
    comb = combined_system(SS, gains)
    raw = ss_to_tf(comb.A, comb.B, comb.C)
    est_factor = Polynomial.from_roots(EST_POLES)
    return remove_factor(raw, est_factor), raw, est_factor


class TestControllability:
    def test_printed_matrix(self):
        cm = controllability_matrix(SS)
        want = np.array(
            [
                [100 / 9, 0.0, 10 / 3, 0.0],
                [-130 / 9, 0.0, -10 / 3, 0.0],
                [0.0, 100 / 9, 0.0, 10 / 3],
                [0.0, -130 / 9, 0.0, -10 / 3],
            ]
        )
        np.testing.assert_allclose(cm.matrix, want, rtol=1e-13, atol=0.0)
        assert cm.rank == 4

    def test_zero_input_matrix_has_rank_zero(self):
        ss = StateSpace(A=SS.A, B=np.zeros((4, 1)), C=SS.C)
        assert controllability_matrix(ss).rank == 0

    def test_rank_invariant_under_similarity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            T, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            ss = StateSpace(A=T @ SS.A @ T.T, B=T @ SS.B, C=SS.C @ T.T)
            assert controllability_matrix(ss).rank == 4


class TestObservability:
    def test_printed_matrix(self):
        om = observability_matrix(SS)
        want = np.array(
            [
                [0.0, 0.0, 0.0, -10 / 3],
                [0.0, -10 / 3, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(om.matrix, want, rtol=1e-13, atol=0.0)
        assert om.rank == 4

    def test_zero_output_matrix_has_rank_zero(self):
        ss = StateSpace(A=SS.A, B=SS.B, C=np.zeros((1, 4)))
        assert observability_matrix(ss).rank == 0

    def test_duality_with_controllability(self):
        dual = StateSpace(A=SS.A.T, B=SS.C.T, C=SS.B.T)
        assert observability_matrix(SS).rank == controllability_matrix(dual).rank


class TestPlacePoles:
    def test_pendulum_system_poles(self):
        K = place_poles(SS.A, SS.B, SYS_POLES)
        assert K.shape == (1, 4)
        eig = np.linalg.eigvals(SS.A - SS.B @ K)
        assert match_error(eig, SYS_POLES) < 1e-6

    def test_pendulum_gain_values(self):
        # hand-checked against the closed-loop eigenvalues
        K = place_poles(SS.A, SS.B, SYS_POLES)
        np.testing.assert_allclose(K, [[-3.0, -8.8, -5.4, -7.2]], rtol=1e-9)

    def test_observer_by_duality(self):
        Gobs = place_poles(SS.A.T, SS.C.T, EST_POLES).T
        eig = np.linalg.eigvals(SS.A - Gobs @ SS.C)
        assert match_error(eig, EST_POLES) < 1e-6

    def test_zero_gain_when_poles_already_placed(self):
        # A's characteristic polynomial equals the target, so phi(A) = 0
        phi = Polynomial.from_roots([-1.0, -2.0, -3.0, -4.0])
        A = np.zeros((4, 4))
        A[:-1, 1:] = np.eye(3)
        A[-1, :] = [-c for c in phi.coeffs[:4]]
        B = np.array([[0.0], [0.0], [0.0], [1.0]])
        K = place_poles(A, B, [-1.0, -2.0, -3.0, -4.0])
        np.testing.assert_allclose(K, np.zeros((1, 4)), atol=1e-9)

    def test_uncontrollable_pair_rejected(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="not controllable"):
            place_poles(A, B, [-3.0, -4.0])

    def test_unpaired_complex_poles_rejected(self):
        with pytest.raises(ValueError, match="conjugation"):
            place_poles(SS.A, SS.B, [-1 + 1j, -2.0, -3.0, -4.0])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="desired poles"):
            place_poles(SS.A, SS.B, [-1.0, -2.0])

    def test_order_of_desired_list_is_irrelevant(self):
        a = place_poles(SS.A, SS.B, SYS_POLES)
        b = place_poles(SS.A, SS.B, SYS_POLES[::-1])
        np.testing.assert_allclose(a, b, rtol=1e-9)


class TestCombinedSystem:
    def test_block_structure(self):
        gains = gain_design(SS, SYS_POLES, EST_POLES)
        comb = combined_system(SS, gains)
        A, B, C = SS.A, SS.B, SS.C
        K, G = gains.K, gains.Gobs
        np.testing.assert_array_equal(comb.A[:4, :4], A)
        np.testing.assert_array_equal(comb.A[:4, 4:], -B @ K)
        np.testing.assert_array_equal(comb.A[4:, :4], G @ C)
        np.testing.assert_array_equal(comb.A[4:, 4:], A - B @ K - G @ C)
        np.testing.assert_array_equal(comb.B, np.vstack([B, B]))
        np.testing.assert_array_equal(comb.C, [[1.0, 0, 0, 0, 0, 0, 0, 0]])

    def test_separation_principle(self):
        gains = gain_design(SS, SYS_POLES, EST_POLES)
        comb = combined_system(SS, gains)
        eig = np.linalg.eigvals(comb.A)
        assert match_error(eig, SYS_POLES + EST_POLES) < 1e-6

    def test_zero_gains_give_block_diagonal(self):
        gains = GainMatrices(K=np.zeros((1, 4)), Gobs=np.zeros((4, 1)))
        comb = combined_system(SS, gains)
        np.testing.assert_array_equal(comb.A[:4, 4:], np.zeros((4, 4)))
        np.testing.assert_array_equal(comb.A[4:, :4], np.zeros((4, 4)))
        np.testing.assert_array_equal(comb.A[4:, 4:], SS.A)

    def test_separation_for_random_pole_sets(self):
        rng = np.random.default_rng(77)

        def draw_set():
            # 0, 1 or 2 conjugate pairs, topped up with real poles
            pairs = rng.integers(0, 3)
            picks = [
                complex(rng.uniform(-4, -0.5), rng.uniform(0.3, 2.0))
                for _ in range(pairs)
            ] + [complex(rng.uniform(-4, -0.5), 0.0) for _ in range(4 - 2 * pairs)]
            return expand_conjugates(picks)

        checked = 0
        while checked < 15:
            sys_p, est_p = draw_set(), draw_set()
            # near-degenerate sets are ill-conditioned past the 1e-6 bar
            if not (separated(sys_p, 0.25) and separated(est_p, 0.25)):
                continue
            gains = gain_design(SS, sys_p, est_p)
            comb = combined_system(SS, gains)
            assert match_error(np.linalg.eigvals(comb.A), sys_p + est_p) < 1e-6
            checked += 1


class TestSsToTf:
    def test_single_state(self):
        tf = ss_to_tf(np.array([[-1.0]]), [[1.0]], [[1.0]])
        assert tf.num.coeffs == (1.0,)
        assert tf.den.coeffs == (1.0, 1.0)

    def test_pendulum_recovers_position_plant(self):
        tf = ss_to_tf(SS.A, SS.B, SS.C)
        assert tf_equal_up_to_scale(tf, position_plant(), rtol=1e-9)

    def test_feedthrough_term(self):
        tf = ss_to_tf([[-2.0]], [[1.0]], [[-1.0]], D=1.0)
        # -1/(s+2) + 1 = (s+1)/(s+2)
        np.testing.assert_allclose(tf.num.coeffs, (1.0, 1.0), rtol=1e-14)
        np.testing.assert_allclose(tf.den.coeffs, (2.0, 1.0), rtol=1e-14)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            ss_to_tf(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))

    @given(
        den_roots=st.lists(stable_root(), min_size=1, max_size=3, unique=True),
        num_coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=7),
        feedthrough=st.booleans(),
    )
    def test_roundtrip_with_realize(self, den_roots, num_coeffs, feedthrough):
        from hypothesis import assume

        assume(separated(den_roots))
        den = Polynomial.from_roots(expand_conjugates(den_roots))
        limit = den.degree + (1 if feedthrough else 0)
        num = Polynomial(num_coeffs[: max(1, limit)])
        tf = RationalTF(num, den)
        back = ss_to_tf(*(lambda r: (r.A, r.B, r.C, r.D))(realize(tf)))
        scale = max(abs(c) for c in den.coeffs)
        want_den = np.array(den.coeffs) / den.leading
        got_den = np.zeros_like(want_den)
        got_den[: len(back.den.coeffs)] = back.den.coeffs
        np.testing.assert_allclose(got_den, want_den, atol=1e-8 * scale)
        want_num = np.array(num.coeffs) / den.leading
        got_num = np.zeros(len(want_num))
        got_num[: len(back.num.coeffs)] = back.num.coeffs[: len(want_num)]
        nscale = max(1.0, float(np.max(np.abs(want_num))))
        np.testing.assert_allclose(got_num, want_num, atol=1e-8 * nscale)


class TestEstimatorPipeline:
    def test_raw_denominator_is_product_of_both_pole_sets(self):
        _, raw, _ = pendulum_q()
        want = Polynomial.from_roots(SYS_POLES) * Polynomial.from_roots(EST_POLES)
        np.testing.assert_allclose(raw.den.coeffs, want.coeffs, rtol=1e-9)

    def test_estimator_factor_is_integer_quartic(self):
        factor = Polynomial.from_roots(EST_POLES)
        assert factor.coeffs == (20.0, 42.0, 30.0, 9.0, 1.0)

    def test_q_matches_printed_coefficients(self):
        q, _, _ = pendulum_q()
        scale = 3.0 / q.den.leading
        np.testing.assert_allclose(
            [c * scale for c in q.den.coeffs], [30, 54, 45, 18, 3], rtol=1e-6
        )
        np.testing.assert_allclose(
            [c * scale for c in q.num.coeffs], [-10, 0, 10], rtol=1e-6, atol=1e-9
        )

    def test_q_shares_plant_zeros(self):
        q, _, _ = pendulum_q()
        assert match_error(q.zeros(), [-1.0, 1.0]) < 1e-6

    def test_q_poles_are_the_system_poles(self):
        q, _, _ = pendulum_q()
        assert match_error(q.poles(), SYS_POLES) < 1e-6

    def test_common_factor_report_sees_simple_estimator_roots(self):
        # the repeated root at -1 splits beyond the matching tolerance, so
        # only the simple shared roots are reportable
        _, raw, _ = pendulum_q()
        shared = common_factors(raw)
        assert match_error(shared, [-2.0, -3 + 1j, -3 - 1j]) < 1e-5

    def test_remove_factor_rejects_non_divisor(self):
        q, raw, _ = pendulum_q()
        with pytest.raises(ValueError, match="does not divide"):
            remove_factor(raw, Polynomial((-5.0, 1.0)))  # s-5 divides neither side


class TestEquivalentCompensators:
    def test_kb_matches_printed_form(self):
        q, _, _ = pendulum_q()
        kb = equivalent_Kb(q, position_plant())
        want = RationalTF((15.0, 27.0, 29.0, 9.0), (-5.0, 0.0, 5.0))
        assert tf_equal_up_to_scale(kb.reduced, want, rtol=1e-6)
        assert not kb.proper
        assert not kb.stable

    def test_kb_of_identical_tfs_is_zero(self):
        G = position_plant()
        kb = equivalent_Kb(G, G)
        assert kb.reduced.is_zero
        assert kb.proper and kb.stable

    def test_kb_rejects_zero_q(self):
        with pytest.raises(ValueError, match="nonzero"):
            equivalent_Kb(RationalTF((0.0,), (1.0, 1.0)), position_plant())

    def test_kf_matches_printed_form(self):
        q, _, _ = pendulum_q()
        kf = equivalent_Kf(q, position_plant())
        want = RationalTF((0.0, 0.0, -13.0, 0.0, 3.0), (40.0, 54.0, 35.0, 18.0, 3.0))
        assert tf_equal_up_to_scale(kf.reduced, want, rtol=1e-6)
        assert kf.proper
        assert kf.stable

    def test_kf_denominator_subtraction_oracle(self):
        d_q = Polynomial((30.0, 54.0, 45.0, 18.0, 3.0))
        n_q = Polynomial((-10.0, 0.0, 10.0))
        diff = d_q - n_q
        assert diff.coeffs == (40.0, 54.0, 35.0, 18.0, 3.0)
        assert diff(0.0) == 40.0

    def test_kf_cancellation_with_plant_is_flagged(self):
        q, _, _ = pendulum_q()
        kf = equivalent_Kf(q, position_plant())
        assert kf.rhp_cancellation
        assert len(kf.plant_cancellations) >= 4
        assert max(r.real for r in kf.plant_cancellations) > 2.0

    def test_kb_also_cancels_the_plant_zeros(self):
        # the feedback-only form hides +-1 between its poles and G's zeros
        q, _, _ = pendulum_q()
        kb = equivalent_Kb(q, position_plant())
        assert kb.rhp_cancellation

    def test_cancellation_at_the_origin_is_flagged(self):
        # s^2 in the numerator cancels the plant's double pole at the origin,
        # which lies in the closed right half plane as pip_check counts it
        v = _verdict(RationalTF((0.0, 0.0, 1.0), (1.0, 1.0)), position_plant())
        assert sorted(v.plant_cancellations, key=abs)[:2] == [0.0, 0.0]
        assert v.rhp_cancellation
