import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfclab.designs import PAIR_A, PAIR_B
from pfclab.plant import PendulumParams, angle_plant, position_plant
from pfclab.poly import Polynomial
from pfclab.sim import (
    CHUNK,
    DIVERGENCE_BOUND,
    FAST_POLE_PRODUCT_LIMIT,
    NoiseSpec,
    TimeSeries,
    TrajectoryDiverged,
    angle_step_response,
    linear_closed_loop,
    noise_time_response,
    nonlinear_closed_loop,
    realize,
    step_response,
    _loop_model,
    _rk4_maps,
    _sim_grid,
)
from pfclab.tf import NoiseChannelSet, RationalTF, angular_closed_loop, closed_loop, noise_channels

from helpers import (
    array_digest,
    expand_conjugates,
    reference_linear_closed_loop,
    reference_noise_time_response,
    reference_nonlinear_closed_loop,
    reference_step_response,
    rightmost_real_part,
    separated,
    stable_root,
)

G = position_plant()
F = angle_plant()
H_A = closed_loop(G, PAIR_A.C, PAIR_A.P)
H_B = closed_loop(G, PAIR_B.C, PAIR_B.P)


class TestRealize:
    def test_first_order_lag(self):
        rz = realize(RationalTF((1.0,), (1.0, 1.0)))
        np.testing.assert_array_equal(rz.A, [[-1.0]])
        np.testing.assert_array_equal(rz.B, [[1.0]])
        np.testing.assert_array_equal(rz.C, [[1.0]])
        assert rz.D == 0.0

    def test_biproper_division(self):
        # (s+1)/(s+2) = 1 - 1/(s+2)
        rz = realize(RationalTF((1.0, 1.0), (2.0, 1.0)))
        assert rz.D == 1.0
        np.testing.assert_array_equal(rz.A, [[-2.0]])
        np.testing.assert_array_equal(rz.C, [[-1.0]])

    def test_monic_normalization(self):
        rz = realize(RationalTF((2.0,), (4.0, 2.0)))
        np.testing.assert_allclose(rz.A, [[-2.0]])
        np.testing.assert_allclose(rz.C, [[1.0]])

    def test_constant_tf_has_no_states(self):
        rz = realize(RationalTF((3.0,), (2.0,)))
        assert rz.order == 0
        assert rz.D == 1.5

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="no state-space realization"):
            realize(RationalTF((0.0, 0.0, 1.0), (1.0, 1.0)))

    def test_companion_structure(self):
        rz = realize(RationalTF((1.0, 2.0), (6.0, 5.0, 1.0)))
        np.testing.assert_allclose(rz.A, [[0.0, 1.0], [-6.0, -5.0]])
        np.testing.assert_allclose(rz.B, [[0.0], [1.0]])
        np.testing.assert_allclose(rz.C, [[1.0, 2.0]])

    def test_closed_loop_eigenvalues_match_poles(self):
        rz = realize(H_B)
        assert rz.order == 10
        eig = np.sort_complex(np.linalg.eigvals(rz.A))
        poles = np.sort_complex(H_B.poles())
        np.testing.assert_allclose(eig, poles, atol=1e-6)

    def test_transfer_function_values_recovered(self):
        rng = np.random.default_rng(42)
        probes = [2.0 + 3.0j, -0.5 + 7.0j, 10.0 + 0.1j]
        for _ in range(50):
            n = rng.integers(1, 6)
            roots = expand_conjugates(
                [
                    complex(rng.uniform(-3, -0.1), rng.uniform(0.1, 2) * rng.integers(0, 2))
                    for _ in range(n)
                ]
            )
            den = Polynomial.from_roots(roots)
            num = Polynomial(rng.uniform(-5, 5, size=rng.integers(1, len(den.coeffs) + 1)))
            if num.is_zero:
                continue
            tf = RationalTF(num, den)
            rz = realize(tf)
            eye = np.eye(rz.order)
            for s in probes:
                got = (rz.C @ np.linalg.solve(s * eye - rz.A, rz.B)).item() + rz.D
                want = tf(s)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestStepResponse:
    def test_first_order_closed_form(self):
        ts = step_response(RationalTF((1.0,), (1.0, 1.0)), t_end=2.0, dt=1e-3)
        k = int(round(1.0 / 1e-3))
        assert ts.t[k] == pytest.approx(1.0)
        assert abs(ts.y[k] - (1.0 - np.exp(-1.0))) < 1e-8

    def test_feedthrough_appears_at_t0(self):
        ts = step_response(RationalTF((1.0, 1.0), (2.0, 1.0)), t_end=1.0, dt=1e-2)
        assert ts.y[0] == 1.0

    def test_pair_a_settles_to_dc_gain(self):
        ts = step_response(H_A, t_end=60.0, dt=1e-3)
        dc = H_A(0.0).real
        assert dc == pytest.approx(100.0 / 9.0, rel=1e-12)
        assert abs(ts.y[-1] - dc) < 0.01 * abs(dc)

    def test_pair_b_settles_to_dc_gain(self):
        ts = step_response(H_B, t_end=60.0, dt=1e-3)
        dc = H_B(0.0).real
        assert dc == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert abs(ts.y[-1] - dc) < 0.01 * abs(dc)

    def test_fourth_order_convergence(self):
        # halving dt should cut the error against the closed form by ~16x
        tf = RationalTF((1.0,), (1.0, 1.0))

        def max_err(dt):
            ts = step_response(tf, t_end=2.0, dt=dt)
            exact = 1.0 - np.exp(-ts.t)
            return np.max(np.abs(ts.y - exact))

        factor = max_err(1e-2) / max_err(5e-3)
        assert 14.0 < factor < 18.0

    def test_fast_pole_triggers_refinement(self):
        # pole -200 at dt = 1e-2 gives a product of 2; 1000 steps of 5e-4 give 0.1
        ts = step_response(RationalTF((200.0,), (200.0, 1.0)), t_end=0.5, dt=1e-2)
        dt = ts.t[1] - ts.t[0]
        assert 200.0 * dt <= FAST_POLE_PRODUCT_LIMIT
        assert ts.t.size == 1001
        assert ts.t[-1] == pytest.approx(0.5, rel=1e-15)

    def test_slow_pole_keeps_requested_dt(self):
        ts = step_response(RationalTF((1.0,), (1.0, 1.0)), t_end=0.5, dt=1e-2)
        assert ts.t[1] - ts.t[0] == pytest.approx(1e-2)

    def test_grid_validation(self):
        tf = RationalTF((1.0,), (1.0, 1.0))
        with pytest.raises(ValueError, match="smaller than t_end"):
            step_response(tf, t_end=1.0, dt=1.0)
        with pytest.raises(ValueError):
            step_response(tf, t_end=-1.0, dt=1e-3)
        for t_end, dt in ((np.inf, 1e-3), (1.0, np.inf), (np.nan, 1e-3), (1.0, np.nan)):
            with pytest.raises(ValueError, match="positive and finite"):
                step_response(tf, t_end=t_end, dt=dt)
        with pytest.raises(ValueError, match="overflows"):
            step_response(tf, t_end=1e300, dt=1e-10)
        # a fast pole's whole-step count overflows too, without a warning
        with pytest.raises(ValueError, match="overflows"):
            step_response(RationalTF((200.0,), (200.0, 1.0)), t_end=1e308, dt=1.0)
        # numpy-scalar inputs overflow into the same error, without a warning
        with pytest.raises(ValueError, match="overflows"):
            step_response(RationalTF((200.0,), (200.0, 1.0)), t_end=np.float64(1e308), dt=1.0)
        with pytest.raises(ValueError, match="overflows"):
            step_response(tf, t_end=np.float64(1e300), dt=1e-10)
        # numpy refuses both grids before allocating anything
        for t_end in (1e12, 1e300):
            with pytest.raises(ValueError, match="too long to allocate"):
                step_response(tf, t_end=t_end, dt=1e-3)

    def test_refinement_never_coarsens_a_finer_step(self):
        # pole -2500 at 5e-5 gives a product of 0.125: the step shortens to 4e-5
        ts = step_response(RationalTF((2500.0,), (2500.0, 1.0)), t_end=0.01, dt=5e-5)
        assert ts.t.size == 251
        assert ts.t[1] == pytest.approx(4e-5, rel=1e-15)
        # pair a's loop (fastest mode 43.6) trips the limit at 2.5e-3 and
        # shortens it to 0.01 / 5 = 2e-3
        A = _loop_model(PendulumParams(), PAIR_A.C, PAIR_A.P)[0]
        assert 43.5 < np.max(np.abs(np.linalg.eigvals(A))) < 43.7
        for run in (nonlinear_closed_loop, linear_closed_loop):
            xs, ths = run(PendulumParams(), PAIR_A.C, PAIR_A.P, 0.0, 0.01, t_end=0.01, dt=2.5e-3)
            assert xs.t[1] == ths.t[1] == 2e-3
            assert len(xs.t) == 6

    @given(
        roots=st.lists(stable_root(re_max=-0.3), min_size=1, max_size=3, unique=True),
        num_coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=3),
    )
    def test_stable_tf_converges_to_dc(self, roots, num_coeffs):
        assume(separated(roots))
        den = Polynomial.from_roots(expand_conjugates(roots))
        num = Polynomial(num_coeffs[: den.degree + 1])
        tf = RationalTF(num, den)
        rightmost = rightmost_real_part(den)
        ts = step_response(tf, t_end=60.0 / abs(rightmost), dt=1e-2)
        dc = tf(0.0).real
        assert abs(ts.y[-1] - dc) < 0.01 * abs(dc) + 1e-6


class TestAngleStepResponse:
    def test_starts_at_zero(self):
        ts = angle_step_response(F, G, PAIR_B.C, PAIR_B.P, t_end=1.0, dt=1e-3)
        assert ts.y[0] == 0.0

    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B], ids=["a", "b"])
    def test_angle_decays(self, pair):
        ts = angle_step_response(F, G, pair.C, pair.P, t_end=60.0, dt=1e-3)
        assert abs(ts.y[-1]) < 1e-3

    def test_mismatched_plants_rejected(self):
        bad_F = RationalTF((1.0,), (1.0, 0.0, -1.0))
        with pytest.raises(ValueError, match="inconsistent plant pair"):
            angle_step_response(bad_F, G, PAIR_B.C, PAIR_B.P)


class TestNonlinearClosedLoop:
    def test_equilibrium_stays_exactly_zero(self):
        xs, ths = nonlinear_closed_loop(
            PendulumParams(), PAIR_B.C, PAIR_B.P, x_ref_step=0.0, theta0=0.0, t_end=1.0
        )
        assert np.all(xs.y == 0.0)
        assert np.all(ths.y == 0.0)

    def test_matches_linear_twin_small_angle(self):
        p = PendulumParams()
        for pair in (PAIR_A, PAIR_B):
            xs_n, th_n = nonlinear_closed_loop(
                p, pair.C, pair.P, x_ref_step=0.0, theta0=1e-3, t_end=5.0
            )
            xs_l, th_l = linear_closed_loop(
                p, pair.C, pair.P, x_ref_step=0.0, theta0=1e-3, t_end=5.0
            )
            for nl, lin in ((xs_n, xs_l), (th_n, th_l)):
                scale = np.max(np.abs(lin.y))
                assert np.max(np.abs(nl.y - lin.y)) <= 0.005 * scale

    def test_pair_b_agreement_at_larger_angle(self):
        p = PendulumParams()
        xs_n, th_n = nonlinear_closed_loop(
            p, PAIR_B.C, PAIR_B.P, x_ref_step=0.0, theta0=0.01, t_end=5.0
        )
        xs_l, th_l = linear_closed_loop(
            p, PAIR_B.C, PAIR_B.P, x_ref_step=0.0, theta0=0.01, t_end=5.0
        )
        for nl, lin in ((xs_n, xs_l), (th_n, th_l)):
            scale = np.max(np.abs(lin.y))
            assert np.max(np.abs(nl.y - lin.y)) <= 0.02 * scale

    def test_large_angle_divergence_reported(self):
        with pytest.raises(TrajectoryDiverged, match="trajectory diverged") as exc:
            nonlinear_closed_loop(
                PendulumParams(), PAIR_B.C, PAIR_B.P, x_ref_step=0.0, theta0=3.0, t_end=60.0
            )
        assert exc.value.t_reached > 0.0


# SHA-256 of the linear closed-loop (cart, angle) series with their time
# grids, theta0=0.01 over 5 s, and of the 60 s position and angle step
# responses; recorded when each simulation still assembled its own loop,
# pair a's loop entries again when the step came from the loop matrix
# (Python 3.11.7, numpy 2.4.6)
LINEAR_LOOP_SHA256 = {
    ("a", 0.0): "9d306020a5a679bb59e83eb63fc9c90b616d3c4202406a4e92e792d7884b9545",
    ("a", 0.001): "0e97d1abc7019d0a0d4850b2d77609f59fffc98e59f50f7f477ec2530168df50",
    ("b", 0.0): "2cde182fd953b279707f790cdd8009f114c8748de136f047ebfa3dabf0f255fe",
    ("b", 0.001): "525bc38de31163bdb9abfd19e5a9bb5eff6fc72a14f60c3bda1a9730f87ff25f",
}
STEP_RESPONSES_SHA256 = {
    "a": "519b67130456ca9aeed73bed295cffee8eb6bbb3678784d1d18f3156893b28d9",
    "b": "a7317792172b9418d4b85365d473d22b0683641b7dbe734a9093f487e9d5d453",
}
# the same digest for the nonlinear run, and the exact divergence time of a
# 3 rad start; recorded while each step still allocated its own arrays, pair
# a's again when the step came from the loop matrix (Python 3.11.7, numpy 2.4.6)
NONLINEAR_LOOP_SHA256 = {
    ("a", 0.0): "335989d02a3fda11f6ee78b3217dff459bf316c26f83aa48bc98359ba177d2de",
    ("a", 0.001): "3dbd88c9a8ff0360b808580878610c372bd8086b1b388f7a7f22d2299ef62c9d",
    ("b", 0.0): "f04fbeff6996fe7cbe0b3cfb756c84c9744c4b87ee90d36c23dde6485eef1bfe",
    ("b", 0.001): "4834b856fd2d73dc9362ae9a8bea878d9c45a9ebc180d6d4e8c5caeba8da88a0",
}
DIVERGED_AT = {"a": 4.03, "b": 4.642}

STATIC = RationalTF((2.0,), (1.0,))


def _assert_tracks_linear_twin(C, P, rel, **args):
    p = PendulumParams()
    nonlinear = nonlinear_closed_loop(p, C, P, **args)
    linear = linear_closed_loop(p, C, P, **args)
    for nl, lin in zip(nonlinear, linear):
        scale = np.max(np.abs(lin.y))
        assert scale > 0.0
        assert np.max(np.abs(nl.y - lin.y)) <= rel * scale


class TestLoopModel:
    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B], ids=["a", "b"])
    def test_linear_outputs_pinned(self, pair):
        for r in (0.0, 0.001):
            out = linear_closed_loop(
                PendulumParams(), pair.C, pair.P, x_ref_step=r, theta0=0.01, t_end=5.0
            )
            digest = array_digest([s.t for s in out] + [s.y for s in out])
            assert digest == LINEAR_LOOP_SHA256[pair.label, r], r
        steps = (
            step_response(closed_loop(G, pair.C, pair.P)),
            angle_step_response(F, G, pair.C, pair.P),
        )
        assert array_digest([s.y for s in steps]) == STEP_RESPONSES_SHA256[pair.label]

    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B], ids=["a", "b"])
    def test_nonlinear_outputs_pinned(self, pair):
        for r in (0.0, 0.001):
            out = nonlinear_closed_loop(
                PendulumParams(), pair.C, pair.P, x_ref_step=r, theta0=0.01, t_end=5.0
            )
            digest = array_digest([s.t for s in out] + [s.y for s in out])
            assert digest == NONLINEAR_LOOP_SHA256[pair.label, r], r
        with pytest.raises(TrajectoryDiverged) as exc:
            nonlinear_closed_loop(
                PendulumParams(), pair.C, pair.P, x_ref_step=0.0, theta0=3.0, t_end=60.0
            )
        assert exc.value.t_reached == DIVERGED_AT[pair.label]

    def test_pair_a_default_step_matches_a_tenfold_finer_one(self):
        # the loop's fastest mode (43.6) keeps pair a at dt = 1e-3; every
        # tenth point of a 1e-4 run must agree with it
        for run in (linear_closed_loop, nonlinear_closed_loop):
            for r in (0.0, 0.001):
                args = (PendulumParams(), PAIR_A.C, PAIR_A.P, r, 0.01)
                coarse = run(*args, t_end=5.0)
                fine = run(*args, t_end=5.0, dt=1e-4)
                for c, f in zip(coarse, fine):
                    assert c.t.size == 5001
                    np.testing.assert_allclose(c.t, f.t[::10], rtol=0.0, atol=1e-12)
                    scale = np.max(np.abs(f.y))
                    assert np.max(np.abs(c.y - f.y[::10])) <= 1e-10 * scale, (run.__name__, r)

    @pytest.mark.parametrize("pair", [PAIR_A, PAIR_B], ids=["a", "b"])
    def test_reference_step_tracks_linear_twin(self, pair):
        _assert_tracks_linear_twin(
            pair.C, pair.P, 0.005, x_ref_step=0.001, theta0=0.0, t_end=5.0
        )

    @pytest.mark.parametrize(
        "C, P",
        [(STATIC, PAIR_B.P), (PAIR_B.C, 0.25 * STATIC), (STATIC, 0.25 * STATIC)],
        ids=["static-C", "static-P", "both-static"],
    )
    def test_static_blocks_track_linear_twin(self, C, P):
        assert min(realize(C).order, realize(P).order) == 0
        _assert_tracks_linear_twin(C, P, 0.005, x_ref_step=0.0, theta0=1e-4, t_end=1.0)

    def test_singular_feedthrough_loop_rejected(self):
        # D_C * D_P = 2 * (-0.5) = -1 leaves the loop force undetermined
        for simulate in (nonlinear_closed_loop, linear_closed_loop):
            with pytest.raises(ValueError, match="singular algebraic loop"):
                simulate(PendulumParams(), STATIC, -0.25 * STATIC, 0.0, 1e-4, t_end=1.0)


def _series(out):
    return out if isinstance(out, tuple) else (out,)


def _series_bytes(out):
    return [(s.t.tobytes(), s.y.tobytes()) for s in _series(out)]


def _grid(points, dt=1e-3):
    """(t_end, dt) of a run on ``points`` grid points, dt kept as given."""
    return (points - 0.75) * dt, dt


def _warning_kinds(run):
    """The floating-point events ("overflow", "invalid", ...) ``run`` warns of."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return {(w.category, str(w.message).split(" encountered")[0]) for w in caught}


UNSTABLE = (STATIC, 0.25 * STATIC)  # static feedback cannot hold the pendulum up


def _unstable_peaks(points, dt):
    """Running maximum of |z_k| for the linear run of UNSTABLE from theta0 = 1."""
    A, B, _, _ = _loop_model(PendulumParams(), *UNSTABLE)
    phi, _ = _rk4_maps(A, B, dt)
    z = np.zeros(A.shape[0])
    z[1] = 1.0
    peaks = [1.0]
    for _ in range(points - 1):
        z = phi @ z
        peaks.append(max(peaks[-1], float(np.max(np.abs(z)))))
    return np.array(peaks)


class TestInPlaceStepping:
    """The ring-buffered loops against the allocating per-step references."""

    @pytest.mark.parametrize("points", [2, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunk_edges_match_reference(self, points):
        t_end, dt = _grid(points)
        p = PendulumParams()
        cases = [
            (step_response, reference_step_response, (H_B,)),
            (step_response, reference_step_response, (angular_closed_loop(F, G, PAIR_B.C, PAIR_B.P),)),
            (step_response, reference_step_response, (RationalTF((1.0, 1.0), (2.0, 1.0)),)),
            (step_response, reference_step_response, (STATIC,)),
        ]
        for r, theta0 in ((0.0, 0.01), (0.001, 0.0), (0.001, -0.02)):
            args = (p, PAIR_B.C, PAIR_B.P, r, theta0)
            cases.append((nonlinear_closed_loop, reference_nonlinear_closed_loop, args))
            cases.append((linear_closed_loop, reference_linear_closed_loop, args))
        for new, ref, args in cases:
            got = new(*args, t_end=t_end, dt=dt)
            assert all(s.t.size == points for s in _series(got))
            assert _series_bytes(got) == _series_bytes(ref(*args, t_end=t_end, dt=dt))

    def test_static_step_response(self):
        # an order-0 system steps an empty state: y is D everywhere
        for points in (2, CHUNK + 1):
            t_end, dt = _grid(points, 0.1)
            for tf in (STATIC, RationalTF((-0.0,), (1.0,)), RationalTF((3.0,), (-2.0,))):
                got = step_response(tf, t_end=t_end, dt=dt)
                assert got.t.size == points
                assert _series_bytes(got) == _series_bytes(reference_step_response(tf, t_end=t_end, dt=dt))
                assert np.all(got.y == realize(tf).D)

    @pytest.mark.parametrize(
        "k",
        [1, CHUNK // 2, CHUNK, CHUNK + 1, 2 * CHUNK + 50, 2 * CHUNK + 100],
        ids=["first-row", "mid-chunk", "chunk-end", "next-chunk-first-row", "mid-partial", "last-row"],
    )
    def test_divergence_reports_the_first_bad_step(self, k):
        points = 2 * CHUNK + 101  # the last block holds 100 states
        t_end, dt = _grid(points)
        peaks = _unstable_peaks(points, dt)
        assert peaks[k] > peaks[k - 1]
        # the run is linear in theta0: this start crosses the bound at step k
        theta0 = DIVERGENCE_BOUND / np.sqrt(peaks[k - 1] * peaks[k])
        args = (PendulumParams(), *UNSTABLE, 0.0, theta0)
        t = _sim_grid(t_end, dt, _loop_model(*args[:3])[0])[0]
        for run in (linear_closed_loop, reference_linear_closed_loop):
            with pytest.raises(TrajectoryDiverged) as exc:
                run(*args, t_end=t_end, dt=dt)
            assert exc.value.t_reached == float(t[k])

    def test_divergence_overshoot_stays_silent(self):
        # the steps run past divergence in its block reach inf and NaN;
        # only the exception reaches the caller, not their warnings
        for pair in (PAIR_A, PAIR_B):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrajectoryDiverged) as exc:
                    nonlinear_closed_loop(
                        PendulumParams(), pair.C, pair.P, x_ref_step=0.0, theta0=3.0, t_end=60.0
                    )
            assert exc.value.t_reached == DIVERGED_AT[pair.label]

    def test_step_response_warns_as_the_reference(self):
        # an unstable response overflows; its warnings are not silenced
        for den in ((-1.0, 1.0), (-2.0, 1.0, 1.0), (1.0, -1.0, 1.0)):
            tf = RationalTF((1.0,), den)
            args = dict(t_end=2000.0, dt=1e-2)
            kinds = _warning_kinds(lambda: step_response(tf, **args))
            assert kinds
            assert kinds == _warning_kinds(lambda: reference_step_response(tf, **args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step_response(H_B, t_end=5.0)


CHANNELS_B = noise_channels(G, PAIR_B.C, PAIR_B.P)


class TestNoiseTimeResponse:
    def test_zero_norm_is_silent(self):
        spec = NoiseSpec(N=16, amp_norm=0.0, seed=5)
        out = noise_time_response(CHANNELS_B, spec, np.linspace(0, 10, 101))
        assert all(np.all(ts.y == 0.0) for ts in out)

    def test_single_sinusoid_amplitude(self):
        # pinched interval forces omega=1 and the lone amplitude is the norm
        spec = NoiseSpec(N=1, amp_norm=0.01, freq_interval=(1.0, 1.0), seed=3)
        t = np.arange(0.0, 50.0, 1e-3)
        out = noise_time_response(CHANNELS_B, spec, t)
        for num, ts in zip(CHANNELS_B.channels, out):
            want = 0.01 * abs(num(1j))
            assert np.max(np.abs(ts.y)) == pytest.approx(want, rel=1e-4)

    def test_two_sine_formula_oracle(self):
        spec = NoiseSpec(N=2, amp_norm=0.05, freq_interval=(0.5, 1.5), seed=123)
        t = np.linspace(0.0, 20.0, 400)
        rng = np.random.default_rng(123)
        w = rng.uniform(0.5, 1.5, 2)
        c = np.abs(rng.standard_normal(2))
        c *= 0.05 / np.linalg.norm(c)
        ph = rng.uniform(0.0, 2.0 * np.pi, 2)
        out = noise_time_response(CHANNELS_B, spec, t)
        for num, ts in zip(CHANNELS_B.channels, out):
            g = num(1j * w)
            want = sum(
                c[k] * np.abs(g[k]) * np.sin(w[k] * t + np.angle(g[k]) + ph[k])
                for k in range(2)
            )
            np.testing.assert_allclose(ts.y, want, atol=1e-14)

    def test_deterministic_given_seed(self):
        spec = NoiseSpec(N=64, seed=9)
        t = np.linspace(0, 5, 50)
        a = noise_time_response(CHANNELS_B, spec, t)
        b = noise_time_response(CHANNELS_B, spec, t)
        assert all(np.array_equal(x.y, y.y) for x, y in zip(a, b))
        c = noise_time_response(CHANNELS_B, NoiseSpec(N=64, seed=10), t)
        assert not np.array_equal(a[0].y, c[0].y)

    def test_repeated_channel_is_an_equal_copy(self):
        # channels 4 and 5 are one transfer function: one sine sum, two arrays
        assert CHANNELS_B.channels[3] == CHANNELS_B.channels[4]
        out = noise_time_response(CHANNELS_B, NoiseSpec(N=32, seed=4), np.linspace(0, 5, 60))
        assert out[4].y.tobytes() == out[3].y.tobytes()
        assert not np.shares_memory(out[3].y, out[4].y)

    def test_unstable_channel_rejected(self):
        bad = NoiseChannelSet(
            channels=tuple(Polynomial((1.0,)) for _ in range(6)),
            common_den=Polynomial((-1.0, 1.0)),
        )
        with pytest.raises(ValueError, match="noise response undefined"):
            noise_time_response(bad, NoiseSpec(N=4), [0.0, 1.0])

    def test_default_spec_output_magnitude(self):
        # channel 2 peaks near 30 dB, so 0.01-norm excitation lands near 0.3
        spec = NoiseSpec(seed=11)
        t = np.arange(0.0, 200.0, 0.1)
        out = noise_time_response(CHANNELS_B, spec, t)
        peak = np.max(np.abs(out[1].y))
        assert 0.05 < peak < 1.0

    @pytest.mark.parametrize(
        "spec, t",
        [
            (NoiseSpec(), np.arange(0.0, 200.0, 0.05)),  # the CLI defaults
            (NoiseSpec(N=300, seed=7), np.arange(12.5, 60.0, 0.02)),  # t_0 != 0
            (NoiseSpec(N=50, seed=1), np.array([2.5])),
            (NoiseSpec(N=50, seed=1), np.array([2.5, 2.75])),
            (NoiseSpec(N=200, seed=2), np.linspace(-3.0, 30.0, 1000)),  # B = 32, last block 8 long
            (NoiseSpec(N=200, seed=2), np.linspace(0.0, 10.0, 900)),  # B = Q = 30
        ],
    )
    def test_matches_sine_table_reference(self, spec, t):
        got = noise_time_response(CHANNELS_B, spec, t)
        want = reference_noise_time_response(CHANNELS_B, spec, t)
        for a, b in zip(got, want):
            assert np.array_equal(a.t, b.t)
            np.testing.assert_allclose(a.y, b.y, rtol=0.0, atol=1e-12)

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform time grid"):
            noise_time_response(CHANNELS_B, NoiseSpec(N=4), [0.0, 1.0, 3.0])
        late = np.r_[np.linspace(0.0, 1.0, 11), 1.1 + 1e-9]  # last step 1e-9 too long
        with pytest.raises(ValueError, match="uniform time grid"):
            noise_time_response(CHANNELS_B, NoiseSpec(N=4), late)
        out = noise_time_response(CHANNELS_B, NoiseSpec(N=4), np.linspace(-1.0, 1.0, 201))
        assert out[0].t.size == 201

    def test_negated_channel_is_negated_bit_for_bit(self):
        # noise_channels builds e6 as -1 * e1; the factored sum keeps the sign exact
        out = noise_time_response(CHANNELS_B, NoiseSpec(seed=3), np.arange(0.0, 50.0, 0.05))
        assert (-out[0].y).tobytes() == out[5].y.tobytes()


class TestTimeSeriesIO:
    def test_csv_roundtrip(self, tmp_path):
        ts = TimeSeries(t=[0.0, 0.1, 0.2], y=[1.0, -2.5, 1 / 3])
        path = tmp_path / "series.csv"
        ts.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,y"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 0], ts.t)
        np.testing.assert_array_equal(back[:, 1], ts.y)

    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(t=[0.0, 0.0], y=[1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(t=[0.0, 1.0], y=[1.0])

    @pytest.mark.parametrize(
        "t", [[0.0, np.nan, 2.0], [np.nan], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]]
    )
    def test_rejects_non_finite_time(self, t):
        # NaN compares False both ways, so a difference test alone lets it through
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(t=t, y=np.ones(len(t)))


class TestNoiseSpecValidation:
    def test_defaults(self):
        spec = NoiseSpec()
        assert spec.N == 4000
        assert spec.amp_norm == 0.01
        assert spec.freq_interval == (0.5, 1.5)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            NoiseSpec(N=0)
        with pytest.raises(ValueError):
            NoiseSpec(amp_norm=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(freq_interval=(2.0, 1.0))
        for interval in ((-np.inf, 1.5), (0.5, np.inf), (np.nan, 1.5)):
            with pytest.raises(ValueError, match="finite"):
                NoiseSpec(freq_interval=interval)
