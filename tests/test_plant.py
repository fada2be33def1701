import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfclab.analysis import robustness_mc
from pfclab.designs import PAIR_A
from pfclab.plant import (
    PendulumParams,
    angle_plant,
    linear_plant,
    nonlinear_derivatives,
    position_plant,
    position_plant_rows,
)
from pfclab.poly import Polynomial

from helpers import rightmost_real_part, total_energy


class TestParams:
    def test_defaults(self):
        p = PendulumParams()
        assert (p.M, p.L, p.m, p.g) == (0.3, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["M", "L", "m", "g"])
    def test_rejects_nonpositive(self, field):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{field} must be strictly positive$"):
                PendulumParams(**{field: bad})
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                PendulumParams(**{field: bad})


class TestPositionPlant:
    def test_benchmark_coefficients(self):
        g = position_plant()
        assert g.num.coeffs == (-1.0, 0.0, 1.0)
        assert g.den.coeffs == (0.0, 0.0, -1.3, 0.0, 0.3)

    def test_zeros_at_plus_minus_one(self):
        z = position_plant().zeros()
        np.testing.assert_allclose(np.sort(z.real), [-1.0, 1.0], atol=1e-12)

    def test_pole_structure(self):
        # double pole at the origin plus +-sqrt((1+M)/M)
        M = 0.3
        p = position_plant(M=M).poles()
        w = np.sqrt((1.0 + M) / M)
        expect = np.sort_complex(np.array([0.0, 0.0, -w, w], dtype=complex))
        np.testing.assert_allclose(np.sort_complex(p), expect, atol=1e-9)

    def test_perturbation_scales_coefficients(self):
        num, den = position_plant_rows([[2.0, 0.5, 3.0, 0.25], [1.0, 1.0, 1.0, 1.0]], M=0.5)
        assert num.tolist() == [[-0.5, 0.0, 2.0], [-1.0, 0.0, 1.0]]
        assert den.tolist() == [
            [0.0, 0.0, -1.5 * 0.25, 0.0, 0.5 * 3.0],
            [0.0, 0.0, -1.5, 0.0, 0.5],
        ]
        g = position_plant(M=0.5)
        assert (g.num.coeffs, g.den.coeffs) == (tuple(num[1]), tuple(den[1]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            position_plant(M=0.0)
        # every plant builder checks M as PendulumParams does, NaN included
        for build, message in [
            (lambda: position_plant(M=math.nan), "M must be finite"),
            (lambda: position_plant_rows([[1.0] * 4], M=math.inf), "M must be finite"),
            (lambda: angle_plant(-1.0), "M must be strictly positive"),
            (lambda: robustness_mc(PAIR_A.C, PAIR_A.P, M=math.nan), "M must be finite"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    @given(M=st.floats(0.05, 5.0))
    def test_unstable_for_every_mass(self, M):
        g = position_plant(M=M)
        assert rightmost_real_part(g.den) > 0.9  # sqrt((1+M)/M) > 1


class TestAnglePlant:
    def test_benchmark_coefficients(self):
        f = angle_plant()
        assert f.num.coeffs == (1.0,)
        assert f.den.coeffs == (1.3, 0.0, -0.3)

    @given(M=st.floats(0.05, 5.0))
    def test_position_den_is_minus_s2_times_angle_den(self, M):
        g = position_plant(M=M)
        f = angle_plant(M=M)
        s2 = Polynomial((0.0, 0.0, 1.0))
        diff = g.den + s2 * f.den
        assert all(abs(c) < 1e-14 for c in diff.coeffs)


class TestStateSpace:
    def test_benchmark_matrices(self):
        ss = linear_plant(PendulumParams(M=0.3))
        A = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [0, -1 / 0.3, 0, 0],
                [0, 1.3 / 0.3, 0, 0],
            ]
        )
        np.testing.assert_allclose(ss.A, A)
        np.testing.assert_allclose(ss.B, np.array([[0], [0], [1 / 0.3], [-1 / 0.3]]))
        np.testing.assert_allclose(ss.C, np.array([[1.0, 0, 0, 0]]))

    def test_shapes(self):
        ss = linear_plant(PendulumParams())
        assert ss.A.shape == (4, 4)
        assert ss.B.shape == (4, 1)
        assert ss.C.shape == (1, 4)

    def test_matches_position_plant_across_masses(self):
        # C (sI - A)^-1 B must equal the polynomial plant: compare on a grid
        # of complex frequencies away from the poles.
        rng = np.random.default_rng(20250818)
        for M in rng.uniform(0.05, 5.0, size=20):
            ss = linear_plant(PendulumParams(M=M))
            g = position_plant(M=M)
            for s in (1.0 + 1.0j, -2.0 + 0.5j, 0.3 + 3.0j):
                resolvent = np.linalg.solve(s * np.eye(4) - ss.A, ss.B)
                got = (ss.C @ resolvent).item()
                want = g(s)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestNonlinearDynamics:
    def test_upright_equilibrium(self):
        st0 = (0.0, 0.0, 0.0, 0.0)
        assert nonlinear_derivatives(st0, 0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_horizontal_pendulum_oracle(self):
        # theta = pi/2: det = L*(M+m), xddot = (u + m*L*w^2)/(M+m),
        # thetaddot = g/L (the cos terms vanish).
        p = PendulumParams(M=0.3, L=2.0, m=0.5, g=9.81)
        st0 = (0.0, np.pi / 2, 0.0, 1.5)
        dx, dth, ddx, ddth = nonlinear_derivatives(st0, 0.7, p)
        assert dx == 0.0 and dth == 1.5
        want_ddx = (0.7 + 0.5 * 2.0 * 1.5**2) / (0.3 + 0.5)
        np.testing.assert_allclose(ddx, want_ddx, rtol=1e-12)
        np.testing.assert_allclose(ddth, 9.81 / 2.0, rtol=1e-12)

    def test_agrees_with_linearization_near_upright(self):
        ss = linear_plant(PendulumParams(M=0.3))
        rng = np.random.default_rng(7)
        for _ in range(10):
            xs = rng.normal(scale=1e-4, size=4)
            u = rng.normal(scale=1e-4)
            st0 = tuple(xs)
            nl = np.array(nonlinear_derivatives(st0, u))
            lin = ss.A @ xs + ss.B.ravel() * u
            scale = max(1e-4, float(np.max(np.abs(lin))))
            assert np.max(np.abs(nl - lin)) <= 1e-6 * scale

    def test_energy_conserved_unforced(self):
        # RK4 on the free pendulum-cart; drift over 10 time units at h=1e-3
        # stays below 1e-6.
        p = PendulumParams()
        y = np.array([0.0, 0.7, 0.0, 0.0])
        h = 1e-3

        def f(y):
            return np.array(nonlinear_derivatives(y, 0.0, p))

        e0 = total_energy(y, p)
        for _ in range(10000):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        e1 = total_energy(y, p)
        assert abs(e1 - e0) < 1e-6

    def test_array_and_list_states_match_tuple_state(self):
        p = PendulumParams(M=0.3, L=2.0, m=0.5, g=9.81)
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = rng.normal(size=4)
            u = float(rng.normal())
            want = nonlinear_derivatives(tuple(map(float, xs)), u, p)
            assert nonlinear_derivatives(np.array(xs), u, p) == want
            assert nonlinear_derivatives(list(xs), u, p) == want
