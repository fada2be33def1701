"""Fast checks that the benchmark's oracle tells stable from unstable.

    python3 -m pytest pfcbench/test_oracle.py -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle as O

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from pfclab.designs import PAIR_A, PAIR_B  # noqa: E402  (inputs only)

M = 0.3
POSITION = ([-1.0, 0.0, 1.0], [0.0, 0.0, -(1.0 + M), 0.0, M])  # (s^2 - 1) / (s^2 (M s^2 - (1+M)))
ANGLE = ([1.0], [1.0 + M, 0.0, -M])  # 1 / ((1+M) - M s^2)


def coeffs(pair):
    return (
        (list(pair.C.num.coeffs), list(pair.C.den.coeffs)),
        (list(pair.P.num.coeffs), list(pair.P.den.coeffs)),
    )


@pytest.mark.parametrize(
    "poly, stable",
    [
        ([6.0, 11.0, 6.0, 1.0], True),  # (s+1)(s+2)(s+3)
        ([-6.0, -11.0, -6.0, -1.0], True),  # sign of the whole polynomial is irrelevant
        ([1.0, 1.0, 1.0, 1.0], False),  # (s+1)(s^2+1): roots on the imaginary axis
        ([2.0, 1.0, 2.0, 1.0], False),  # (s+2)(s^2+1)
        ([1.0, 0.0, 1.0], False),  # s^2 + 1
        ([0.0, 1.0, 1.0], False),  # s(s+1): root at the origin
        ([-1.0, 0.0, 1.0], False),  # s^2 - 1
        ([1.0, -1.0, 1.0], False),  # complex pair in the right half plane
        ([4.0, 0.0, 5.0, 0.0, 1.0], False),  # (s^2+1)(s^2+4): zero row
        ([3.0], True),  # nonzero constant: vacuously stable
    ],
)
def test_routh_known_cases(poly, stable):
    assert O.routh_stable(poly) is stable


def test_routh_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        O.routh_stable([0.0, 0.0])


def test_shipped_pairs_on_position_plant_are_stable():
    for pair in (PAIR_A, PAIR_B):
        C, P = coeffs(pair)
        assert O.routh_stable(C[1]) and O.routh_stable(P[1])
        assert O.routh_stable(O.closed_loop_den(POSITION, C, P))


def test_pair_b_on_angle_plant_is_unstable():
    C, P = coeffs(PAIR_B)
    assert not O.routh_stable(O.closed_loop_den(ANGLE, C, P))


def test_routh_agrees_with_roots_away_from_the_axis():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        roots = rng.uniform(-3.0, 3.0, 3) + 1j * rng.uniform(0.1, 3.0, 3)
        reals = rng.uniform(-3.0, 3.0, 2)
        if min(abs(np.concatenate([roots.real, reals]))) < 0.05:
            continue
        poly = np.poly(np.concatenate([roots, roots.conj(), reals])).real[::-1]
        want = bool(np.all(roots.real < 0) and np.all(reals < 0))
        assert O.routh_stable(poly) is want
        checked += 1
    assert checked > 100


def test_exact_rows_survive_float_rounding():
    # s^3 + s^2 + a1 s + 1 is stable iff a1 > 1; here a1 differs from 1 in its last bits
    assert O.routh_stable([1.0, 1.0 + 1e-15, 1.0, 1.0]) is True
    assert O.routh_stable([1.0, 1.0 - 1e-15, 1.0, 1.0]) is False


def test_dc_gains_from_the_coefficients():
    for pair, want in ((PAIR_A, Fraction(100, 9)), (PAIR_B, Fraction(10, 3))):
        C, P = coeffs(pair)
        exact = [O.integer_tf(*t) for t in (POSITION, C, P)]
        gain = O.dc_gain(O.closed_loop_num(*exact), O.closed_loop_den(*exact))
        assert abs(gain - want) < Fraction(1, 10**12)


def test_schoolbook_product():
    assert O.mul([1, 1], [1, -1]) == [1, 0, -1]
    assert O.mul([Fraction(1, 2)], [2, 4]) == [1, 2]


def test_observable_form_realizes_the_transfer_function():
    num, den = [0.3, 1.1, 1.6, -6.9], [1.0, 9.3, 0.4, 0.08]
    A, B, C, D = O.observable_form(num, den)
    for s in (0.5 + 0.7j, -2.0 + 0.1j, 3j):
        got = C @ np.linalg.solve(s * np.eye(3) - A, B) + D
        assert abs(got - O.horner(num, s) / O.horner(den, s)) < 1e-10


def test_lti_response_first_order_step():
    t = np.linspace(0.0, 5.0, 11)
    y = O.lti_response(np.array([[-1.0]]), np.array([1.0]), np.array([1.0]), 0.0, [0.0], 1.0, t)
    np.testing.assert_allclose(y, 1.0 - np.exp(-t), atol=1e-14)


def test_noise_gain_of_the_reference_channel_is_the_closed_loop():
    C, P = coeffs(PAIR_B)
    s = np.array([0.3j, 1.0j, 2.5j])
    want = O.horner(O.closed_loop_num(POSITION, C, P), s) / O.horner(O.closed_loop_den(POSITION, C, P), s)
    np.testing.assert_allclose(O.noise_gains(POSITION, C, P, s)[0], want, rtol=1e-12)


def test_multisine_single_tone():
    t = np.linspace(0.0, 3.0, 7)
    g = np.array([2.0 * np.exp(0.5j)])
    y = O.multisine(g, [0.1], [1.5], [0.25], t)
    np.testing.assert_allclose(y, 0.2 * np.sin(1.5 * t + 0.75), atol=1e-15)
