import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfclab.poly import Polynomial, trim_trailing_zeros, trimmed_lengths
from pfclab.tf import (
    CompensatorPair,
    RationalTF,
    _product,
    angular_closed_loop,
    closed_loop,
    loop_denominator,
    loop_rows,
    noise_channels,
    pip_check,
    tf_rows,
)

from helpers import constant, feedback, parallel, series, tf_equal_up_to_scale
from oracles import routh_is_stable

G = RationalTF([-1.0, 0.0, 1.0], [0.0, 0.0, -1.3, 0.0, 0.3])
F = RationalTF([1.0], [1.3, 0.0, -0.3])
C2 = RationalTF([-3.0, -1.0], [10.0, 1.0])

PAIR_A = CompensatorPair(
    C=RationalTF([0.09, 0.9, 2.0, -10.1], [1.0, 10.2, 4.2, 0.002]),
    P=RationalTF([-1.9, -0.1, 7.0, 0.05], [1.0, 5.4, 21.7, 11.0]),
    label="a",
)
PAIR_B = CompensatorPair(
    C=RationalTF([0.3, 1.1, 1.6, -6.9], [1.0, 9.3, 0.4, 0.08]),
    P=RationalTF([-0.8, -2.0, 1.4, 0.2], [1.0, 5.3, 10.8, 4.1]),
    label="b",
)
ZERO_TF = RationalTF([0.0], [1.0])
ONE_TF = constant(1.0)


# ---------------------------------------------------------------------------
# RationalTF basics
# ---------------------------------------------------------------------------


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        RationalTF([1.0], [0.0])


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError, match="finite"):
        RationalTF([1.0], [math.inf, 1.0])


def test_properness_queries():
    assert G.is_strictly_proper and G.is_proper
    assert PAIR_A.C.is_proper and not PAIR_A.C.is_strictly_proper
    improper = RationalTF([0.0, 0.0, 1.0], [1.0, 1.0])
    assert not improper.is_proper


def test_json_roundtrip():
    back = RationalTF.from_json_dict(json.loads(json.dumps(G.to_json_dict())))
    assert back.num.coeffs == G.num.coeffs
    assert back.den.coeffs == G.den.coeffs
    pair_back = CompensatorPair.from_json_dict(PAIR_A.to_json_dict())
    assert pair_back.label == "a"
    assert pair_back.C.num.coeffs == PAIR_A.C.num.coeffs


def test_call_evaluates_ratio():
    assert F(0.0) == pytest.approx(1.0 / 1.3)


# ---------------------------------------------------------------------------
# closed_loop
# ---------------------------------------------------------------------------


def test_closed_loop_reduces_to_single_loop_when_p_zero():
    C = PAIR_A.C
    H = closed_loop(G, C, ZERO_TF)
    want_num = G.num * C.den
    want_den = C.den * G.den + C.num * G.num
    assert H.num.coeffs == want_num.coeffs
    assert H.den.coeffs == want_den.coeffs


def test_closed_loop_open_when_c_zero():
    H = closed_loop(G, ZERO_TF, PAIR_A.P)
    assert tf_equal_up_to_scale(H, G)


@pytest.mark.parametrize("pair", [PAIR_A, PAIR_B], ids=["a", "b"])
def test_closed_loop_published_pairs_stable(pair):
    H = closed_loop(G, pair.C, pair.P)
    assert H.den.degree == 10
    assert H.den.is_hurwitz()
    assert not routh_is_stable(G.den.coeffs)  # the plant alone is unstable


def test_closed_loop_degenerate_denominator():
    # choose C=1, G=1, P=-2 so all three terms cancel exactly
    with pytest.raises(ValueError, match="degenerate"):
        closed_loop(ONE_TF, ONE_TF, constant(-2.0))


def test_closed_loop_leading_cancellation_warns():
    g = RationalTF([0.0, 1.0], [1.0, 1.0])  # s/(s+1)
    c = constant(-1.0)
    with pytest.warns(UserWarning, match="degree dropped"):
        H = closed_loop(g, c, ZERO_TF)
    assert H.den.degree == 0  # (s+1) - s = 1, reported not trimmed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert loop_denominator(g, c, ZERO_TF).coeffs == H.den.coeffs


# ---------------------------------------------------------------------------
# batched loop products
# ---------------------------------------------------------------------------


def assert_products_are_convolutions(a, b):
    """`_product` of stacks ``a`` and ``b`` holds, row for row, the bits of
    `np.convolve` on the trimmed rows, trimmed again (NaN compares by place)."""
    length = trimmed_lengths(p := _product(a, b))
    assert len(p) == len(length) == max(len(a), len(b))
    for r, (row, n) in enumerate(zip(p, length)):
        x = trim_trailing_zeros(a[0 if len(a) == 1 else r])
        y = trim_trailing_zeros(b[0 if len(b) == 1 else r])
        want = trim_trailing_zeros(np.convolve(x, y))
        got = row[:n]
        assert n == len(want) and not row[n:].any()
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("rows", [(3, 3), (1, 3), (3, 1), (1, 1)])
def test_products_of_every_length_round_as_np_convolve(rows):
    # lengths 1-20 on each side cross numpy's switch from its small-kernel
    # loop to its dot function at 12 and the 16-entry blocks of BLAS ddot
    rng = np.random.default_rng(15)
    for m in range(1, 21):
        for k in range(1, 21):
            a = rng.standard_normal((rows[0], m))
            b = rng.standard_normal((rows[1], k)) * 10.0 ** rng.integers(-4, 5, (rows[1], k))
            assert_products_are_convolutions(a, b)


@st.composite
def product_stacks(draw):
    """Two stacks of random rows, either one or both possibly a single row,
    with zero tails, -0.0, and entries whose products underflow or overflow."""
    m, k = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rows = draw(st.integers(2, 6))
    single = draw(st.sampled_from([(), (0,), (1,), (0, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (
        rng.standard_normal((1 if i in single else rows, width))
        for i, width in enumerate((m, k))
    )
    for side, r, c, v in draw(st.lists(st.tuples(
        st.booleans(), st.integers(0, 5), st.integers(0, 19),
        st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200]),
    ), max_size=8)):
        x = a if side else b
        x[r % len(x), c % x.shape[1]] = v
    for side, r, tail in draw(st.lists(st.tuples(
        st.booleans(), st.integers(0, 5), st.integers(1, 20),
    ), max_size=3)):
        x = a if side else b
        x[r % len(x), -tail:] = 0.0
    return a, b


@given(product_stacks())
def test_products_at_the_edges_round_as_np_convolve(case):
    a, b = case
    with np.errstate(over="ignore", invalid="ignore"):
        assert_products_are_convolutions(a, b)


def test_loop_rows_of_column_major_stacks():
    # BLAS ddot rounds otherwise on rows that are not contiguous
    rng = np.random.default_rng(5)
    stacks = [rng.standard_normal((7, w)) for w in (6, 13, 9, 12, 7, 16)]
    G, C, P = zip(stacks[0::2], stacks[1::2])
    want = loop_rows(G, C, P)
    G, C, P = ([np.asfortranarray(x) for x in tf] for tf in (G, C, P))
    assert loop_rows(G, C, P).tobytes() == want.tobytes()


def test_loop_rows_refuses_stacks_of_different_row_counts():
    C = np.ones((3, 2)), np.ones((3, 2))
    P = np.ones((5, 2)), np.ones((5, 2))
    with pytest.raises(ValueError, match="^stacks of 3 and 5 rows: "):
        loop_rows(tf_rows(G), C, P)
    # a stack of one row serves every loop
    assert loop_rows(tf_rows(G), C, tf_rows(PAIR_A.P)).shape == (3, 9)


# ---------------------------------------------------------------------------
# angular_closed_loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair", [PAIR_A, PAIR_B], ids=["a", "b"])
def test_angular_loop_shares_denominator_and_kills_dc(pair):
    Ha = angular_closed_loop(F, G, pair.C, pair.P)
    H = closed_loop(G, pair.C, pair.P)
    assert Ha.den.coeffs == H.den.coeffs
    assert Ha.num(0.0) == 0.0
    # strictly proper with at least relative degree one
    assert Ha.is_strictly_proper


def test_angular_loop_rejects_inconsistent_plants():
    F_wrong = RationalTF([1.0], [1.4, 0.0, -0.3])
    with pytest.raises(ValueError, match="inconsistent plant pair"):
        angular_closed_loop(F_wrong, G, PAIR_B.C, PAIR_B.P)


# ---------------------------------------------------------------------------
# pip_check
# ---------------------------------------------------------------------------


def test_pip_position_plant_not_strongly_stabilizable():
    v = pip_check(G)
    assert not v.strongly_stabilizable
    # real RHP zero at +1 sees exactly one real RHP pole to its right
    [(z, count)] = [c for c in v.checks if not math.isinf(c[0])]
    assert z == pytest.approx(1.0, abs=1e-9)
    assert count == 1
    assert any(c % 2 for _, c in v.checks)


def test_pip_angle_plant_stabilizable():
    v = pip_check(F)
    assert v.strongly_stabilizable
    assert v.checks == ()


def test_pip_stable_plant():
    assert pip_check(RationalTF([1.0], [1.0, 1.0])).strongly_stabilizable


def test_pip_even_count_between_zeros():
    # zeros {1, 4} and infinity; poles {2, 3}: every count is even
    num = Polynomial.from_roots([1.0, 4.0])
    den = Polynomial.from_roots([2.0, 3.0, -1.0])
    v = pip_check(RationalTF(num, den))
    assert v.strongly_stabilizable
    assert [c for _, c in v.checks] == [2, 0, 0]
    assert math.isinf(v.checks[-1][0])


def test_pip_biproper_single_zero_stabilizable():
    # (s-1)/(s-2): no zero at infinity, so the pole at 2 lies between no two
    # zeros; the stable C = -1.5 puts the loop pole at -1
    G1 = RationalTF([-1.0, 1.0], [-2.0, 1.0])
    v = pip_check(G1)
    assert v.strongly_stabilizable
    assert v.checks == ()
    assert loop_denominator(G1, constant(-1.5), ZERO_TF).roots().tolist() == [-1.0 + 0j]


def test_pip_zero_at_origin_counts():
    # s/((s-1)(s+1)): the zeros at 0 and infinity enclose the pole at 1
    v = pip_check(RationalTF([0.0, 1.0], [-1.0, 0.0, 1.0]))
    assert not v.strongly_stabilizable
    assert v.checks == ((0.0, 1), (math.inf, 0))
    assert [(z, c) for z, c in v.checks if c % 2] == [(0.0, 1)]


@pytest.mark.parametrize("z", [5e-8, 1e-20])
def test_pip_left_half_plane_zero_near_origin_is_left_out(z):
    # (s + z)/((s-2)(s+1)): the zero at -z is open-LHP however close to the
    # origin, so infinity is the only closed-RHP zero and nothing interlaces
    v = pip_check(RationalTF([z, 1.0], Polynomial.from_roots([2.0, -1.0])))
    assert v.strongly_stabilizable
    assert v.checks == ()


def test_pip_near_real_zero_pair():
    # zeros 2 +- 1e-6j lie within CONJUGATE_TOL * (1 + |z|) of the axis, so
    # they count as two real zeros and enclose the pole at 3 with infinity;
    # 2 +- 1e-5j lie beyond it and leave infinity the only real RHP zero
    den = Polynomial.from_roots([3.0, -1.0, -1.0])
    near = pip_check(RationalTF([4.0 + 1e-12, -4.0, 1.0], den))
    assert not near.strongly_stabilizable
    assert [c for _, c in near.checks] == [0, 1, 0]
    assert near.checks[0][0] == pytest.approx(2.0, abs=1e-12)
    far = pip_check(RationalTF([4.0 + 1e-10, -4.0, 1.0], den))
    assert far.strongly_stabilizable
    assert far.checks == ()


def test_pip_scaling_invariance():
    for plant in (G, F, RationalTF(Polynomial.from_roots([2.0]), Polynomial.from_roots([1.0, 3.0, -2.0]))):
        base = pip_check(plant)
        scaled = pip_check(2.7 * plant)
        assert base.strongly_stabilizable == scaled.strongly_stabilizable
        assert base.checks == scaled.checks


def test_pip_zero_plant_error():
    with pytest.raises(ValueError):
        pip_check(ZERO_TF)


# ---------------------------------------------------------------------------
# noise channels
# ---------------------------------------------------------------------------


def test_noise_channels_share_denominator_exactly():
    ns = noise_channels(G, PAIR_B.C, PAIR_B.P)
    assert len(ns) == 6
    for ch in ns:
        assert ch.den is ns[0].den
        assert ch.den.coeffs == loop_denominator(G, PAIR_B.C, PAIR_B.P).coeffs
        assert ch.is_stable()


def test_noise_channel_plant_input_open_loop():
    ns = noise_channels(G, ZERO_TF, ZERO_TF)
    e2 = ns[1]
    assert tf_equal_up_to_scale(e2, G)


def test_noise_channel_sensor_dc_blocked_by_plant_pole_at_origin():
    # e3 = (1 + CP)/(1 + C(P+G)): G's pole at s=0 drives the DC value to 0
    ns = noise_channels(G, PAIR_B.C, PAIR_B.P)
    assert ns[2].num(0.0) == 0.0


def test_noise_peak_pair_b_around_30_db():
    ns = noise_channels(G, PAIR_B.C, PAIR_B.P)
    w = np.logspace(-2, 2, 2000)
    peak = max(
        float(np.max(20 * np.log10(np.abs(ch(1j * w))))) for ch in ns
    )
    assert 27.0 <= peak <= 33.0


# ---------------------------------------------------------------------------
# block algebra
# ---------------------------------------------------------------------------


def test_series_identity():
    got = series(G, ONE_TF)
    assert got.num.coeffs == G.num.coeffs
    assert got.den.coeffs == G.den.coeffs
    # `*` scales by a number only; a series connection is `series`
    assert (2.0 * G).num.coeffs == (G * 2.0).num.coeffs == (-2.0, 0.0, 2.0)
    with pytest.raises(TypeError):
        G * ONE_TF


def test_feedback_angle_demo_loop_stable():
    loop = feedback(series(5.0 * C2, F), ONE_TF)
    assert loop.den.is_hurwitz()
    assert routh_is_stable(loop.den.coeffs)


def test_parallel_numerator_structure():
    got = parallel(PAIR_B.P, G)
    want = PAIR_B.P.num * G.den + G.num * PAIR_B.P.den
    assert got.num.coeffs == want.coeffs


def test_closed_loop_equals_primitive_composition():
    # H = G * 1/(1 + C(P+G)) assembled from series/parallel/feedback only;
    # block reuse introduces common polynomial factors, so compare as
    # rational functions (cross-multiplied), not coefficient arrays
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(200):
        C = _random_stable_tf(rng)
        P = _random_stable_tf(rng)
        g = _random_tf(rng)
        H = closed_loop(g, C, P)
        comp = series(g, feedback(ONE_TF, series(C, parallel(P, g))))
        assert tf_equal_up_to_scale(H, comp, rtol=1e-8)
        agree += 1
        expected_deg = C.den.degree + g.den.degree + P.den.degree
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                H2 = closed_loop(g, C, P)
                assert H2.den.degree == expected_deg
            except UserWarning:
                pass  # leading cancellation is reported, never silent
    assert agree == 200


def _random_stable_tf(rng):
    n = int(rng.integers(1, 4))
    poles = -rng.uniform(0.1, 3.0, n)
    num = rng.uniform(-2.0, 2.0, int(rng.integers(1, n + 2)))
    if num[-1] == 0.0:
        num[-1] = 1.0
    return RationalTF(num, Polynomial.from_roots(poles))


def _random_tf(rng):
    den = rng.uniform(-2.0, 2.0, int(rng.integers(2, 6)))
    while abs(den[-1]) < 1e-3:
        den[-1] = rng.uniform(-2.0, 2.0)
    num = rng.uniform(-2.0, 2.0, int(rng.integers(1, len(den) + 1)))
    if num[-1] == 0.0:
        num[-1] = 1.0
    return RationalTF(num, den)
