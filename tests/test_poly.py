import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfclab.poly import Polynomial, roots_rows, roots_stack
from pfclab.tf import RationalTF, loop_denominator

from helpers import (
    array_digest,
    digest_polynomials,
    expand_conjugates,
    match_error,
    reference_from_roots,
    rightmost_real_part,
    separated,
    stable_root,
)
from oracles import critical_gain_cubic, naive_convolve, newton_polish, routh_is_stable

S = Polynomial((0.0, 1.0))

# Coefficients on a coarse grid keep hypothesis away from denormal-scale
# values where root classification is numerically meaningless.
coeff = st.integers(-1000, 1000).map(lambda k: k / 100.0)


def coeff_list(min_deg, max_deg):
    return st.lists(coeff, min_size=min_deg + 1, max_size=max_deg + 1).filter(
        lambda c: c[-1] != 0.0
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_trailing_zero_trim():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1


def test_zero_polynomial_representation():
    assert Polynomial(()).coeffs == (0.0,)
    assert Polynomial((0.0, 0.0, 0.0)).coeffs == (0.0,)
    assert Polynomial((0.0,)).degree == -1
    assert Polynomial((0.0,)).is_zero


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((), "0"),
        ((2.5,), "2.5"),
        ((-3.0,), "-3"),
        ((0.0, 1.0), "s"),
        ((0.0, -1.0), "-s"),
        ((-1.0, 0.0, 1.0), "s^2 - 1"),
        ((1.0, -1.0, 0.0, -2.0), "-2s^3 - s + 1"),
        ((0.0, 0.0, 0.0, 1.0), "s^3"),
        ((0.5, 0.0, 1e-7), "1e-07s^2 + 0.5"),
    ],
)
def test_printed_form(coeffs, text):
    assert str(Polynomial(coeffs)) == text


def test_printed_form_of_the_modern_walkthrough():
    # the Q and reduced K_b, K_f lines of `pfclab modern`
    third = 1.0 / 3.0
    for num, den, text in (
        (
            (-10 * third, 0.0, 10 * third),
            (10.0, 18.0, 15.0, 6.0, 1.0),
            "(3.33333s^2 - 3.33333) / (s^4 + 6s^3 + 15s^2 + 18s + 10)",
        ),
        (
            (10.0, 18.0, 58 * third, 6.0),
            (-10 * third, 0.0, 10 * third),
            "(6s^3 + 19.3333s^2 + 18s + 10) / (3.33333s^2 - 3.33333)",
        ),
        (
            (0.0, 0.0, -13 * third, 0.0, 1.0),
            (40 * third, 18.0, 35 * third, 6.0, 1.0),
            "(s^4 - 4.33333s^2) / (s^4 + 6s^3 + 11.6667s^2 + 18s + 13.3333)",
        ),
    ):
        assert str(RationalTF(num, den)) == text


def test_no_epsilon_trimming():
    p = Polynomial((1.0, 1e-300))
    assert p.degree == 1


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_add_additive_inverse():
    assert (Polynomial((1.0, 1.0)) + Polynomial((-1.0, -1.0))).is_zero


def test_add_disjoint_powers():
    assert (Polynomial((1.0,)) + Polynomial((0.0, 0.0, 1.0))).coeffs == (1.0, 0.0, 1.0)


def test_mul_difference_of_squares():
    assert ((S - 1.0) * (S + 1.0)).coeffs == (-1.0, 0.0, 1.0)


def test_mul_identity():
    assert ((S + 3.0) * Polynomial((1.0,))).coeffs == (3.0, 1.0)


def test_mul_shifts_powers():
    s2 = S * S
    assert (s2 * Polynomial((-1.3, 0.0, 0.3))).coeffs == (0.0, 0.0, -1.3, 0.0, 0.3)


def test_cltf_denominator_assembly_matches_schoolbook_oracle():
    # degree-10 loop denominator for the built-in pair "b"; every product
    # recomputed with the quadratic-time oracle
    nG, dG = [-1.0, 0.0, 1.0], [0.0, 0.0, -1.3, 0.0, 0.3]
    nC, dC = [0.3, 1.1, 1.6, -6.9], [1.0, 9.3, 0.4, 0.08]
    nP, dP = [-0.8, -2.0, 1.4, 0.2], [1.0, 5.3, 10.8, 4.1]

    def P(c):
        return Polynomial(c)

    den = P(dC) * P(dG) * P(dP) + P(nC) * P(nP) * P(dG) + P(nC) * P(nG) * P(dP)

    t1 = naive_convolve(naive_convolve(dC, dG), dP)
    t2 = naive_convolve(naive_convolve(nC, nP), dG)
    t3 = naive_convolve(naive_convolve(nC, nG), dP)
    width = max(len(t1), len(t2), len(t3))
    want = np.zeros(width)
    for t in (t1, t2, t3):
        want[: len(t)] += t
    assert den.degree == 10
    np.testing.assert_allclose(den.coeffs, want, rtol=1e-13)


def test_divmod_roundtrip():
    p = Polynomial((2.0, -3.0, 0.5, 1.0, 4.0))
    d = Polynomial((1.0, 2.0, 3.0))
    q, r = divmod(p, d)
    back = q * d + r
    np.testing.assert_allclose(back.coeffs, p.coeffs, atol=1e-14)
    assert r.degree < d.degree


def test_nonfinite_coefficients_rejected():
    # an integer past the largest double is rejected as 1e400, read as inf, is
    for c in (math.nan, math.inf, 10**400, -(10**400)):
        with pytest.raises(ValueError, match="finite"):
            Polynomial([c, 1.0])


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(S, Polynomial((0.0,)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_at_root():
    assert Polynomial((-1.0, 0.0, 1.0))(1.0) == 0.0


def test_eval_angle_plant_dc():
    assert Polynomial((1.3, 0.0, -0.3))(0.0) == 1.3


def test_eval_quartic_at_complex_root():
    p = Polynomial((30.0, 54.0, 45.0, 18.0, 3.0))
    assert abs(p(-1.0 + 1.0j)) < 1e-12


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def test_roots_difference_of_squares():
    r = Polynomial((-1.0, 0.0, 1.0)).roots()
    np.testing.assert_allclose(sorted(r.real), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(r.imag, 0.0, atol=1e-12)


def test_roots_angle_plant_denominator():
    r = Polynomial((-1.3, 0.0, 0.3)).roots()
    want = np.sqrt(13.0 / 3.0)
    np.testing.assert_allclose(sorted(r.real), [-want, want], atol=1e-12)


def test_roots_quartic_conjugate_pairs():
    r = Polynomial((30.0, 54.0, 45.0, 18.0, 3.0)).roots()
    want = np.sort_complex(np.array([-1 + 1j, -1 - 1j, -2 + 1j, -2 - 1j]))
    np.testing.assert_allclose(np.sort_complex(r), want, atol=1e-9)


def test_roots_exact_zeros_split_off():
    # double root at the origin must come out exactly 0, not 1e-8
    r = Polynomial((0.0, 0.0, -1.3, 0.0, 0.3)).roots()
    assert np.sum(r == 0.0) == 2
    np.testing.assert_allclose(
        sorted(np.abs(r[r != 0.0])), [np.sqrt(13 / 3)] * 2, atol=1e-9
    )


def test_roots_errors():
    with pytest.raises(ValueError):
        Polynomial((0.0,)).roots()
    with pytest.raises(ValueError):
        Polynomial((5.0,)).roots()


def test_roots_badly_scaled_cubic():
    # leading coefficient 0.002 puts one root near -2100; balancing must cope
    p = Polynomial((1.0, 10.2, 4.2, 0.002))
    r = p.roots()
    assert max(abs(x) for x in r) > 2000
    resid = max(abs(p(x)) for x in r)
    assert resid <= 1e-8 * max(abs(c) for c in p.coeffs)


def test_rightmost_real_part():
    assert rightmost_real_part(Polynomial((10.0, 1.0))) == pytest.approx(-10.0)
    assert rightmost_real_part(Polynomial((-1.3, 0.0, 0.3))) == pytest.approx(
        np.sqrt(13 / 3), abs=1e-9
    )
    assert rightmost_real_part(Polynomial((-5.0, 0.0, 5.0))) == pytest.approx(
        1.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_is_hurwitz_basic():
    assert Polynomial((3.0, 1.0)).is_hurwitz()
    assert not Polynomial((-1.0, 1.0)).is_hurwitz()
    assert Polynomial((7.0,)).is_hurwitz()  # vacuous for constants
    with pytest.raises(ValueError):
        Polynomial((0.0,)).is_hurwitz()


@pytest.mark.parametrize("K,stable", [(5.0, True), (4.0, False)])
def test_is_hurwitz_gain_cubic(K, stable):
    c = critical_gain_cubic(K)
    assert Polynomial(c).is_hurwitz() is stable
    assert routh_is_stable(c) is stable


@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 1.0, 1.0, 1.0),  # (s + 1)(s^2 + 1)
        (2.0, 1.0, 2.0, 1.0),  # (s + 1)(s^2 + 2)
        (4.0, 4.0, 5.0, 1.0, 1.0),  # (s^2 + 4)(s^2 + s + 1)
        (1.0, 0.0, 2.0, 0.0, 1.0),  # (s^2 + 1)^2
    ],
)
def test_roots_on_the_axis_are_not_hurwitz(coeffs):
    p = Polynomial(coeffs)
    assert not p.is_hurwitz()
    roots, ok = roots_rows(np.array([coeffs]))
    assert roots[0].tobytes() == p.roots().tobytes()
    assert not ok[0]
    assert not routh_is_stable(coeffs)


def test_loop_denominator_with_an_axis_pole_is_not_hurwitz():
    # C = 0 leaves the poles +-i of G = 1/(s^2 + 1) in the loop: with
    # P = 1/(s + 1) the loop denominator is (s + 1)(s^2 + 1)
    G = RationalTF((1.0,), (1.0, 0.0, 1.0))
    C = RationalTF((0.0,), (1.0,))
    den = loop_denominator(G, C, RationalTF((1.0,), (1.0, 1.0)))
    assert den.coeffs == (1.0, 1.0, 1.0, 1.0)
    assert not den.is_hurwitz()
    # C = -0.5/(s + 1) and P = 0 move them off the axis: s^3 + s^2 + s + 1/2
    C = RationalTF((-0.5,), (1.0, 1.0))
    den = loop_denominator(G, C, RationalTF((0.0,), (1.0,)))
    assert den.coeffs == (0.5, 1.0, 1.0, 1.0)
    assert den.is_hurwitz() and routh_is_stable(den.coeffs)


def test_hurwitz_agrees_with_routh_on_1000_random_polynomials():
    rng = np.random.default_rng(20240817)
    near_axis = 0
    for _ in range(1000):
        deg = int(rng.integers(1, 9))
        ints = rng.integers(-100, 101, size=deg + 1)
        if ints[-1] == 0:
            ints[-1] = 10
        c = ints / 10.0
        p = Polynomial(c)
        roots = p.roots()
        if np.min(np.abs(roots.real)) < 1e-7:
            # marginal for float arithmetic: the exact Routh array on the
            # integer coefficients 10*c decides
            near_axis += 1
            assert p.is_hurwitz() == routh_is_stable(ints.tolist()), f"coeffs={list(c)}"
            continue
        assert p.is_hurwitz() == routh_is_stable(c), f"coeffs={list(c)}"
        assert roots_rows(np.array([c]))[1][0] == p.is_hurwitz(), f"coeffs={list(c)}"
        # residual contract: checked where evaluation noise (which grows
        # like |root|^degree) does not swamp the bound
        if np.max(np.abs(roots)) <= 3.0:
            resid = max(abs(p(r)) for r in roots)
            assert resid <= 1e-8 * max(abs(x) for x in c)
    assert near_axis > 0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.lists(stable_root(), min_size=1, max_size=6, unique=True))
def test_roots_from_roots_roundtrip(root_seed):
    roots = expand_conjugates(root_seed)  # degree <= 12
    assume(separated(roots))
    p = Polynomial.from_roots(roots)
    got = p.roots()
    want = np.array(roots, dtype=complex)
    scale = 1.0 + np.max(np.abs(want))
    assert match_error(got, want) <= 1e-7 * scale


@given(coeff_list(0, 5), coeff_list(0, 5))
def test_mul_degree_additivity(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert (pa * pb).degree == pa.degree + pb.degree


@given(
    coeff_list(0, 5),
    coeff_list(0, 5),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)
def test_eval_is_ring_homomorphism(a, b, z):
    pa, pb = Polynomial(a), Polynomial(b)
    lhs = (pa * pb)(z)
    rhs = pa(z) * pb(z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 1e-10
    lhs_add = (pa + pb)(z)
    rhs_add = pa(z) + pb(z)
    scale = max(1.0, abs(lhs_add), abs(rhs_add))
    assert abs(lhs_add - rhs_add) / scale < 1e-10


@given(
    st.lists(stable_root(), min_size=1, max_size=4, unique=True),
    st.lists(stable_root(), min_size=1, max_size=4, unique=True),
)
def test_rightmost_of_product(ra, rb):
    # built from separated root sets: repeated-root coefficient vectors make
    # the rightmost root ill-conditioned and would test the eigensolver, not
    # the algebraic identity
    roots_a = expand_conjugates(ra)
    roots_b = expand_conjugates(rb)
    assume(separated(roots_a + roots_b))
    pa = Polynomial.from_roots(roots_a)
    pb = Polynomial.from_roots(roots_b)
    want = max(rightmost_real_part(pa), rightmost_real_part(pb))
    assert rightmost_real_part(pa * pb) == pytest.approx(want, abs=1e-6)


def test_roots_triple_root_polish():
    # a triple root is determined to about eps**(1/3) in double precision;
    # the polish must keep the cluster centered with no wild outliers
    r = Polynomial.from_roots([-1.0, -1.0, -1.0]).roots()
    np.testing.assert_allclose(r, [-1.0] * 3, atol=1e-5)


def test_from_roots_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        Polynomial.from_roots([1.0 + 2.0j])


def root_lists():
    """Shuffled conjugate-closed root lists without repeated complex pairs.

    Real roots may repeat.  Near-real roots sit within 1e-9 of the axis, and
    a partner may sit up to 1e-8 off the exact conjugate.  Real parts come
    from a quarter grid half the time, so pairs often share one.
    """
    part = st.one_of(st.integers(-12, 12).map(lambda k: k / 4.0), st.floats(-3.0, 3.0))
    nudge = st.floats(-1e-8, 1e-8) | st.just(0.0)
    pair = st.tuples(part, st.floats(0.05, 3.0), nudge, nudge).map(
        lambda t: [complex(t[0], t[1]), complex(t[0] + t[2], -t[1] + t[3])]
    )
    near_real = st.tuples(part, st.floats(-1e-9, 1e-9)).map(lambda t: [complex(*t)])
    real = part.map(lambda x: [complex(x, 0.0)])
    groups = st.lists(st.one_of(pair, near_real, real), max_size=8).filter(
        lambda g: separated([r[0] for r in g if abs(r[0].imag) > 1e-6], gap=1e-3)
    )
    return groups.flatmap(lambda g: st.permutations([r for grp in g for r in grp]))


@given(root_lists())
def test_from_roots_matches_in_order_nearest_pairing(roots):
    assert Polynomial.from_roots(roots).coeffs == reference_from_roots(roots).coeffs


@given(root_lists(), st.sampled_from(["drop", "move", "add"]), st.randoms(use_true_random=False))
def test_from_roots_rejects_what_in_order_pairing_rejects(roots, how, rnd):
    # a partner moved 1e-4 lies beyond CONJUGATE_TOL * (1 + |z|) of its pair
    # and, pairs lying 1e-3 apart, beyond that of any other
    pairs = [k for k, r in enumerate(roots) if r.imag < -1e-6]
    assume(pairs or how == "add")
    roots = list(roots)
    if how == "add":
        roots.insert(rnd.randrange(len(roots) + 1), complex(5.0, 1.0))
    elif how == "drop":
        del roots[rnd.choice(pairs)]
    else:
        roots[rnd.choice(pairs)] += 1e-4
    for build in (Polynomial.from_roots, reference_from_roots):
        with pytest.raises(ValueError, match="not closed under conjugation"):
            build(roots)


def test_from_roots_pairs_perturbed_partners_of_one_real_part():
    # partners nudged so that sorting by value alone would cross the pairs
    roots = [-1 + 1j, -1 + 2j, -0.99999999 - 1j, -0.99999998 - 2j]
    assert Polynomial.from_roots(roots).coeffs == reference_from_roots(roots).coeffs


def test_from_roots_pairs_a_perturbed_repeated_pair():
    # 2 +- 2.24j twice, one partner 1e-8 off, beside a pair of the same real
    # part; pairing may differ from in-order pairing in the last bits only
    roots = [2 + 0.5j, 2 + 2.24j, 2 - 0.5j, 2.00000001 + 2.24j, 2 - 2.24j, 2 - 2.24000001j]
    got = Polynomial.from_roots(roots).coeffs
    np.testing.assert_allclose(got, reference_from_roots(roots).coeffs, rtol=1e-14)


def test_roots_output_is_conjugate_closed():
    p = Polynomial((4.0, 0.5, 1.0)) * Polynomial((9.0, 0.1, 1.0)) * (S + 2.0)
    r = p.roots()
    assert len(r) == 5
    np.testing.assert_allclose(
        np.sort_complex(r), np.sort_complex(r.conjugate()), atol=0
    )


# ---------------------------------------------------------------------------
# batched roots
# ---------------------------------------------------------------------------

# SHA-256 of the roots of `digest_polynomials()`, recorded with the scalar
# Newton engine that the batched engine replaced (Python 3.11.7, numpy 2.4.6 with
# its bundled OpenBLAS); another LAPACK build may round eigenvalues otherwise.
ROOTS_SHA256 = "b70888aa1608068a0a2343ed3a1a5dac07cb75cd01607776338cb87b0119eb09"


def test_roots_match_the_pinned_scalar_engine_bits():
    polys = digest_polynomials()
    assert array_digest(roots_rows(padded(polys))[0]) == ROOTS_SHA256
    assert array_digest(p.roots() for p in polys) == ROOTS_SHA256


def padded(polys):
    """The coefficients of ``polys`` as one stack, rows zero-padded on the right."""
    c = np.zeros((len(polys), max((len(p.coeffs) for p in polys), default=1)))
    for row, p in zip(c, polys):
        row[: len(p.coeffs)] = p.coeffs
    return c


small = st.integers(-30, 30).map(lambda k: k / 10.0)

batch_row = st.one_of(
    # generic, mixed degrees
    coeff_list(1, 8).map(Polynomial),
    # exact zeros at the origin
    st.tuples(coeff_list(1, 5), st.integers(1, 3)).map(
        lambda t: Polynomial([0.0] * t[1] + t[0])
    ),
    # repeated real root
    st.tuples(small, st.integers(2, 4)).map(
        lambda t: Polynomial.from_roots([t[0]] * t[1])
    ),
    # clustered real roots
    st.tuples(small, st.lists(st.integers(-9, 9), min_size=2, max_size=4)).map(
        lambda t: Polynomial.from_roots([t[0] + 1e-5 * k for k in t[1]])
    ),
    # repeated complex pair
    st.tuples(small, small.filter(lambda b: b != 0.0), st.integers(1, 3)).map(
        lambda t: Polynomial.from_roots([complex(t[0], t[1]), complex(t[0], -t[1])] * t[2])
    ),
    # distinct real roots: an all-real eigenvalue row
    st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True).map(
        lambda ks: Polynomial.from_roots([k / 4.0 for k in ks])
    ),
)


@given(st.lists(batch_row, min_size=1, max_size=12))
def test_roots_batch_matches_each_row_alone(polys):
    roots, ok = roots_rows(padded(polys))
    for p, r, verdict in zip(polys, roots, ok.tolist()):
        assert r.tobytes() == p.roots().tobytes()
        assert verdict == p.is_hurwitz()


@given(st.lists(batch_row, min_size=1, max_size=12))
def test_roots_batch_pairs_conjugates_bitwise_and_sorts(polys):
    # the array pairing in roots_stack rests on this: the polished roots
    # hold each non-real pair as adjacent exact conjugates, so snapping the
    # near-real roots and sorting pairs the rest
    from pfclab.poly import _polished_roots

    for p, r in zip(polys, roots_rows(padded(polys))[0]):
        c = np.asarray(p.coeffs)
        c = c[np.flatnonzero(c)[0] :]
        if len(c) > 1:
            raw = _polished_roots(c[None, :])[0]
            j = 0
            while j < len(raw):
                if raw[j].imag != 0.0:
                    assert raw[j + 1].tobytes() == raw[j].conjugate().tobytes()
                    j += 1
                j += 1
        nonreal = [z for z in r.tolist() if z.imag != 0.0]
        assert Counter(np.complex128(z).tobytes() for z in nonreal) == Counter(
            np.complex128(z.conjugate()).tobytes() for z in nonreal
        )
        assert all(
            (a.real, a.imag) <= (b.real, b.imag) for a, b in zip(r.tolist(), r.tolist()[1:])
        )


def test_roots_batch_real_row_beside_complex_rows():
    # one eigenvalue call over this degree-3 stack returns complex dtype,
    # yet the all-real row must keep the real-arithmetic bits it gets alone
    def companion(p):
        c = np.asarray(p.coeffs) / p.leading
        m = np.eye(p.degree, k=-1)
        m[0, :] = -c[-2::-1]
        return m

    real_row = Polynomial.from_roots([-0.3, -1.7, -2.9])
    complex_row = Polynomial((2.0, 2.0, 1.0)) * (S + 3.0)
    assert np.isrealobj(np.linalg.eigvals(companion(real_row)))
    stack = np.stack([companion(complex_row), companion(real_row)])
    assert np.iscomplexobj(np.linalg.eigvals(stack))
    batch = roots_rows(padded([complex_row, real_row, complex_row, real_row * S]))[0]
    assert batch[1].tobytes() == real_row.roots().tobytes()
    assert batch[0].tobytes() == complex_row.roots().tobytes()
    assert np.all(batch[1].imag == 0.0) and np.any(batch[0].imag != 0.0)
    assert batch[3].tobytes() == (real_row * S).roots().tobytes()


def test_newton_lanes_give_each_row_its_own_bits(monkeypatch):
    # one Newton call over a degree-4 stack whose lanes leave at different
    # rounds; every row must come back as it does alone
    from pfclab import poly
    from pfclab.poly import _companions, _horner, _polished_roots

    rows = np.array([
        np.poly([-1.0, -2.0, -3.0, -5.0])[::-1],  # all-real
        np.polymul([1.0, 2.0, 2.0], [1.0, 1.0, 3.0])[::-1],  # two complex pairs
        np.poly([-4.0, -4.0, 0.5, 1.0])[::-1],  # double root at -4
        np.poly([0.500162, 0.500113, 0.499977, 0.499933])[::-1],  # tight cluster
    ])
    batch = roots_stack(rows)
    for row, z in zip(rows, batch):
        assert roots_stack(row[None]).tobytes() == z.tobytes()
    # the double root comes out of the eigenvalue call exactly, where
    # p' = 0 stops its lanes before the first step
    raw = np.linalg.eigvals(_companions(rows[2:3]))
    assert np.count_nonzero(raw == -4.0) == 2
    dp = (np.arange(4, 0, -1) * rows[2, :0:-1])[:, None]
    assert _horner(dp, np.zeros(1, dtype=int), np.array([-4.0 + 0.0j]))[0] == 0.0
    assert np.count_nonzero(batch[2] == -4.0) == 2
    # each root polished as the scalar oracle polishes it alone
    polished = _polished_roots(rows)
    for row, z in zip(rows, polished):
        alone = np.linalg.eigvals(_companions(row[None]))[0]
        assert newton_polish(row, alone, poly.NEWTON_STEPS).tobytes() == z.tobytes()
    # the cluster's slowest roots still improve at the last allowed step
    monkeypatch.setattr(poly, "NEWTON_STEPS", poly.NEWTON_STEPS - 1)
    fewer = _polished_roots(rows)
    assert fewer[:3].tobytes() == polished[:3].tobytes()
    assert fewer[3].tobytes() != polished[3].tobytes()


def random_root_rows(rng, degree, count):
    """``count`` real rows of one degree (ascending, random leading coefficient).

    Their roots cycle through five kinds: all real, complex pairs, a tight
    cluster, a repeated small integer and exact zeros at the origin.
    """
    rows = []
    for k in range(count):
        kind = k % 5
        if kind == 0:
            r = rng.uniform(-5.0, 2.0, degree)
        elif kind == 1:
            w = rng.uniform(-3.0, 1.0, degree // 2) + 1j * rng.uniform(0.1, 4.0, degree // 2)
            r = np.concatenate([w, w.conj(), rng.uniform(-5.0, 2.0, degree % 2)])
        elif kind == 2:
            r = rng.uniform(-2.0, 1.0) + 1e-4 * rng.standard_normal(degree)
        elif kind == 3:
            r = rng.integers(-5, 3, degree).astype(float)
            r[1] = r[0]
        else:
            r = rng.uniform(-5.0, 2.0, degree)
            r[: rng.integers(1, degree + 1)] = 0.0
        rows.append(np.poly(r)[::-1].real * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
    return np.array(rows)


def test_polished_roots_match_the_scalar_oracle_row_by_row():
    # every root of a random stack, polished in lanes, has the bits the
    # scalar oracle gives it with its row polished alone; degree 10 holds
    # the 1000 rows a Monte Carlo study polishes in one pass
    from pfclab import poly
    from pfclab.poly import _companions, _polished_roots

    rng = np.random.default_rng(11)
    origin = flat = 0
    for degree in range(2, 11):
        c = random_root_rows(rng, degree, 1000 if degree == 10 else 40)
        for row, z in zip(c, _polished_roots(c)):
            monic = row / row[-1]
            raw = np.linalg.eigvals(_companions(monic[None]))[0]
            assert newton_polish(monic, raw, poly.NEWTON_STEPS).tobytes() == z.tobytes()
            origin += np.count_nonzero(z == 0.0)
            dp = np.polyder(monic[::-1])
            flat += sum(1 for x in raw if x != 0.0 and np.polyval(dp, x) == 0.0)
    # the stacks hold exact zeros and double roots where p' = 0 stops the lane
    assert origin > 0 and flat > 0


def test_roots_batch_errors_and_empty():
    roots, ok = roots_rows(np.zeros((0, 3)))
    assert roots == [] and ok.shape == (0,)
    with pytest.raises(ValueError, match="^undefined roots: the zero polynomial$"):
        roots_rows(padded([S, Polynomial((0.0,))]))
    with pytest.raises(ValueError, match="^undefined roots: the zero polynomial$"):
        Polynomial((0.0,)).roots()
    with pytest.raises(ValueError, match="^a nonzero constant has no roots$"):
        Polynomial((5.0,)).roots()
    with pytest.raises(ValueError, match="^polynomial coefficients must be finite$"):
        roots_rows(np.array([[1.0, 1.0], [np.inf, 1.0]]))
    assert roots_rows(padded([S * S]))[0][0].tobytes() == np.zeros(2, dtype=complex).tobytes()
    with pytest.raises(ValueError, match="leading"):
        roots_stack(np.array([[1.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="degree >= 1"):
        roots_stack(np.array([[1.0], [2.0]]))
    # a subnormal or tiny leading coefficient: the monic row overflows
    for c in ((1.0, 5e-324), (-3.0, 2.0, 1e-310), (1e300, 1e-10)):
        with pytest.raises(ValueError, match="leading coefficient too small"):
            Polynomial(c).roots()
        with pytest.raises(ValueError, match="leading coefficient too small"):
            roots_stack(np.array([(1.0,) * len(c), c]))
        with pytest.raises(ValueError, match="leading coefficient too small"):
            roots_rows(np.array([(1.0,) * len(c), c]))


def test_roots_rows_of_a_mixed_stack():
    # degrees 0 to 4, zeros at the origin, a constant and axis roots,
    # zero-padded into one stack: each row is what it is alone
    rows = [
        (2.0, 3.0, 1.0, 0.0, 0.0),  # (s+1)(s+2)
        (0.0, 0.0, 6.0, 5.0, 1.0),  # s^2 (s+2)(s+3)
        (1.0, 1.0, 1.0, 1.0, 0.0),  # (s+1)(s^2+1): roots on the axis
        (0.0, -1.0, 0.0, 1.0, 0.0),  # s (s-1)(s+1)
        (-4.0, 0.0, 0.0, 0.0, 0.0),  # a nonzero constant
        (0.0, 5.0, 0.0, 0.0, 0.0),  # 5s
        (1.0, 3.0, 3.0, 1.0, 0.0),  # (s+1)^3
    ]
    stack = np.array(rows)
    roots, ok = roots_rows(stack)
    assert ok.tolist() == [True, False, False, False, True, False, True]
    for row, z, verdict in zip(stack, roots, ok.tolist()):
        p = Polynomial(row)
        assert verdict == p.is_hurwitz()
        alone_z, alone_ok = roots_rows(row[None])
        assert alone_z[0].tobytes() == z.tobytes() and alone_ok.tolist() == [verdict]
        if p.degree:
            assert z.tobytes() == p.roots().tobytes()
        else:
            assert z.shape == (0,)
    assert np.count_nonzero(roots[1] == 0.0) == 2
    assert roots[5].tolist() == [0j]
    # a zero row or a NaN anywhere fails the whole stack with the existing errors
    with pytest.raises(ValueError, match="^undefined roots: the zero polynomial$"):
        roots_rows(np.vstack([stack, np.zeros(5)]))
    with pytest.raises(ValueError, match="^polynomial coefficients must be finite$"):
        roots_rows(np.vstack([stack, [1.0, np.nan, 1.0, 0.0, 0.0]]))
