import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfclab.poly import Polynomial

from helpers import expand_conjugates, match_error, separated, stable_root
from oracles import naive_convolve, routh_is_stable, critical_gain_cubic

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
    with pytest.raises(ValueError, match="finite"):
        Polynomial([math.nan, 1.0])


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
    assert Polynomial((10.0, 1.0)).rightmost_real_part() == pytest.approx(-10.0)
    assert Polynomial((-1.3, 0.0, 0.3)).rightmost_real_part() == pytest.approx(
        np.sqrt(13 / 3), abs=1e-9
    )
    assert Polynomial((-5.0, 0.0, 5.0)).rightmost_real_part() == pytest.approx(
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


def test_hurwitz_agrees_with_routh_on_1000_random_polynomials():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(1000):
        deg = int(rng.integers(1, 9))
        c = rng.integers(-100, 101, size=deg + 1) / 10.0
        if c[-1] == 0.0:
            c[-1] = 1.0
        p = Polynomial(c)
        roots = p.roots()
        if np.min(np.abs(roots.real)) < 1e-7:
            continue  # marginal: both methods are tolerance-limited there
        assert p.is_hurwitz() == routh_is_stable(c), f"coeffs={list(c)}"
        # residual contract: checked where evaluation noise (which grows
        # like |root|^degree) does not swamp the bound
        if np.max(np.abs(roots)) <= 3.0:
            resid = max(abs(p(r)) for r in roots)
            assert resid <= 1e-8 * max(abs(x) for x in c)
        checked += 1
    assert checked > 900


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
    want = max(pa.rightmost_real_part(), pb.rightmost_real_part())
    assert (pa * pb).rightmost_real_part() == pytest.approx(want, abs=1e-6)


def test_roots_triple_root_polish():
    # a triple root is determined to about eps**(1/3) in double precision;
    # the polish must keep the cluster centered with no wild outliers
    r = Polynomial.from_roots([-1.0, -1.0, -1.0]).roots()
    np.testing.assert_allclose(r, [-1.0] * 3, atol=1e-5)


def test_newton_division_rounds_as_numpy_complex_division():
    # roots() polishes on Python complex numbers; its division must keep the
    # bits numpy's complex128 division gives, which CPython's "/" does not.
    from pfclab.poly import _cdiv

    rng = np.random.default_rng(5)
    parts = rng.standard_normal((4, 20000)) * 10.0 ** rng.integers(-8, 9, (4, 20000))
    a = (parts[0] + 1j * parts[1]).tolist()
    b = (parts[2] + 1j * parts[3]).tolist()
    for x, y in zip(a, b):
        assert _cdiv(x, y) == complex(np.complex128(x) / np.complex128(y))


def test_from_roots_rejects_unpaired_complex():
    with pytest.raises(ValueError):
        Polynomial.from_roots([1.0 + 2.0j])


def test_roots_output_is_conjugate_closed():
    p = Polynomial((4.0, 0.5, 1.0)) * Polynomial((9.0, 0.1, 1.0)) * (S + 2.0)
    r = p.roots()
    assert len(r) == 5
    np.testing.assert_allclose(
        np.sort_complex(r), np.sort_complex(r.conjugate()), atol=0
    )
