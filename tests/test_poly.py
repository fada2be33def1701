import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pfclab.poly import Polynomial, roots_batch

from helpers import (
    array_digest,
    digest_polynomials,
    expand_conjugates,
    match_error,
    rightmost_real_part,
    separated,
    stable_root,
)
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
    want = max(rightmost_real_part(pa), rightmost_real_part(pb))
    assert rightmost_real_part(pa * pb) == pytest.approx(want, abs=1e-6)


def test_roots_triple_root_polish():
    # a triple root is determined to about eps**(1/3) in double precision;
    # the polish must keep the cluster centered with no wild outliers
    r = Polynomial.from_roots([-1.0, -1.0, -1.0]).roots()
    np.testing.assert_allclose(r, [-1.0] * 3, atol=1e-5)


def test_newton_division_rounds_as_numpy_complex_division():
    # roots() polishes on separate real and imaginary float64 arrays; its
    # division must keep the bits numpy's complex128 division gives
    from pfclab.poly import _cdiv

    rng = np.random.default_rng(5)
    parts = rng.standard_normal((4, 20000)) * 10.0 ** rng.integers(-8, 9, (4, 20000))
    qr, qi = _cdiv(*parts)
    want = (parts[0] + 1j * parts[1]) / (parts[2] + 1j * parts[3])
    assert qr.tobytes() == want.real.tobytes()
    assert qi.tobytes() == want.imag.tobytes()
    for k in range(0, 20000, 97):
        x = np.complex128(complex(parts[0, k], parts[1, k]))
        y = np.complex128(complex(parts[2, k], parts[3, k]))
        assert complex(qr[k], qi[k]) == complex(x / y)


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


# ---------------------------------------------------------------------------
# batched roots
# ---------------------------------------------------------------------------

# SHA-256 of the roots of `digest_polynomials()`, recorded with the scalar
# Newton engine that `roots_batch` replaced (Python 3.11.7, numpy 2.4.6 with
# its bundled OpenBLAS); another LAPACK build may round eigenvalues otherwise.
ROOTS_SHA256 = "b70888aa1608068a0a2343ed3a1a5dac07cb75cd01607776338cb87b0119eb09"


def test_roots_match_the_pinned_scalar_engine_bits():
    polys = digest_polynomials()
    assert array_digest(roots_batch(polys)) == ROOTS_SHA256
    assert array_digest(p.roots() for p in polys) == ROOTS_SHA256


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
    for p, r in zip(polys, roots_batch(polys)):
        assert r.tobytes() == p.roots().tobytes()


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
    batch = roots_batch([complex_row, real_row, complex_row, real_row * S])
    assert batch[1].tobytes() == real_row.roots().tobytes()
    assert batch[0].tobytes() == complex_row.roots().tobytes()
    assert np.all(batch[1].imag == 0.0) and np.any(batch[0].imag != 0.0)
    assert batch[3].tobytes() == (real_row * S).roots().tobytes()


def test_roots_batch_errors_and_empty():
    assert roots_batch([]) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        roots_batch([S, Polynomial((0.0,))])
    with pytest.raises(ValueError, match="constant"):
        roots_batch([Polynomial((5.0,)), S])
    assert roots_batch([S * S])[0].tobytes() == np.zeros(2, dtype=complex).tobytes()
