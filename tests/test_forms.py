from fractions import Fraction

import numpy as np
import pytest

from dbarn.forms import (
    CPolynomial,
    CRational,
    FormPoly,
    QC_ONE,
    box,
    dbar,
    epsilon,
    form_from_text,
    form_to_text,
    laplacian,
    random_cpolynomial,
    random_form,
    theta,
)

from dbarn.sobolev import inner_s_exact

from oracles import (
    dbar_full,
    pair_L2_terms,
    terms_add,
    terms_conjugate,
    terms_diff_real,
    terms_diff_z,
    terms_diff_zbar,
    terms_laplacian,
    terms_mul,
    terms_scale,
    theta_full,
)


def const_form(n, q, J):
    return FormPoly(n, q, {tuple(J): CPolynomial.const(n, 1)})


# -- scalars and polynomials -----------------------------------------------------


def test_crational_arithmetic():
    a = CRational.of(Fraction(1, 2), Fraction(-1, 3))
    b = CRational.of(2, 1)
    assert (a * b).re == Fraction(4, 3)
    assert (a * b).im == Fraction(-1, 6)
    assert (a / a) == QC_ONE
    assert a.conjugate().im == Fraction(1, 3)
    assert (a - a).is_zero()


def test_cpolynomial_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        CPolynomial(1, {((0,), (0,)): CRational.of(0)})


def test_constructor_validates_terms():
    one = CRational.of(1)
    with pytest.raises(ValueError, match="zero coefficient"):
        CPolynomial(2, {((0, 0), (1, 0)): one, ((1, 0), (0, 0)): CRational.of(0)})
    with pytest.raises(ValueError, match="negative exponent"):
        CPolynomial(1, {((2,), (-1,)): one})
    with pytest.raises(ValueError, match="length"):
        CPolynomial(2, {((1,), (0, 0)): one})
    with pytest.raises(ValueError, match="length"):
        CPolynomial(1, {((1,), (0, 0)): one})


def test_difference_with_itself_is_the_zero_polynomial(rng):
    for n in (1, 2, 3):
        p = random_cpolynomial(rng, n, 3)
        zero = p - p
        assert zero.terms == {} and zero.is_zero()
        assert zero == CPolynomial.zero(n) and zero.den == 1


def test_equal_polynomials_over_different_denominators_compare_equal():
    half = CPolynomial.monomial(1, (1,), (0,), Fraction(1, 2))
    quarter = CPolynomial.monomial(1, (1,), (0,), Fraction(1, 4))
    assert quarter + quarter == half  # 2/4 against 1/2
    assert quarter.scale(2) == half
    assert half.scale(CRational.of(0, 6)).scale(CRational.of(0, Fraction(-1, 6))) == half
    p = CPolynomial.z(1, 1) + CPolynomial.zbar(1, 1).scale(Fraction(1, 6))
    assert p.scale(Fraction(3, 4)).scale(Fraction(4, 3)) == p
    # the exponent cancels the denominator: d/dz (z^2 / 2) = z
    assert CPolynomial.monomial(1, (2,), (0,), Fraction(1, 2)).diff_z(1) == CPolynomial.z(1, 1)
    assert half != quarter and half != CPolynomial.monomial(2, (1, 0), (0, 0), Fraction(1, 2))


def _random_terms(rng, n, count=5):
    """Terms with denominators up to 12, so products and derivatives share factors
    with the common denominator."""
    out = {}
    for _ in range(count):
        a = tuple(int(e) for e in rng.integers(0, 4, n))
        b = tuple(int(e) for e in rng.integers(0, 4, n))
        c = CRational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))),
                      Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))))
        if not c.is_zero():
            out[(a, b)] = c
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_coefficients_match_the_fraction_oracle(n):
    rng = np.random.default_rng(700 + n)

    def agrees(result, expected):
        # the CRational view, the reduced numerators (against a polynomial built
        # from the oracle's terms) and the term order, which float evaluation
        # sums in
        return (result.terms == expected and result == CPolynomial(n, expected)
                and list(result.terms) == list(expected))

    scalars = (0, 3, -6, Fraction(5, 12), CRational.of(Fraction(-2, 3), Fraction(3, 4)),
               CRational.of(0, 6))
    for _ in range(30):
        tp, tq = _random_terms(rng, n), _random_terms(rng, n)
        for key in list(tp)[:2]:  # q cancels part of p
            tq[key] = -tp[key]
        p, q = CPolynomial(n, tp), CPolynomial(n, tq)
        assert p.terms == tp and q.terms == tq
        assert agrees(p + q, terms_add(tp, tq))
        assert agrees(p - q, terms_add(tp, terms_scale(tq, CRational.of(-1))))
        assert agrees(-p, terms_scale(tp, CRational.of(-1)))
        assert agrees(p * q, terms_mul(tp, tq))
        assert agrees(p.conjugate(), terms_conjugate(tp))
        for c in scalars:
            assert agrees(p.scale(c), terms_scale(tp, c if isinstance(c, CRational)
                                                  else CRational.of(c)))
        for k in range(1, n + 1):
            assert agrees(p.diff_z(k), terms_diff_z(tp, k))
            assert agrees(p.diff_zbar(k), terms_diff_zbar(tp, k))
        for j in range(1, 2 * n + 1):
            assert agrees(p.diff_real(j), terms_diff_real(tp, n, j))
        assert agrees(laplacian(p), terms_laplacian(tp, n))
        if n == 1:
            assert inner_s_exact(p, q, 0) == pair_L2_terms(tp, tq)
            dp = terms_diff_real(tp, 1, 2)
            assert inner_s_exact(p.diff_real(2), p * q, 0) == pair_L2_terms(dp, terms_mul(tp, tq))


def test_wirtinger_derivatives():
    # f = z^2 zbar: df/dz = 2 z zbar, df/dzbar = z^2
    f = CPolynomial.monomial(2, (2, 0), (1, 0))
    fz = f.diff_z(1)
    assert fz.terms == {((1, 0), (1, 0)): CRational.of(2)}
    fzb = f.diff_zbar(1)
    assert fzb.terms == {((2, 0), (0, 0)): CRational.of(1)}


def test_real_derivatives_match_cartesian(rng):
    # D_1 (x-derivative) of x^2 = 2x with x = (z + zbar)/2
    x = (CPolynomial.z(1, 1) + CPolynomial.zbar(1, 1)).scale(Fraction(1, 2))
    d = (x * x).diff_real(1)
    assert d == x.scale(2)
    # D_2 (y-derivative) of y = 1 with y = (z - zbar)/2i
    y = (CPolynomial.z(1, 1) - CPolynomial.zbar(1, 1)).scale(
        CRational.of(0, Fraction(-1, 2)))
    assert y.diff_real(2) == CPolynomial.const(1, 1)


def test_eval_matches_terms(rng):
    p = random_cpolynomial(rng, 2, 3)
    zs = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    direct = np.zeros(5, dtype=complex)
    for (a, b), c in p.terms.items():
        direct += (c.to_complex() * zs[0] ** a[0] * zs[1] ** a[1]
                   * np.conj(zs[0]) ** b[0] * np.conj(zs[1]) ** b[1])
    assert np.allclose(p.eval(zs), direct)


def test_conjugate_is_pointwise_conjugate(rng):
    p = random_cpolynomial(rng, 2, 3)
    zs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    assert np.allclose(p.conjugate().eval(zs), np.conj(p.eval(zs)))


# -- sign bookkeeping ---------------------------------------------------------------


def test_epsilon_examples():
    assert epsilon(1, (2,), (1, 2)) == 1
    assert epsilon(2, (1,), (1, 2)) == -1
    assert epsilon(1, (1, 3), (1, 2, 3)) == 0
    assert epsilon(2, (1, 3), (1, 2, 3)) == -1
    assert epsilon(3, (1, 2), (1, 2, 4)) == 0


# -- dbar -----------------------------------------------------------------------------


def test_dbar_examples():
    f = FormPoly(2, 0, {(): CPolynomial.zbar(2, 1)})
    assert dbar(f).component((1,)).terms == {((0, 0), (0, 0)): QC_ONE}
    holo = FormPoly(2, 0, {(): CPolynomial.z(2, 1)})
    assert dbar(holo).is_zero()
    phi = FormPoly(2, 1, {(1,): CPolynomial.zbar(2, 2)})
    assert dbar(phi).component((1, 2)).terms == {((0, 0), (0, 0)): CRational.of(-1)}


def test_dbar_top_degree_is_zero(rng):
    phi = random_form(rng, 2, 2, 3)
    assert dbar(phi).is_zero()


def test_dbar_matches_antisymmetrization_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(0, n))
        phi = random_form(rng, n, q, 3)
        assert dbar(phi) == dbar_full(phi)


def test_dbar_squared_zero(rng):
    for _ in range(30):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(0, n - 1))
        phi = random_form(rng, n, q, 4)
        assert dbar(dbar(phi)).is_zero()


# -- theta ----------------------------------------------------------------------------


def test_theta_examples():
    psi = FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)})
    assert theta(psi).component(()).terms == {((0,), (0,)): CRational.of(-1)}
    assert theta(const_form(1, 1, (1,))).is_zero()
    psi2 = FormPoly(2, 2, {(1, 2): CPolynomial.z(2, 2)})
    assert theta(psi2).component((1,)).terms == {((0, 0), (0, 0)): QC_ONE}


def test_theta_degree_error():
    with pytest.raises(ValueError, match="degree"):
        theta(const_form(2, 0, ()))


def test_theta_matches_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(1, n + 1))
        psi = random_form(rng, n, q, 3)
        assert theta(psi) == theta_full(psi)


def test_theta_squared_zero(rng):
    for _ in range(30):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(2, n + 1))
        psi = random_form(rng, n, q, 4)
        assert theta(theta(psi)).is_zero()


# -- box -----------------------------------------------------------------------------


def test_box_examples():
    f = CPolynomial.z(1, 1) * CPolynomial.zbar(1, 1)
    assert box(FormPoly(1, 0, {(): f})).component(()).terms == {
        ((0,), (0,)): CRational.of(-1)}
    assert box(const_form(2, 0, ())).is_zero()
    # value fixed by direct composition: theta kills zbar^2 dzbar, dbar is top
    # degree, so box(zbar^2 dzbar) = 0 (consistent with Lap(zbar^2) = 0).
    psi = FormPoly(1, 1, {(1,): CPolynomial.monomial(1, (0,), (2,))})
    assert box(psi).is_zero()


def test_box_is_composition(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(1, n + 1))
        phi = random_form(rng, n, q, 3)
        expected = theta(dbar(phi)) if q < n else FormPoly.zero(n, q)
        expected = expected + dbar(theta(phi))
        assert box(phi) == expected


def test_box_diagonal_and_proportional(rng):
    constant = CRational.of(Fraction(-1, 4))
    for _ in range(30):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(0, n + 1))
        phi = random_form(rng, n, q, 3)
        b = box(phi)
        for K in set(phi.comps) | set(b.comps):
            single = FormPoly.from_components(n, q, {K: phi.component(K)})
            assert box(single).component(K) == b.component(K)
            assert b.component(K) == laplacian(phi.component(K)).scale(constant)


# -- serialization ---------------------------------------------------------------------


def test_form_text_round_trip(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(0, n + 1))
        phi = random_form(rng, n, q, 4)
        assert form_from_text(form_to_text(phi)) == phi


def test_form_text_explicit():
    text = """
    (form (n 2) (q 1)
      (comp (2)
        (term 1/2 -3 (z 1 0) (zbar 0 2))))
    """
    phi = form_from_text(text)
    assert phi.n == 2 and phi.q == 1
    assert phi.component((2,)).terms == {
        ((1, 0), (0, 2)): CRational.of(Fraction(1, 2), -3)}


def test_form_text_sums_repeated_components():
    # a second (comp (1) ...) adds to the first, as a repeated term does
    split = form_from_text("""
    (form (n 1) (q 1)
      (comp (1) (term 1 0 (z 1) (zbar 0)) (term 1/2 0 (z 0) (zbar 0)))
      (comp (1) (term 0 2 (z 1) (zbar 0)) (term -1/2 0 (z 0) (zbar 0))))
    """)
    merged = form_from_text("(form (n 1) (q 1) (comp (1) (term 1 2 (z 1) (zbar 0))))")
    assert split == merged
    cancelled = form_from_text("""
    (form (n 1) (q 1) (comp (1) (term 3 0 (z 0) (zbar 1))) (comp (1) (term -3 0 (z 0) (zbar 1))))
    """)
    assert cancelled.is_zero()


def test_form_text_rejects_garbage():
    with pytest.raises(ValueError):
        form_from_text("(shape (n 1))")
    with pytest.raises(ValueError):
        form_from_text("(form (q 1) (comp (1) (term 1 0 (z 1) (zbar 0))))")
