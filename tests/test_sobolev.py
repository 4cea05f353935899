import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dbarn
from dbarn.forms import CPolynomial, random_cpolynomial
from dbarn.sobolev import (
    MonomialBasis,
    assemble_gram,
    charge_exponents,
    gram_block_rows,
    inner_monomial_L2,
    inner_s_direct,
    inner_s_exact,
    inner_s_recursive,
    inner_s_recursive_exact,
    leading_subgram,
    pair_L2_exact,
)
from oracles import gram_block

Z = CPolynomial.z(1, 1)
ZB = CPolynomial.zbar(1, 1)
ONE = CPolynomial.const(1, 1)
X = (Z + ZB).scale(Fraction(1, 2))


def test_basis_ordering_and_dim():
    basis = MonomialBasis(2)
    assert basis.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert basis.dim == 6
    assert basis.index_of(1, 1) == 4
    with pytest.raises(ValueError):
        basis.index_of(2, 1)


def test_basis_coefficient_round_trip(rng):
    basis = MonomialBasis(4)
    p = random_cpolynomial(rng, 1, 2)
    coeffs = basis.coefficients_of(p)
    zs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    recon = sum(coeffs[i] * zs ** a * np.conj(zs) ** b
                for i, (a, b) in enumerate(basis.exponents))
    assert np.allclose(recon, p.eval(zs))


def test_inner_monomial_examples():
    assert inner_monomial_L2(0, 0, 0, 0) == 1  # times pi: the area
    assert inner_monomial_L2(1, 0, 1, 0) == Fraction(1, 2)
    assert inner_monomial_L2(1, 0, 0, 1) == 0


def test_pair_L2_matches_monomial_table(rng):
    p = random_cpolynomial(rng, 1, 3)
    q = random_cpolynomial(rng, 1, 3)
    total = 0j
    for (a, b), ca in p.terms.items():
        for (c, d), cb in q.terms.items():
            w = inner_monomial_L2(a[0], b[0], c[0], d[0])
            total += ca.to_complex() * np.conj(cb.to_complex()) * float(w)
    assert abs(pair_L2_exact(p, q).to_complex() - total) < 1e-12 * (1 + abs(total))


def test_inner_s_direct_examples():
    assert inner_s_exact(ONE, ONE, 3).re == 1
    assert inner_s_exact(X, X, 1).re == Fraction(1, 4) + 1
    assert inner_s_exact(ZB, Z, 2).is_zero()
    assert abs(inner_s_direct(Z, Z, 1) - (math.pi / 2 + 2 * math.pi)) < 1e-12


def test_recursion_examples():
    assert inner_s_recursive_exact(ONE, ONE, 3).re == 1
    assert inner_s_recursive_exact(X, X, 1).re == Fraction(5, 4)
    zzb = Z * ZB
    assert inner_s_recursive_exact(zzb, zzb, 2) == inner_s_exact(zzb, zzb, 2)


def test_direct_equals_recursive_randomized(rng):
    for _ in range(40):
        f = random_cpolynomial(rng, 1, 5)
        g = random_cpolynomial(rng, 1, 5)
        for s in (1, 2, 3):
            a = inner_s_direct(f, g, s)
            b = inner_s_recursive(f, g, s)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30)


def test_gram_examples():
    g0 = assemble_gram(MonomialBasis(0), 0)
    assert np.allclose(g0.matrix, [[math.pi]])
    g1 = assemble_gram(MonomialBasis(1), 0)
    assert np.allclose(g1.matrix, np.diag([math.pi, math.pi / 2, math.pi / 2]))
    g11 = assemble_gram(MonomialBasis(1), 1)
    assert abs(g11.matrix[1, 1] - (math.pi / 2 + 2 * math.pi)) < 1e-12


@pytest.mark.parametrize("d,s", [(4, 0), (6, 1), (8, 2), (5, 3), (4, 4)])
def test_gram_symmetric_positive_definite(d, s):
    gram = assemble_gram(MonomialBasis(d), s)
    assert np.array_equal(gram.matrix, gram.matrix.T)
    gram.cholesky()  # raises if not numerically PD


def test_gram_charge_orthogonality(rng):
    gram = assemble_gram(MonomialBasis(6), 2)
    exps = gram.basis.exponents
    for _ in range(50):
        i, j = rng.integers(0, gram.dim, size=2)
        if exps[i][0] - exps[i][1] != exps[j][0] - exps[j][1]:
            assert gram.matrix[i, j] == 0.0


def test_norm_monotonic_in_s():
    basis = MonomialBasis(6)
    grams = [assemble_gram(basis, s) for s in range(4)]
    for k in range(basis.dim):
        e = np.zeros(basis.dim)
        e[k] = 1.0
        norms = [g.norm(e) for g in grams]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_gram_caps():
    with pytest.raises(ValueError, match="0..4"):
        assemble_gram(MonomialBasis(3), 5)
    with pytest.raises(ValueError, match="cap"):
        assemble_gram(MonomialBasis(70), 0)


def test_gram_cache_returns_same_object():
    a = assemble_gram(MonomialBasis(5), 1)
    b = assemble_gram(MonomialBasis(5), 1)
    assert a is b


def test_inner_matches_the_complex_product(rng):
    # the real-view product agrees with the product on a complex copy of the
    # Gram, relative to |a|_s |b|_s (the sums may run in another order)
    for s in (0, 1, 2):
        gram = assemble_gram(MonomialBasis(24), s)
        for _ in range(5):
            u, v = (rng.standard_normal((2, gram.dim)) + 1j * rng.standard_normal((2, gram.dim)))
            for a, b in ((u, v), (u, u), (u.real, v)):
                expect = np.conj(b) @ (gram.matrix @ a)
                scale = math.sqrt((np.conj(a) @ (gram.matrix @ a)).real
                                  * (np.conj(b) @ (gram.matrix @ b)).real)
                assert abs(gram.inner(a, b) - expect) <= 1e-15 * scale


def test_gram_block_matches_symbolic_oracle():
    # every same-charge pair with exponents <= 6, bit for bit against the
    # derivative-then-integrate evaluation
    for charge in range(-6, 7):
        exps = [(b + charge, b) for b in range(7) if 0 <= b + charge <= 6]
        monos = [CPolynomial.monomial(1, (a,), (b,)) for a, b in exps]
        for s in range(5):
            block = gram_block(exps, s)
            for i, p in enumerate(monos):
                for j, q in enumerate(monos):
                    oracle = inner_s_exact(p, q, s)
                    assert oracle.im == 0
                    assert block[i][j] == oracle.re, (exps[i], exps[j], s)


def test_gram_block_rows_are_over_the_least_common_denominator():
    # the integer form the exact eliminator takes: no factor common to every
    # entry and the denominator is left in, so the integers are as small as
    # scaling the reduced fractions by the lcm of their denominators makes them
    for d in (1, 6, 13, 24):
        for s in range(5):
            for charge in range(-d, d + 1):
                exps = charge_exponents(charge, d)
                rows, den = gram_block_rows(exps, s)
                fractions = gram_block(exps, s)
                assert den == math.lcm(*(x.denominator for row in fractions for x in row))
                assert rows == [[x.numerator * (den // x.denominator) for x in row]
                                for row in fractions]


def test_gram_block_rejects_mixed_charges():
    with pytest.raises(ValueError, match="single charge"):
        gram_block([(1, 0), (0, 1)], 1)


def test_charge_exponents_follow_basis_order():
    basis = MonomialBasis(7)
    for charge in range(-7, 8):
        exps = charge_exponents(charge, basis.degree)
        assert exps == [e for e in basis.exponents if e[0] - e[1] == charge]
    assert charge_exponents(8, 7) == []


def test_leading_subgram_is_the_lower_degree_gram():
    sub = leading_subgram(assemble_gram(MonomialBasis(9), 2), 6)
    assert sub.basis == MonomialBasis(6)
    expected = np.zeros((sub.dim, sub.dim))
    for charge in range(-6, 7):
        exps = charge_exponents(charge, 6)
        idx = [sub.basis.index_of(a, b) for a, b in exps]
        expected[np.ix_(idx, idx)] = [[float(x) * math.pi for x in row]
                                      for row in gram_block(exps, 2)]
    assert np.array_equal(sub.matrix, expected)
    with pytest.raises(ValueError, match="0..9"):
        leading_subgram(assemble_gram(MonomialBasis(9), 2), 10)


def test_complex_build_seeds_form_gram_cache():
    # a fresh interpreter, so that no other test has cached the degree-6 Gram
    code = ("from dbarn.neumann import DiscreteComplex\n"
            "from dbarn.sobolev import MonomialBasis, assemble_gram\n"
            "cx = DiscreteComplex.build(7, 1)\n"
            "assert assemble_gram(MonomialBasis(6), 1) is cx.form_gram\n"
            "assert DiscreteComplex.build(7, 1).form_gram is cx.form_gram\n")
    src_dir = str(Path(dbarn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
