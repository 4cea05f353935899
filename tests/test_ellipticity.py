import math
from fractions import Fraction

import numpy as np
import pytest

from dbarn.ellipticity import (
    MAX_CERTIFY_S,
    MAX_XI_SAMPLES,
    certify_trivial_kernel,
    half_line_moment,
    lopatinski_matrix,
    quadratic_form,
    reduce_double_sum,
    symbol_closed_form,
    symbol_closed_form_exact,
    symbol_double_sum,
)
from oracles import apply_symbol


def test_closed_form_examples():
    assert symbol_closed_form_exact(1, 0) == {1: {0: 1}}
    assert symbol_closed_form_exact(2, 1) == {2: {0: 1}}
    assert symbol_closed_form_exact(2, 0) == {1: {1: 2}, 3: {0: -1}}


def test_closed_form_coefficients_at_xi():
    coeffs = symbol_closed_form(2, 0, 2.0)
    assert coeffs == [0.0, 8.0, 0.0, -1.0]


def test_closed_form_structure():
    # derivative powers are ell + 2k + 1 with coefficients (-1)^k C(s, ell+k+1)
    for s in range(1, 7):
        for ell in range(s):
            sym = symbol_closed_form_exact(s, ell)
            powers = sorted(sym)
            assert powers == [ell + 2 * k + 1 for k in range(s - ell)]
            for k, power in enumerate(powers):
                assert sym[power] == {s - 1 - ell - k: (-1) ** k * math.comb(s, ell + k + 1)}


def test_index_validation():
    with pytest.raises(ValueError):
        symbol_closed_form_exact(2, 2)
    with pytest.raises(ValueError):
        symbol_double_sum(0, 0)


def test_double_sum_examples():
    assert symbol_double_sum(1, 0) == {(0, 0): 1}
    assert reduce_double_sum(2, 0) == symbol_closed_form_exact(2, 0)
    assert reduce_double_sum(3, 1) == symbol_closed_form_exact(3, 1)


@pytest.mark.parametrize("s", range(1, 7))
def test_double_sum_reduces_to_closed_form(s):
    for ell in range(s):
        assert reduce_double_sum(s, ell) == symbol_closed_form_exact(s, ell)


def test_lopatinski_examples():
    assert np.allclose(lopatinski_matrix(1, 1.0), [[-1.0]])
    assert np.allclose(lopatinski_matrix(1, 2.0), [[-2.0]])
    # s=2, xi=1 on {e^-x, x e^-x}: hand-evaluated entries
    assert np.allclose(lopatinski_matrix(2, 1.0), [[-1.0, -1.0], [1.0, -2.0]])


def test_lopatinski_rejects_nonpositive_xi():
    with pytest.raises(ValueError, match="positive"):
        lopatinski_matrix(2, 0.0)


def test_apply_symbol_exact_path():
    # exact rational evaluation agrees with the float matrix
    val = apply_symbol(2, 0, Fraction(1), [Fraction(0), Fraction(1)])
    assert val == Fraction(-1)


@pytest.mark.parametrize("s", range(1, MAX_CERTIFY_S + 1))
def test_lopatinski_matrix_is_the_per_entry_oracle(s, rng):
    # the same products summed in the same order: equal to the last bit
    xis = [*10.0 ** rng.uniform(-3, 3, size=4),
           Fraction(int(rng.integers(1, 100)), int(rng.integers(1, 100)))]
    for xi in xis:
        expect = [[float(apply_symbol(s, ell, xi, [0] * m + [1])) for m in range(s)]
                  for ell in range(s)]
        assert lopatinski_matrix(s, xi).tolist() == expect


def test_certify_examples():
    rep = certify_trivial_kernel(1, [0.1, 1.0, 10.0])
    assert rep.passed
    assert np.allclose([smp.det for smp in rep.samples], [-0.1, -1.0, -10.0])
    assert certify_trivial_kernel(2, [1.0]).passed
    grid = np.logspace(-1, 1, 25)
    assert certify_trivial_kernel(4, grid).passed


@pytest.mark.parametrize("s", range(1, 7))
def test_certify_full_sweep(s):
    grid = np.logspace(-1, 1, 25)
    rep = certify_trivial_kernel(s, grid)
    assert rep.passed
    assert min(abs(smp.det_scaled) for smp in rep.samples) > 1e-10


def test_certify_validation():
    with pytest.raises(ValueError):
        certify_trivial_kernel(7, [1.0])
    with pytest.raises(ValueError):
        certify_trivial_kernel(2, [0.0, 1.0])
    with pytest.raises(ValueError, match="empty"):
        certify_trivial_kernel(2, [])
    with pytest.raises(ValueError, match="more than"):
        certify_trivial_kernel(2, [1.0] * (MAX_XI_SAMPLES + 1))
    # outside the certified range: at 1e13 the raw determinant overflows
    for s, xi in ((6, 1e13), (2, 1e-7)):
        with pytest.raises(ValueError, match="range"):
            certify_trivial_kernel(s, [xi])


def test_half_line_moment():
    assert half_line_moment(0, 1.0) == 0.5
    assert abs(half_line_moment(3, 0.5) - math.factorial(3)) < 1e-14


def test_quadratic_form_examples():
    assert quadratic_form(2, 1.0, [0.0, 0.0]) == 0.0
    assert abs(quadratic_form(1, 1.0, [1.0]) - 1.0) < 1e-14


def test_quadratic_form_positive(rng):
    for s in (1, 2, 3, 4):
        for xi in (0.1, 1.0, 10.0):
            for _ in range(50):
                v = rng.standard_normal(s) + 1j * rng.standard_normal(s)
                assert quadratic_form(s, xi, v) > 0.0


def test_quadratic_form_scaling():
    # doubling v quadruples the form
    v = [1.0, -2.0]
    assert abs(quadratic_form(2, 0.7, [2 * c for c in v])
               - 4 * quadratic_form(2, 0.7, v)) < 1e-12


def test_lopatinski_matrix_shape_and_domain():
    # one row per boundary operator, one column per bounded solution x^m exp(-xi x)
    for s in range(1, 7):
        assert lopatinski_matrix(s, 2.0).shape == (s, s)
    with pytest.raises(ValueError, match="positive"):
        lopatinski_matrix(2, -1.0)
    with pytest.raises(ValueError, match="positive"):
        lopatinski_matrix(3, Fraction(0))
