import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from dbarn.bvp import (
    MAX_FD_CELLS,
    DiscKOperator,
    Interval1DProblem,
    bessel_i_series,
    bessel_i_series_derivative,
    characteristic_roots,
    manufactured_interval_problem,
    solve_interval,
    solve_interval_fd,
)
from dbarn.forms import CPolynomial, CRational, random_cpolynomial
from dbarn.geometry import (
    SampledField,
    default_geometry,
    fd_weights,
    plateau_bump,
    ws_inner_sampled,
)
from dbarn.multiindex import gamma
from oracles import k_boundary_data_full_field, k_solve_per_mode


# -- the interval problem ---------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
def test_characteristic_roots_satisfy_ode(s):
    for lam in characteristic_roots(s):
        val = sum((-lam**2) ** j for j in range(s + 1))
        assert abs(val) < 1e-12
    roots = characteristic_roots(s)
    assert len(set(np.round(roots, 10))) == 2 * s


def test_problem_validation():
    with pytest.raises(ValueError, match="leading coefficient"):
        Interval1DProblem(1, ((0.0, -1.0),), ((0.0, 1.0),), (0.0,), (0.0,))
    with pytest.raises(ValueError, match="leading normal order"):
        Interval1DProblem(2, ((0.0, 0.0, 1.0, 0.5), (0.0, 0.0, 0.0, -1.0)),
                          ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0)),
                          (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="exactly s"):
        Interval1DProblem(2, ((0.0, 0.0, 1.0),), ((0.0, 0.0, 1.0),), (0.0,), (0.0,))


def test_zero_data_gives_zero():
    prob = Interval1DProblem.shaped(1, [0.0], [0.0])
    sol = solve_interval(prob)
    assert np.max(np.abs(sol.coeffs)) < 1e-12


def test_manufactured_exponential():
    # u = e^x with s=1: N = -d/dx at 0 gives -1, N = d/dx at 1 gives e
    prob = Interval1DProblem(1, ((0.0, 1.0),), ((0.0, 1.0),), (-1.0,), (math.e,))
    sol = solve_interval(prob)
    xs = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(sol.evaluate(xs) - np.exp(xs))) < 1e-11


@pytest.mark.parametrize("s", [1, 2, 3])
def test_manufactured_recovery(s, rng):
    for _ in range(5):
        prob, exact = manufactured_interval_problem(s, rng)
        sol = solve_interval(prob)
        xs = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(sol.evaluate(xs) - exact.evaluate(xs))) < 1e-10
        assert sol.max_boundary_residual < 1e-10


@pytest.mark.parametrize("s", [1, 2])
def test_fd_second_order(s, rng):
    prob, exact = manufactured_interval_problem(s, rng, with_lower_order=False)
    errs = []
    for n in (64, 128, 256):
        x, u = solve_interval_fd(prob, n)
        errs.append(np.max(np.abs(u - exact.evaluate(x))))
    for a, b in zip(errs, errs[1:]):
        assert 3.5 <= a / b <= 4.5


def test_fd_zero_data(rng):
    prob = Interval1DProblem.shaped(2, [0.0, 0.0], [0.0, 0.0])
    _, u = solve_interval_fd(prob, 64)
    assert np.max(np.abs(u)) < 1e-12


def test_fd_grid_cap():
    prob = Interval1DProblem.shaped(2, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="coarse"):
        solve_interval_fd(prob, 8)
    with pytest.raises(ValueError, match="too fine"):
        solve_interval_fd(prob, MAX_FD_CELLS[2] + 1)
    # order-6 differences lose to roundoff from n = 128 on
    prob = Interval1DProblem.shaped(3, [0.0] * 3, [0.0] * 3)
    with pytest.raises(ValueError, match="supports s"):
        solve_interval_fd(prob, 128)


# -- Bessel oracle ------------------------------------------------------------------


def test_bessel_series_against_scipy():
    r = np.linspace(0.0, 1.0, 21)
    for m in (0, 1, 2, 7):
        assert np.max(np.abs(bessel_i_series(m, r) - scipy.special.iv(m, r))) < 1e-13
        assert np.max(np.abs(bessel_i_series_derivative(m, r)
                             - scipy.special.ivp(m, r))) < 1e-13


# -- the disc operator ---------------------------------------------------------------


def test_k_radial_bessel_oracle(geom_fine):
    op = DiscKOperator(geom_fine)
    omega = op.solve_with_boundary_data(np.ones(geom_fine.n_theta))
    exact = bessel_i_series(0, geom_fine.r) / bessel_i_series_derivative(
        0, np.array([1.0]))[0]
    err = np.max(np.abs(omega.values[:, 0] - exact))
    assert err < 1e-6
    # spot values at r = 0, 0.5, 1
    for r_target in (0.0, 0.5, 1.0):
        i = int(np.argmin(np.abs(geom_fine.r - r_target)))
        assert abs(omega.values[i, 0] - exact[i]) < 1e-6


@pytest.mark.parametrize("m,tol", [(1, 1e-6), (2, 1e-6), (7, 1e-6), (32, 2e-5), (64, 2e-5)])
def test_k_mode_profile_bessel_oracle(geom_fine, m, tol):
    # unit Neumann datum in mode m: I_m(r) / I_m'(1)
    prof = DiscKOperator(geom_fine).unit_profile(m)
    exact = bessel_i_series(m, geom_fine.r) / bessel_i_series_derivative(
        m, np.array([1.0]))[0]
    assert np.max(np.abs(prof - exact)) < tol


def _mode_matrix_per_row(r, m):
    """Reference: every stencil of the mode-m radial operator rebuilt row by row."""
    n = len(r)
    ab = np.zeros((5, n))
    for i in range(1, n - 1):
        sel = [i - 1, i, i + 1]
        w2 = fd_weights(r[sel], r[i], 2)[2]
        w1 = fd_weights(r[sel], r[i], 1)[1]
        for j, a2, a1 in zip(sel, w2, w1):
            ab[2 + i - j, j] += a2 + a1 / r[i]
        ab[2, i] += -(m * m) / (r[i] * r[i]) - 1.0
    if m == 0:
        for j, a2 in enumerate(fd_weights(r[:3], 0.0, 2)[2]):
            ab[2 - j, j] += 2.0 * a2
        ab[2, 0] += -1.0
    else:
        ab[2, 0] += 1.0
    for j, a1 in zip(range(n - 3, n), fd_weights(r[n - 3:], 1.0, 1)[1]):
        ab[2 + n - 1 - j, j] += a1
    return ab


def test_k_shared_band_matches_per_row_assembly(geom):
    op = DiscKOperator(geom)
    for m in (0, 1, 5, op.mode_max):
        assert np.array_equal(op._mode_matrix(m), _mode_matrix_per_row(geom.r, m))


def test_k_builds_stencils_once(geom_fine, monkeypatch):
    import dbarn.bvp

    calls = []
    real = dbarn.bvp.fd_weights

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dbarn.bvp, "fd_weights", counting)
    op = DiscKOperator(geom_fine)
    for m in range(op.mode_max + 1):
        op.unit_profile(m)
    assert len(calls) <= geom_fine.n_r + 2


def test_k_zero_and_interior_support(geom_fine):
    op = DiscKOperator(geom_fine)
    zero = SampledField(geom_fine, np.zeros((geom_fine.n_r, geom_fine.n_theta)))
    assert np.max(np.abs(op.apply(zero).values)) == 0.0
    interior = SampledField.from_polar(
        geom_fine, lambda r, t: plateau_bump(r / 0.5) * np.exp(2j * t))
    assert np.max(np.abs(op.apply(interior).values)) < 1e-10


def test_k_linearity(geom_fine, rng):
    op = DiscKOperator(geom_fine)
    p1 = random_cpolynomial(rng, 1, 3)
    p2 = random_cpolynomial(rng, 1, 3)
    f1 = SampledField.from_polynomial(geom_fine, p1)
    f2 = SampledField.from_polynomial(geom_fine, p2)
    combo = op.apply(SampledField(geom_fine, f1.values * 2.0 + f2.values * (-1.5j)))
    direct = op.apply(f1).values * 2.0 + op.apply(f2).values * (-1.5j)
    scale = np.max(np.abs(direct)) + 1e-30
    assert np.max(np.abs(combo.values - direct)) / scale < 1e-10


def test_k_mode_cap(geom_fine):
    op = DiscKOperator(geom_fine, mode_max=4)
    with pytest.raises(ValueError, match="truncation"):
        op.unit_profile(9)


@pytest.mark.parametrize("mode_max", [-1, 5000])
def test_k_mode_max_outside_grid_is_refused(mode_max):
    geom = default_geometry(radial_nodes=200, angular_nodes=16)
    with pytest.raises(ValueError, match="0..8"):
        DiscKOperator(geom, mode_max=mode_max)


@pytest.mark.parametrize("mode_max", [None, 5])
def test_k_stacked_recombination_equals_the_per_mode_loop(geom_fine, rng, mode_max):
    op = DiscKOperator(geom_fine, mode_max=mode_max)
    for _ in range(5):
        data = rng.standard_normal(geom_fine.n_theta) + 1j * rng.standard_normal(
            geom_fine.n_theta)
        values = op.solve_with_boundary_data(data).values
        assert np.array_equal(values, k_solve_per_mode(op, data))
    if mode_max is not None:
        # data above the truncation reaches no mode of the field
        high = np.exp(7j * geom_fine.theta) + np.exp(-9j * geom_fine.theta)
        spectrum = np.fft.fft(op.solve_with_boundary_data(high).values, axis=1)
        wavenumbers = np.abs(geom_fine.theta_wavenumbers())
        assert np.max(np.abs(spectrum[:, wavenumbers > mode_max])) < 1e-13


def test_boundary_data_equals_the_full_field_theta_derivative(geom, rng):
    op = DiscKOperator(geom)
    shape = (geom.n_r, geom.n_theta)
    for _ in range(20):
        psi = SampledField(geom, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.array_equal(op.boundary_data(psi), k_boundary_data_full_field(op, psi))


def test_boundary_data_zero_for_interior_support(geom_fine):
    psi = SampledField.from_polar(
        geom_fine, lambda r, t: plateau_bump(r / 0.4) * np.ones_like(t))
    data = DiscKOperator(geom_fine).boundary_data(psi)
    assert data.shape == (geom_fine.n_theta,)
    assert np.max(np.abs(data)) < 1e-12


def in_domain_form(rng):
    """psi1 whose contraction trace has vanishing normal derivative at r=1."""
    a = int(rng.integers(0, 3))
    b = int(rng.integers(0, 3))
    if a + b == 0:
        a = 1
    k = int(rng.integers(1, 3))
    p, p2 = a + b, a + b + 2 * k
    return (CPolynomial.monomial(1, (a + k,), (b + k,), 1)
            + CPolynomial.monomial(1, (a,), (b,), CRational.of(-Fraction(p2, p))))


def test_weak_form_identity(geom_fine, rng):
    """<phi, K psi>_1 equals the weighted boundary pairing for admissible psi.

    This is the defining integral identity of the adjoint correction, checked
    against 20 polynomial trial functions; it pins down the tangential-adjoint
    terms of the order-2 boundary data.
    """
    op = DiscKOperator(geom_fine)
    bpoints = np.exp(1j * geom_fine.theta)
    rho_z = geom_fine.rho_z_phase
    for psi_poly in (CPolynomial.const(1, 1), in_domain_form(rng), in_domain_form(rng)):
        psi_field = SampledField.from_polynomial(geom_fine, psi_poly)
        omega = op.apply(psi_field)
        omega_norm = math.sqrt(abs(ws_inner_sampled(omega, omega, 1)))
        for _ in range(20):
            phi = random_cpolynomial(rng, 1, 3)
            phi_field = SampledField.from_polynomial(geom_fine, phi)
            lhs = ws_inner_sampled(phi_field, omega, 1)
            rhs = 0.0
            dpsis = psi_poly.real_derivatives(1)
            for alpha, dphi in phi.real_derivatives(1).items():
                dphi = dphi.eval(bpoints[None, :])
                dpsi = dpsis[alpha].eval(bpoints[None, :])
                rhs += gamma(alpha) * geom_fine.boundary_integral(
                    dphi * np.conj(dpsi * rho_z))
            phi_norm = math.sqrt(abs(ws_inner_sampled(phi_field, phi_field, 1)))
            assert abs(lhs - rhs) <= 1e-6 * max(phi_norm * omega_norm, 1.0)
