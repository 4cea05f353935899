import math
import tracemalloc

import numpy as np
import pytest

from dbarn.bvp import DiscKOperator
from dbarn.forms import random_cpolynomial
from dbarn.geometry import (
    DiscGeometry,
    RadialFourierSum,
    SampledField,
    fd_weights,
    normal_derivative,
    plateau_bump,
    ws_inner_sampled,
    ws_norm_sampled,
)
from dbarn.sobolev import inner_s_direct

from oracles import radial_derivative, ws_inner_frame


def radial(geom, fn):
    return SampledField.from_polar(geom, lambda r, t: fn(r) * np.ones_like(t))


# -- grid and quadrature --------------------------------------------------------


def test_area(geom):
    area = geom.interior_integral(np.ones((geom.n_r, geom.n_theta))).real
    assert abs(area - math.pi) / math.pi <= 1e-10


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        DiscGeometry.build(radial_nodes=4)
    with pytest.raises(ValueError):
        DiscGeometry.build(angular_nodes=17)


def test_boundary_integral_examples(geom):
    assert abs(geom.boundary_integral(np.ones(geom.n_theta)) - 2 * math.pi) < 1e-13
    assert abs(geom.boundary_integral(np.exp(1j * geom.theta))) < 1e-13
    assert abs(geom.boundary_integral(np.cos(geom.theta) ** 2) - math.pi) < 1e-13


def test_normal_kills_nu(geom):
    # N(nu_j) = 0: the normal components are independent of r.
    nu1 = np.cos(geom.theta)
    f = SampledField(geom, np.broadcast_to(nu1, (geom.n_r, geom.n_theta)).copy())
    deriv = radial_derivative(f)[geom.r > 0.05]
    assert np.max(np.abs(deriv)) < 1e-8


# -- normal derivatives -----------------------------------------------------------


def test_normal_derivative_examples(geom):
    f = radial(geom, lambda r: r**2)
    assert np.max(np.abs(normal_derivative(f, 1) - 2.0)) < 1e-9
    const = radial(geom, lambda r: np.ones_like(r))
    for order in (1, 2):
        assert np.max(np.abs(normal_derivative(const, order))) < 1e-9
    # higher orders amplify rounding by 1/spacing^order
    assert np.max(np.abs(normal_derivative(const, 3))) < 1e-6
    cubic = radial(geom, lambda r: (1 - r) ** 3)
    assert np.max(np.abs(normal_derivative(cubic, 2))) < 1e-7


def test_normal_derivative_order_cap(geom):
    f = radial(geom, lambda r: r)
    with pytest.raises(ValueError, match="order 4"):
        normal_derivative(f, 5)


def test_normal_derivative_needs_nodes(geom):
    f = radial(geom, lambda r: r)
    with pytest.raises(ValueError, match="boundary-layer"):
        normal_derivative(f, 4, spacing=0.4)


def test_fd_weights_differentiate_polynomials(rng):
    x = np.sort(rng.uniform(0.0, 1.0, size=7))
    w = fd_weights(x, 0.5, 3)
    coeffs = rng.standard_normal(5)
    vals = np.polyval(coeffs, x)
    for m in (0, 1, 2, 3):
        exact = np.polyval(np.polyder(np.poly1d(coeffs), m), 0.5)
        assert abs(w[m] @ vals - exact) < 1e-7 * max(1.0, abs(exact))


def test_radial_stencil_kills_angular_field(geom):
    f = SampledField.from_polar(geom, lambda r, t: np.exp(1j * t) * np.ones_like(r))
    assert np.max(np.abs(radial_derivative(f)[geom.r > 0.05])) < 1e-8


# -- sampled W^s inner products ------------------------------------------------------


@pytest.mark.parametrize("s", [0, 1, 2])
def test_ws_norm_matches_exact(geom, rng, s):
    for _ in range(3):
        p = random_cpolynomial(rng, 1, 3)
        f = SampledField.from_polynomial(geom, p)
        exact = inner_s_direct(p, p, s).real
        quad = ws_inner_sampled(f, f, s).real
        assert abs(quad - exact) <= 1e-8 * max(exact, 1.0)


def test_ws_inner_polarized(geom, rng):
    p = random_cpolynomial(rng, 1, 3)
    q = random_cpolynomial(rng, 1, 3)
    f = SampledField.from_polynomial(geom, p)
    g = SampledField.from_polynomial(geom, q)
    exact = inner_s_direct(p, q, 2)
    quad = ws_inner_sampled(f, g, 2)
    assert abs(quad - exact) <= 1e-7 * max(abs(exact), 1.0)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_ws_inner_of_a_copy_equals_the_shared_path(geom, rng, s):
    # ws_inner_sampled reuses f's frame derivatives for g when g is f; a
    # separate copy takes its own and must give the very same number
    values = rng.standard_normal((geom.n_r, geom.n_theta)) * (1.0 + 0.5j)
    f = SampledField(geom, values)
    copy = SampledField(geom, values.copy())
    assert ws_inner_sampled(f, copy, s) == ws_inner_sampled(f, f, s)


def random_field(geom, rng):
    shape = (geom.n_r, geom.n_theta)
    return SampledField(geom, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("s", [0, 1, 2])
def test_ws_inner_matches_the_grid_sum_oracle_on_random_fields(geom, rng, s):
    # the per-mode (Parseval) sum is the grid's trapezoid sum reordered; the
    # error is measured against |f|_s |g|_s, which bounds the inner product
    for _ in range(3):
        f, g = random_field(geom, rng), random_field(geom, rng)
        scale = math.sqrt(ws_inner_frame(f, f, s).real * ws_inner_frame(g, g, s).real)
        for a, b in ((f, f), (f, g), (g, f)):
            assert abs(ws_inner_sampled(a, b, s) - ws_inner_frame(a, b, s)) <= 1e-13 * scale


@pytest.mark.parametrize("m", [1, 2, 16, 32])
def test_ws_norm_matches_the_grid_sum_oracle_on_the_criterion_13_family(geom_fine, m):
    psi = SampledField.from_polar(
        geom_fine, lambda r, t: plateau_bump((1 - r) / 0.9) * np.exp(1j * m * t))
    k_psi = DiscKOperator(geom_fine).apply(psi)
    for field, s in ((k_psi, 1), (psi, 2)):
        oracle = ws_inner_frame(field, field, s).real
        assert abs(ws_inner_sampled(field, field, s).real - oracle) <= 1e-10 * oracle


def criterion_13_field(geom, m):
    return SampledField.from_polar(
        geom, lambda r, t: plateau_bump((1 - r) / 0.9) * np.exp(1j * m * t))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_sampled_calls_allocate_no_grid_sized_temporaries(geom_fine):
    # once warm, a norm builds its terms in the grid's workspace and apply
    # allocates the field it returns and nothing else the size of the grid
    grid = geom_fine.n_r * geom_fine.n_theta * np.dtype(complex).itemsize
    psi = criterion_13_field(geom_fine, 5)
    for s in (0, 1, 2):
        ws_norm_sampled(psi, s)
        assert traced_peak(lambda: ws_norm_sampled(psi, s)) < 0.25 * grid
    op = DiscKOperator(geom_fine)
    op.apply(psi)
    assert traced_peak(lambda: op.apply(psi)) < 1.25 * grid


def test_the_workspace_grows_only_when_a_larger_s_asks(rng):
    geom = DiscGeometry.build(600, 64, 4)
    f = random_field(geom, rng)
    geom.ws_weights()
    for order in (1, 2):
        geom.radial_derivative_blocks(order)
    held = []
    for s in (1, 0, 2, 1, 2):
        tracemalloc.start()
        ws_norm_sampled(f, s)
        held.append(round(tracemalloc.get_traced_memory()[0] / f.values.nbytes))
        tracemalloc.stop()
    assert held == [2, 0, 1, 0, 0]


def test_k_fields_share_no_memory_with_each_other_or_the_workspace(geom_fine):
    op = DiscKOperator(geom_fine)
    fields = [op.apply(criterion_13_field(geom_fine, m)) for m in (3, 4)]
    for field in fields:
        ws_norm_sampled(field, 2)
    assert not np.shares_memory(fields[0].values, fields[1].values)
    for field in fields:
        assert not any(np.shares_memory(field.values, buffer)
                       for buffer in geom_fine.ws_workspace(2))


@pytest.mark.parametrize("s", [0, 1, 2])
def test_a_sum_between_two_others_changes_neither(geom_fine, rng, s):
    # every call rewrites the one workspace; what it returns and the fields it
    # read must not depend on what ran in between
    op = DiscKOperator(geom_fine)
    psi = criterion_13_field(geom_fine, 7)
    k_psi = op.apply(psi)
    kept = psi.values.copy(), k_psi.values.copy()
    first = ws_norm_sampled(k_psi, s), ws_norm_sampled(psi, s)
    other = random_field(geom_fine, rng)
    for f, g in ((other, psi), (k_psi, other)):
        scale = math.sqrt(ws_inner_frame(f, f, s).real * ws_inner_frame(g, g, s).real)
        assert abs(ws_inner_sampled(f, g, s) - ws_inner_frame(f, g, s)) <= 1e-13 * scale
    assert (ws_norm_sampled(k_psi, s), ws_norm_sampled(psi, s)) == first
    assert np.array_equal(psi.values, kept[0]) and np.array_equal(k_psi.values, kept[1])
    assert np.array_equal(op.apply(psi).values, kept[1])


def test_theta_multipliers_are_shared_read_only(geom):
    k = geom.theta_wavenumbers()
    first = geom.theta_multiplier(1)
    assert first is geom.theta_multiplier(1) and not first.flags.writeable
    assert first[geom.n_theta // 2] == 0.0
    assert np.array_equal(first, np.where(np.arange(geom.n_theta) == geom.n_theta // 2,
                                          0.0, 1j * k))
    assert np.array_equal(geom.theta_multiplier(2), -k * k)


def test_ws_norm_rejects_large_s(geom):
    f = radial(geom, lambda r: r)
    with pytest.raises(ValueError):
        ws_norm_sampled(f, 3)


# -- cutoff profile -------------------------------------------------------------------


def test_plateau_bump_shape():
    t = np.array([0.0, 0.3, 0.5, 0.6, 0.99, 1.0, 2.0])
    v = plateau_bump(t)
    assert v[0] == v[1] == v[2] == 1.0
    assert 0.0 < v[3] < 1.0
    assert v[4] < 1e-4
    assert v[5] == v[6] == 0.0
    assert np.array_equal(plateau_bump(-t), v)


def test_plateau_bump_derivatives_match_finite_differences():
    ts = np.linspace(0.55, 0.95, 9)
    h = 1e-6
    d1 = plateau_bump(ts, 1)
    fd1 = (plateau_bump(ts + h) - plateau_bump(ts - h)) / (2 * h)
    assert np.max(np.abs(d1 - fd1)) < 1e-5
    d2 = plateau_bump(ts, 2)
    fd2 = (plateau_bump(ts + h) - 2 * plateau_bump(ts) + plateau_bump(ts - h)) / h**2
    assert np.max(np.abs(d2 - fd2)) < 1e-3


# -- polar normal form -----------------------------------------------------------------


def test_radial_fourier_sum_exact_derivatives(geom, rng):
    p = random_cpolynomial(rng, 1, 4)
    rfs = RadialFourierSum.from_cpolynomial(p)
    sampled = rfs.sample(geom)
    direct = SampledField.from_polynomial(geom, p).values
    assert np.max(np.abs(sampled - direct)) < 1e-12
    # first radial derivative against the stencil path, away from the origin
    d_exact = rfs.radial_derivative(1).sample(geom)
    d_stencil = radial_derivative(SampledField(geom, direct))
    mask = geom.r > 0.1
    assert np.max(np.abs((d_exact - d_stencil)[mask])) < 1e-6


def test_radial_fourier_phase_shift(geom):
    one = RadialFourierSum(((1.0 + 0j, 0, 0),))
    shifted = one.phase_shift(-1)
    vals = shifted.boundary_values(geom)
    assert np.allclose(vals, np.exp(-1j * geom.theta))


def test_field_csv_export(tmp_path):
    small = DiscGeometry.build(radial_nodes=20, angular_nodes=8, refine_depth=2)
    f = SampledField.from_polar(small, lambda r, t: r * np.exp(1j * t))
    path = tmp_path / "field.csv"
    f.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "r,theta,re,im"
    assert len(lines) == 1 + small.n_r * small.n_theta
