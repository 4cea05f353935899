"""Independent reference implementations used only by the tests.

Forms are re-encoded as full antisymmetric tensors over ALL ordered index
tuples (not just increasing ones), and the operators are written in their
textbook index form.  Agreement with the library's increasing-index
bookkeeping then checks every epsilon sign through a genuinely different
code path.

Polynomial coefficients are recombined one term at a time in CRational
(two Fractions per coefficient, a gcd per product), the arithmetic the
library replaced with Gaussian-integer numerators over one denominator: sums,
products, scaling, conjugation, the Wirtinger and real derivatives, the
Laplacian and the exact disc pairing act on plain term maps
{(a, b): CRational}.

The Galerkin solutions are recomputed per charge block in exact Fractions
from the textbook normal equations, with no use of the closed forms the
library solves by, and the Gram's positive definiteness is certified by a
standalone elimination of every block, with no use of the library's store.
That elimination is a fraction-free Gauss-Jordan one, the reference the
library's LU factor and substitution are checked against.

The sampled W^s inner product is recomputed on the grid, from derivative
fields in the orthonormal polar frame, with no use of the angular Fourier
domain the library sums in; the disc K operator's boundary data and mode
recombination are recomputed with full-field theta derivatives and one
mode at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from dbarn.bvp import DiscKOperator
from dbarn.forms import QC_I, QC_ZERO, BiExponent, CPolynomial, CRational, FormPoly
from dbarn.geometry import SampledField, normal_derivative
from dbarn.sobolev import MonomialBasis, charge_exponents, gram_block_rows

FullTensor = dict[tuple[int, ...], CPolynomial]


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    items = list(perm)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def full_from_canonical(phi: FormPoly) -> FullTensor:
    out: FullTensor = {}
    for J, p in phi.comps.items():
        for perm in permutations(J):
            sign = _perm_sign(perm)
            out[perm] = p if sign == 1 else -p
    return out


def canonical_from_full(full: FullTensor, n: int, q: int) -> FormPoly:
    comps = {}
    for key, p in full.items():
        if all(key[i] < key[i + 1] for i in range(len(key) - 1)) and not p.is_zero():
            comps[key] = p
    return FormPoly(n, q, comps)


def dbar_full(phi: FormPoly) -> FormPoly:
    """(dbar phi)_{j0..jq} = sum_m (-1)^m d/dzbar_{j_m} phi_{j0..^jm..jq}."""
    n, q = phi.n, phi.q
    full = full_from_canonical(phi)
    out: FullTensor = {}
    for key in permutations(range(1, n + 1), q + 1):
        total = CPolynomial.zero(n)
        for m in range(q + 1):
            rest = key[:m] + key[m + 1:]
            comp = full.get(rest)
            if comp is None:
                continue
            term = comp.diff_zbar(key[m])
            total = total + (term if m % 2 == 0 else -term)
        if not total.is_zero():
            out[key] = total
    return canonical_from_full(out, n, q + 1)


def theta_full(psi: FormPoly) -> FormPoly:
    """(theta psi)_I = - sum_i d/dz_i psi_{iI} on the full tensor."""
    n, q = psi.n, psi.q
    full = full_from_canonical(psi)
    out: FullTensor = {}
    for key in permutations(range(1, n + 1), q - 1):
        total = CPolynomial.zero(n)
        for i in range(1, n + 1):
            comp = full.get((i,) + key)
            if comp is not None:
                total = total - comp.diff_z(i)
        if not total.is_zero():
            out[key] = total
    return canonical_from_full(out, n, q - 1)


# -- per-term Fraction algebra of polynomial coefficients ---------------------------

Terms = dict[BiExponent, CRational]


def _put(out: Terms, key: BiExponent, c: CRational) -> None:
    s = out.get(key, QC_ZERO) + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def terms_add(p: Terms, q: Terms) -> Terms:
    out = dict(p)
    for key, c in q.items():
        _put(out, key, c)
    return out


def terms_scale(p: Terms, c: CRational) -> Terms:
    return {} if c.is_zero() else {key: v * c for key, v in p.items()}


def terms_conjugate(p: Terms) -> Terms:
    return {(b, a): c.conjugate() for (a, b), c in p.items()}


def terms_mul(p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
            _put(out, key, c1 * c2)
    return out


def _lowered(e: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = list(e)
    out[k] -= 1
    return tuple(out)


def terms_diff_z(p: Terms, k: int) -> Terms:
    """d/dz_k (1-based)."""
    return {(_lowered(a, k - 1), b): c.scale(a[k - 1]) for (a, b), c in p.items() if a[k - 1]}


def terms_diff_zbar(p: Terms, k: int) -> Terms:
    return {(a, _lowered(b, k - 1)): c.scale(b[k - 1]) for (a, b), c in p.items() if b[k - 1]}


def terms_diff_real(p: Terms, n: int, j: int) -> Terms:
    """D_j = d/dz_j + d/dzbar_j (j <= n), D_{k+n} = i (d/dz_k - d/dzbar_k)."""
    if j <= n:
        return terms_add(terms_diff_z(p, j), terms_diff_zbar(p, j))
    k = j - n
    return terms_scale(terms_add(terms_diff_z(p, k),
                                 terms_scale(terms_diff_zbar(p, k), CRational.of(-1))), QC_I)


def terms_laplacian(p: Terms, n: int) -> Terms:
    out: Terms = {}
    for j in range(1, 2 * n + 1):
        out = terms_add(out, terms_diff_real(terms_diff_real(p, n, j), n, j))
    return out


def inner_monomial_L2(a: int, b: int, c: int, d: int) -> Fraction:
    """Exact disc integral of z^a zbar^b conj(z^c zbar^d), as a multiple of pi."""
    if min(a, b, c, d) < 0:
        raise ValueError("exponents must be non-negative")
    if a + d != b + c:
        return Fraction(0)
    return Fraction(2, a + b + c + d + 2)


def pair_L2_terms(p: Terms, q: Terms) -> CRational:
    """<p, q>_{L2(disc)} / pi in one variable: z^a zbar^b against z^c zbar^d
    integrates to 2 / (a+b+c+d+2) when a + d == b + c, else to 0."""
    total = QC_ZERO
    for ((a,), (b,)), cp in p.items():
        for ((c,), (d,)), cq in q.items():
            if a + d == b + c:
                total = total + (cp * cq.conjugate()).scale(Fraction(2, a + b + c + d + 2))
    return total


# -- exact Gram blocks ---------------------------------------------------------------


def gram_block(exps: list[tuple[int, int]], s: int) -> list[list[Fraction]]:
    """Exact <z^a zbar^b, z^c zbar^d>_s / pi over same-charge exponents, as Fractions:
    the ``gram_block_rows`` entries, each reduced on its own."""
    rows, den = gram_block_rows(exps, s)
    return [[Fraction(x, den) for x in row] for row in rows]


def bareiss_gauss_jordan(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of an integer block [A | B], in place:
    the reference elimination the library's LU and substitution are checked against.

    A is the leading n x n part of the n rows.  No rows are exchanged, so the
    pivots are the leading principal minors of A, which are returned.  On
    return A is replaced by det(A) I and B by det(A) A^-1 B, all integers.
    Raises ValueError at a zero minor, past which elimination without row
    exchanges cannot go.
    """
    minors = []
    prev = 1
    for k, pivot_row in enumerate(rows):
        piv = pivot_row[k]
        if piv == 0:
            raise ValueError("exact system has a zero leading principal minor")
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        minors.append(piv)
        prev = piv
    return minors


def positive_definite_exact(rows: list[list[int]]) -> bool:
    """Sylvester's criterion on integer rows (any positive multiple of the
    matrix), by a standalone elimination: every leading principal minor is positive."""
    try:
        return all(m > 0 for m in bareiss_gauss_jordan([row[:] for row in rows]))
    except ValueError:  # a zero minor
        return False


def gram_positive_definite_exact(d: int, s: int) -> bool:
    """Positive definiteness of the degree-d W^s Gram, block by block, each block
    built afresh and eliminated on its own."""
    return all(positive_definite_exact(gram_block_rows(charge_exponents(charge, d), s)[0])
               for charge in range(-d, d + 1))


# -- exact Galerkin solutions ------------------------------------------------------


def fraction_solve(mat: list[list[Fraction]], rhs: list[list[Fraction]]
                   ) -> list[list[Fraction]]:
    """Gauss-Jordan elimination with row pivoting on Fractions."""
    n = len(mat)
    a = [row[:] + r[:] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("exact system is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def exact_galerkin_solutions(fvec: np.ndarray, d: int, s: int
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The canonical solution of dbar u = f and the Neumann solution N_s f, exactly.

    fvec holds form coefficients over the degree-(d-1) basis; each float is
    an exact dyadic Fraction.  Per charge kappa (form block of charge kappa,
    function block of charge kappa - 1, dbar block A read off the rule
    dbar z^a zbar^b = b z^a zbar^(b-1)), with G the function Gram and G_f the
    form Gram from ``gram_block``:

        X = G^-1 A^T,  M = A X,  y = M^-1 f,  u = X y,  N_s f = G_f^-1 y,

    the least-norm solution of the normal equations and the inverse of
    A A* = M G_f.  Only the final coefficients become floats.  Fine to d = 12.
    """
    basis, form_basis = MonomialBasis(d), MonomialBasis(d - 1)
    canonical = np.zeros(basis.dim, dtype=complex)
    neumann = np.zeros(form_basis.dim, dtype=complex)
    for charge in range(-(d - 1), d):
        form_exps = charge_exponents(charge, d - 1)
        func_exps = charge_exponents(charge - 1, d)
        form_index = {e: i for i, e in enumerate(form_exps)}
        nf, nu = len(form_exps), len(func_exps)
        a_t = [[Fraction(0)] * nf for _ in range(nu)]
        for j, (a, b) in enumerate(func_exps):
            if b:
                a_t[j][form_index[(a, b - 1)]] = Fraction(b)
        x = fraction_solve(gram_block(func_exps, s), a_t)
        m = [[sum(a_t[t][i] * x[t][j] for t in range(nu)) for j in range(nf)]
             for i in range(nf)]
        f = [fvec[form_basis.index_of(*e)] for e in form_exps]
        y = fraction_solve(m, [[Fraction(c.real), Fraction(c.imag)] for c in f])
        u = [[sum(x[i][t] * y[t][k] for t in range(nf)) for k in (0, 1)]
             for i in range(nu)]
        n_f = fraction_solve(gram_block(form_exps, s), y)
        for e, (re, im) in zip(func_exps, u):
            canonical[basis.index_of(*e)] = complex(float(re), float(im))
        for e, (re, im) in zip(form_exps, n_f):
            neumann[form_basis.index_of(*e)] = complex(float(re), float(im))
    return canonical, neumann


def exact_adjoint(d: int, s: int) -> np.ndarray:
    """The W^s adjoint of the disc dbar, G^-1 A^T G_f, per charge by Fraction
    Gauss-Jordan, with each entry rounded once to float64.

    Per form charge kappa, A^T G_f has the row b G_f[(a, b-1)] at a function
    column z^a zbar^b with b > 0, and a zero row at the holomorphic column.
    """
    basis, form_basis = MonomialBasis(d), MonomialBasis(d - 1)
    out = np.zeros((basis.dim, form_basis.dim))
    for charge in range(-(d - 1), d):
        form_exps = charge_exponents(charge, d - 1)
        func_exps = charge_exponents(charge - 1, d)
        g_f = gram_block(form_exps, s)
        form_index = {e: i for i, e in enumerate(form_exps)}
        a_t_gf = [[b * x for x in g_f[form_index[(a, b - 1)]]] if b else [Fraction(0)] * len(g_f)
                  for a, b in func_exps]
        cols = [form_basis.index_of(*e) for e in form_exps]
        for e, row in zip(func_exps, fraction_solve(gram_block(func_exps, s), a_t_gf)):
            out[basis.index_of(*e), cols] = [float(x) for x in row]
    return out


def exact_hodge_split(fvec: np.ndarray, d: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The range part of f (the W^s projection onto the degree-(d-1) form space)
    and the remainder f minus that part rounded, per charge by Fraction
    Gauss-Jordan on G_f c = (G f)_form.

    fvec holds coefficients over the degree-d basis, each float an exact
    dyadic Fraction.  Only the two returned vectors become floats.
    """
    basis = MonomialBasis(d)
    f1 = np.zeros(basis.dim, dtype=complex)
    f2 = np.zeros(basis.dim, dtype=complex)
    for charge in range(-d, d + 1):
        exps = charge_exponents(charge, d)
        form_exps = charge_exponents(charge, d - 1)
        idx = [basis.index_of(*e) for e in exps]
        f = [[Fraction(fvec[i].real), Fraction(fvec[i].imag)] for i in idx]
        c = [[Fraction(0), Fraction(0)] for _ in exps]
        if form_exps:
            g = gram_block(exps, s)
            gf = [[sum(g[i][t] * f[t][k] for t in range(len(exps))) for k in (0, 1)]
                  for i in range(len(form_exps))]
            c[:len(form_exps)] = [[Fraction(float(x)) for x in row]
                                  for row in fraction_solve(gram_block(form_exps, s), gf)]
        for i, fi, ci in zip(idx, f, c):
            f1[i] = complex(float(ci[0]), float(ci[1]))
            f2[i] = complex(float(fi[0] - ci[0]), float(fi[1] - ci[1]))
    return f1, f2



def exact_hodge_certificate(f1: np.ndarray, f2: np.ndarray, d: int,
                            s: int) -> tuple[float, float, float]:
    """|f1|_s, |f2|_s and |<f1, f2>_s| / (|f1|_s |f1 + f2|_s) for coefficient
    vectors over the degree-d basis, summed entry by entry over the Fraction
    ``gram_block`` of every charge, each float an exact dyadic Fraction."""
    basis = MonomialBasis(d)
    g11 = g22 = g12_re = g12_im = Fraction(0)
    for charge in range(-d, d + 1):
        exps = charge_exponents(charge, d)
        g = gram_block(exps, s)
        idx = [basis.index_of(*e) for e in exps]
        u = [(Fraction(f1[i].real), Fraction(f1[i].imag)) for i in idx]
        v = [(Fraction(f2[i].real), Fraction(f2[i].imag)) for i in idx]
        for i in range(len(exps)):
            for j in range(len(exps)):
                # <u, v> = sum conj(v_i) G_ij u_j; G is real
                g11 += g[i][j] * (u[i][0] * u[j][0] + u[i][1] * u[j][1])
                g22 += g[i][j] * (v[i][0] * v[j][0] + v[i][1] * v[j][1])
                g12_re += g[i][j] * (v[i][0] * u[j][0] + v[i][1] * u[j][1])
                g12_im += g[i][j] * (v[i][0] * u[j][1] - v[i][1] * u[j][0])
    total = g11 + 2 * g12_re + g22
    defect = math.sqrt((g12_re**2 + g12_im**2) / (g11 * total)) if g11 else 0.0
    return math.sqrt(math.pi * g11), math.sqrt(math.pi * g22), defect

# -- sampled fields on the disc ------------------------------------------------------


def radial_derivative(f: SampledField, order: int = 1) -> np.ndarray:
    """d^order f / dr^order on the grid, by the geometry's radial stencil."""
    return f.geom.radial_derivative_matrix(order) @ f.values


def theta_derivative(f: SampledField, order: int = 1) -> np.ndarray:
    """d^order f / dtheta^order on the grid, by an FFT along each ring."""
    mult = f.geom.theta_multiplier(order)
    return np.fft.ifft(np.fft.fft(f.values, axis=1) * mult[None, :], axis=1)


def _frame_derivatives(f: SampledField, s: int) -> list[np.ndarray]:
    """[f, f_r, f_theta, H_rr, H_rtheta, H_thetatheta] up to order s, each taken once.

    The Hessian components are those of the orthonormal polar frame; rows at
    r = 0 of the 1/r-scaled components are zeroed.
    """
    geom = f.geom
    out = [f.values]
    if s >= 1:
        out += [radial_derivative(f, 1), theta_derivative(f, 1)]
    if s >= 2:
        fr, ft = out[1], out[2]
        frr = radial_derivative(f, 2)
        ftt = theta_derivative(f, 2)
        frt = theta_derivative(SampledField(geom, fr), 1)
        r = geom.r[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            h_rt = frt / r - ft / r**2
            h_tt = fr / r + ftt / r**2
        zero_row = geom.r == 0.0
        h_rt[zero_row, :] = 0.0
        h_tt[zero_row, :] = 0.0
        out += [frr, h_rt, h_tt]
    return out


def ws_inner_frame(f: SampledField, g: SampledField, s: int) -> complex:
    """Quadrature W^s inner product of sampled fields, s in {0, 1, 2}, on the grid.

    Uses the frame identities sum_j D_j f conj(D_j g) = f_r conj(g_r)
    + r^-2 f_theta conj(g_theta) and the analogous Hessian contraction, which
    are exactly the gamma-weighted derivative sums of orders 1 and 2.
    """
    geom = f.geom
    fd = _frame_derivatives(f, s)
    gd = fd if g is f else _frame_derivatives(g, s)
    total = geom.interior_integral(fd[0] * np.conj(gd[0]))
    if s >= 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            ang = fd[2] * np.conj(gd[2]) / geom.r[:, None]**2
        ang[geom.r == 0.0, :] = 0.0
        total += geom.interior_integral(fd[1] * np.conj(gd[1]) + ang)
    if s >= 2:
        integrand = (fd[3] * np.conj(gd[3]) + 2.0 * fd[4] * np.conj(gd[4])
                     + fd[5] * np.conj(gd[5]))
        total += geom.interior_integral(integrand)
    return total


def k_boundary_data_full_field(op: DiscKOperator, psi: SampledField) -> np.ndarray:
    """``DiscKOperator.boundary_data`` with psi differentiated in theta on the
    whole grid before its boundary row is read."""
    geom = op.geom
    theta = geom.theta
    rho_z = geom.rho_z_phase
    data = psi.boundary_values() * rho_z
    dpsi_dtheta = theta_derivative(psi)[-1]
    dpsi_dr = normal_derivative(psi, 1)
    c = (-np.sin(theta), np.cos(theta))
    nu = (np.cos(theta), np.sin(theta))
    mult = 1j * geom.theta_wavenumbers()
    mult[geom.n_theta // 2] = 0.0
    for j in (0, 1):
        t_j = (c[j] * dpsi_dtheta + nu[j] * dpsi_dr) * rho_z
        data -= np.fft.ifft(np.fft.fft(c[j] * t_j) * mult)
    return data


def k_solve_per_mode(op: DiscKOperator, data: np.ndarray) -> np.ndarray:
    """``DiscKOperator.solve_with_boundary_data`` values, filled one wavenumber
    column at a time."""
    geom = op.geom
    hat = np.fft.fft(np.asarray(data, dtype=complex)) / geom.n_theta
    spectrum = np.zeros((geom.n_r, geom.n_theta), dtype=complex)
    for idx, m in enumerate(geom.theta_wavenumbers().astype(int)):
        if abs(m) > op.mode_max or hat[idx] == 0:
            continue
        spectrum[:, idx] = hat[idx] * op.unit_profile(m) * geom.n_theta
    return np.fft.ifft(spectrum, axis=1)
