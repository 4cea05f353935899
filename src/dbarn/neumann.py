"""Discrete dbar complex on the disc and the weighted Neumann machinery.

All solver claims run on the monomial Galerkin spaces: functions are spanned
by z^a zbar^b with a+b <= d, (0,1)-form components by the same monomials with
a+b <= d-1 (the image of dbar on the function space, which keeps the discrete
dbar surjective and the discrete harmonic space trivial).  Every inner
product is an exact rational multiple of pi, so the assertions test algebra,
not quadrature.

Contents:

  * the dbar matrix and the W^s Hilbert-space adjoint of any matrix between
    Gram-weighted spaces,
  * least-norm (canonical) solutions of dbar u = f and the inverse of
    dbar dbar* on (0,1)-forms (in one complex variable the full Laplacian
    dbar dbar* + dbar* dbar reduces to dbar dbar* at top degree).  Both rest
    on the shape of the dbar matrix: each function column z^a zbar^b with
    b > 0 has the single entry b, in form row z^a zbar^(b-1), and the
    holomorphic columns are zero, so A A^T = diag(b^2).  The canonical
    solution is then closed form, with no Gram factored, and the Neumann
    solution costs one solve with the cached form-Gram Cholesky factor
    (dbar* N f is the canonical solution, Kohn's formula); a second solve,
    with the function Gram, checks it,
  * the Hodge-type splitting of a form into its dbar-range part and the
    orthogonal remainder,
  * the integration-by-parts (Green) identity connecting <dbar phi, psi>_s,
    <phi, theta psi>_s and the weighted boundary pairing, with every piece
    exact,
  * the boundary domain condition N^s(psi .| dbar rho) = 0, a cutoff
    projection producing forms that satisfy it, and the boundary blow-up
    experiment that shows why the condition is forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import CPolynomial, CRational, FormPoly, QC_ZERO
from .geometry import (
    DiscGeometry,
    RadialFourierSum,
    SampledField,
    default_geometry,
    normal_derivative,
    plateau_bump,
)
from .multiindex import enumerate_up_to, gamma
from .sobolev import (
    MonomialBasis,
    SobolevGram,
    assemble_gram,
    charge_exponents,
    gram_block,
    inner_s_exact,
    leading_subgram,
)

MAX_NEUMANN_S = 2
MAX_NEUMANN_D = 40


def _dbar_pattern(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Column index and weight b of the single entry in each row of A at degree d.

    dbar(z^a zbar^b) = b z^a zbar^(b-1): form row (a, b-1) is hit only by the
    function column (a, b), with weight b, so A A^T = diag(b^2), and the
    holomorphic columns are zero.  Both bases are degree graded: a form row
    of total degree t sits at t(t+1)/2 + b - 1 and its column at
    (t+1)(t+2)/2 + b, which is t + 2 further on.
    """
    deg = np.repeat(np.arange(d), np.arange(1, d + 1))
    rows = np.arange(len(deg))
    return rows + deg + 2, rows - deg * (deg + 1) // 2 + 1


@dataclass
class DiscreteComplex:
    """dbar: functions of degree <= d -> form components of degree <= d-1,
    with the W^s Gram geometry on both sides (one complex variable)."""

    s: int
    basis: MonomialBasis        # function space, degree d
    form_basis: MonomialBasis   # form component space, degree d-1
    gram: SobolevGram
    form_gram: SobolevGram
    dbar_matrix: np.ndarray     # shape (form_dim, dim)

    @classmethod
    def build(cls, d: int, s: int) -> "DiscreteComplex":
        if not 0 <= s <= MAX_NEUMANN_S:
            raise ValueError(f"s must lie in 0..{MAX_NEUMANN_S}")
        if not 1 <= d <= MAX_NEUMANN_D:
            raise ValueError(f"basis degree must lie in 1..{MAX_NEUMANN_D}")
        basis = MonomialBasis(d)
        gram = assemble_gram(basis, s)
        form_gram = leading_subgram(gram, d - 1)
        form_basis = form_gram.basis
        cols, b = _dbar_pattern(d)
        mat = np.zeros((form_basis.dim, basis.dim))
        mat[np.arange(form_basis.dim), cols] = b
        return cls(s=s, basis=basis, form_basis=form_basis, gram=gram,
                   form_gram=form_gram, dbar_matrix=mat)

    # -- coefficient plumbing ----------------------------------------------------

    def form_coeffs(self, phi: FormPoly | CPolynomial) -> np.ndarray:
        comp = phi.component((1,)) if isinstance(phi, FormPoly) else phi
        return self.form_basis.coefficients_of(comp)

    def holomorphic_indices(self) -> np.ndarray:
        """Indices of z^k, k = 0..d: in the degree-graded basis z^k sits at k(k+1)/2."""
        k = np.arange(self.basis.degree + 1)
        return k * (k + 1) // 2


def adjoint(op_matrix: np.ndarray, gram_dom: SobolevGram,
            gram_cod: SobolevGram) -> np.ndarray:
    """The Gram adjoint A* with <A v, w>_cod = <v, A* w>_dom for all v, w.

    One round of iterative refinement on the Gram solve recovers the digits
    the Hilbert-type conditioning of the monomial Gram eats.
    """
    rhs = op_matrix.conj().T @ gram_cod.matrix
    x = gram_dom.solve(rhs)
    x += gram_dom.solve(rhs - gram_dom.matrix @ x)
    return x


@dataclass
class LeastNormSolution:
    coeffs: np.ndarray
    residual: float              # |dbar u - f|_s relative to |f|_s
    kernel_orthogonality: float  # max |<u, z^k>_s|


def _least_norm(cx: DiscreteComplex, fvec: np.ndarray, cols: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Coefficients of the least-W^s-norm solution of A u = f, in closed form.

    u0 = A^T (f / b^2) solves A u0 = f and vanishes on the holomorphic
    columns, which span the kernel of A.  There is one holomorphic monomial
    z^k per charge, so they are mutually W^s-orthogonal, and projecting u0
    off each one sets u[h] = -(G u0)[h] / G[h, h].
    """
    u = np.zeros(cx.basis.dim, dtype=np.result_type(fvec, float))
    u[cols] = fvec / b
    holo = cx.holomorphic_indices()
    g_holo = cx.gram.matrix[holo]
    u[holo] = -(g_holo @ u) / g_holo[np.arange(len(holo)), holo]
    return u


def canonical_solve_dbar(f, s: int | None = None, d: int | None = None,
                         cx: DiscreteComplex | None = None) -> LeastNormSolution:
    """Least-W^s-norm solution of dbar u = f, orthogonal to the holomorphics.

    f may be a FormPoly / CPolynomial of degree <= d-1 or a coefficient
    vector over the form basis.  The solution is written down, not solved
    for (see ``_least_norm``): no Gram is factored, so it holds up to the
    degree cap.  The residual and the kernel orthogonality are measured on
    the returned coefficients.
    """
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    fvec = f if isinstance(f, np.ndarray) else cx.form_coeffs(f)
    cols, b = _dbar_pattern(cx.basis.degree)
    u = _least_norm(cx, fvec, cols, b)

    fnorm = cx.form_gram.norm(fvec)
    resid = cx.form_gram.norm(b * u[cols] - fvec) / fnorm if fnorm else 0.0  # A u - f
    ortho = float(np.max(np.abs(cx.gram.matrix[cx.holomorphic_indices()] @ u)))
    return LeastNormSolution(coeffs=u, residual=resid, kernel_orthogonality=ortho)


@dataclass
class NeumannSolution:
    coeffs: np.ndarray           # (0,1)-form coefficients of u = N_s f
    residual: float              # |dbar dbar* u - f|_s / |f|_s
    norm_ratio: float            # |u|_s / |f|_s
    canonical_match: float       # |dbar* u - canonical solution|_s


def neumann_solve(f, s: int | None = None, d: int | None = None,
                  cx: DiscreteComplex | None = None) -> NeumannSolution:
    """Invert dbar dbar* on (0,1)-forms (the full Laplacian at top degree).

    The discrete harmonic space is trivial (dbar is onto the form space), and
    dbar* u is the canonical solution v of dbar v = f (Kohn's formula).  With
    A* = G^-1 A^T G_f that reads A^T G_f u = G v; applying A, whose A A^T is
    diag(b^2), leaves G_f u = (A G v) / b^2: one solve with the cached form
    Gram factor.  The check is independent of that identity: w = A* u comes
    from a second solve, with the function Gram, and the residual
    |A w - f|_s / |f|_s and the match |w - v|_s are measured on it.
    """
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    fvec = f if isinstance(f, np.ndarray) else cx.form_coeffs(f)
    cols, b = _dbar_pattern(cx.basis.degree)
    v = _least_norm(cx, fvec, cols, b)
    u = cx.form_gram.solve((cx.gram.matrix @ v)[cols] / b)

    a_t_gu = np.zeros(cx.basis.dim, dtype=u.dtype)
    a_t_gu[cols] = b * (cx.form_gram.matrix @ u)
    w = cx.gram.solve(a_t_gu)  # A* u
    fnorm = cx.form_gram.norm(fvec)
    resid = cx.form_gram.norm(b * w[cols] - fvec) / fnorm if fnorm else 0.0
    ratio = cx.form_gram.norm(u) / fnorm if fnorm else 0.0
    return NeumannSolution(coeffs=u, residual=resid, norm_ratio=ratio,
                           canonical_match=cx.gram.norm(w - v))


def hodge_decompose(f, s: int | None = None, d: int | None = None,
                    cx: DiscreteComplex | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Split f into its dbar-range part and the W^s-orthogonal remainder.

    f is a coefficient vector over the full degree-d basis (or a form whose
    component may reach degree d).  In one variable at top degree the
    remainder is purely a truncation artifact: it vanishes whenever f lies
    in the degree-(d-1) range of the discrete dbar.
    """
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    if isinstance(f, np.ndarray):
        fvec = f
    else:
        comp = f.component((1,)) if isinstance(f, FormPoly) else f
        fvec = cx.basis.coefficients_of(comp)
    k = cx.form_basis.dim
    rhs = (cx.gram.matrix @ fvec)[:k]
    c = cx.form_gram.solve(rhs)
    f1 = np.zeros_like(fvec)
    f1[:k] = c
    return f1, fvec - f1


# -- exact rational block backend -------------------------------------------------
#
# The monomial Gram decomposes into charge blocks (charge = z-exponent minus
# zbar-exponent) that are shifted Hilbert matrices; beyond degree ~25 their
# float64 factorization breaks down even though the matrices are exactly
# positive definite.  dbar shifts charge by +1, so the Neumann operator
# factors over charges into blocks of size <= (d+2)/2.  The routines below
# certify positivity and bound the operator on those blocks exactly, from the
# closed-form fractions of ``sobolev.gram_block``:
#
#   * the dbar normal matrix M = A G_func^-1 A^T of a charge is inverted in
#     closed form by the block-inverse (Schur complement) identity, see
#     ``neumann_operator_norm_proxy_exact``;
#   * every elimination that remains is fraction-free (Bareiss, Math. Comp.
#     22, 1968): a block is scaled to integers by the lcm of its
#     denominators and eliminated on Python ints, each step dividing exactly
#     by the previous pivot; only its final quotients become Fractions.
#     The pivots are the leading principal minors, which
#     by Sylvester's criterion are all positive exactly when the block is
#     positive definite.
#
# Only final scalars become floats.


def _integer_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows times the lcm L of all their denominators, as ints, and L."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _bareiss(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of an integer block [A | B], in place.

    A is the leading n x n part of the n rows.  No rows are exchanged, so the
    pivots are the leading principal minors of A, which are returned.  On
    return A is replaced by det(A) I and B by det(A) A^-1 B, all integers.
    Raises ValueError at a zero minor, past which elimination without row
    exchanges cannot go (a positive definite A has none).
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


def _positive_definite_exact(mat: list[list[Fraction]]) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    rows, _ = _integer_rows(mat)
    try:
        return all(m > 0 for m in _bareiss(rows))
    except ValueError:  # a zero minor
        return False


def verify_gram_positive_definite_exact(d: int, s: int) -> bool:
    """Certify positive definiteness of the degree-d W^s Gram, exactly."""
    for charge in range(-d, d + 1):
        exps = charge_exponents(charge, d)
        if exps and not _positive_definite_exact(gram_block(exps, s)):
            return False
    return True


def neumann_operator_norm_proxy_exact(d: int, s: int) -> float:
    """max_k |N_s e_k|_s / |e_k|_s over the form basis, in exact arithmetic.

    For a form basis vector e_k in charge block kappa, the solve reads
    y = M^-1 e_k with M = A G_func^-1 A^T, and |N_s e_k|_s^2 = y^T G_form^-1 y;
    both Grams and the integer dbar block A live on single charges.  In basis
    order A = [0 | D]: the function column h = z^(kappa-1) (present when
    kappa >= 1) is holomorphic, and every other column (a, b) maps to the form
    row (a, b-1) with weight b, so D = diag(b).  The block-inverse (Schur
    complement) identity then gives M^-1 in closed form,

        Y = M^-1 = D^-1 (G_SS - G_Sh G_hS / G_hh) D^-1,

    over the non-holomorphic columns S (D^-1 G_SS D^-1 with no h).  The only
    elimination left is G_form W = Y, done fraction-free on integers, and
    |N_s e_k|_s^2 = (Y^T W)_kk.

    Each degree-d block is built once: the basis is degree graded, so the
    form block of charge kappa (degree d - 1) is its leading block, and the
    whole block is the function block of the next charge.
    """
    if s < 0 or s > MAX_NEUMANN_S:
        raise ValueError(f"s must lie in 0..{MAX_NEUMANN_S}")
    best = Fraction(0)
    exps = charge_exponents(-d, d)
    block = gram_block(exps, s)
    for charge in range(-(d - 1), d):
        func_exps, g = exps, block  # charge - 1, degree d
        exps = charge_exponents(charge, d)
        block = gram_block(exps, s)
        form_exps = charge_exponents(charge, d - 1)
        nf = len(form_exps)
        assert exps[:nf] == form_exps
        g_form = [row[:nf] for row in block[:nf]]  # charge, degree d - 1
        hol = 1 if func_exps[0][1] == 0 else 0
        assert [(a, b - 1) for a, b in func_exps[hol:]] == form_exps
        if hol:
            gh = g[0]
            g = [[x - row[0] * y / gh[0] for x, y in zip(row[1:], gh[1:])]
                 for row in g[1:]]
        weights = [b for _, b in func_exps[hol:]]
        y = [[x / (bi * bj) for x, bj in zip(row, weights)]
             for row, bi in zip(g, weights)]
        gi, g_den = _integer_rows(g_form)
        yi, y_den = _integer_rows(y)
        rows = [gr + yr for gr, yr in zip(gi, yi)]
        det = _bareiss(rows)[-1]
        # rows[t][nf + k] = det (gi^-1 yi)[t][k], and G_form = gi / g_den,
        # Y = yi / y_den, so (Y^T W)_kk = g_den (yi^T gi^-1 yi)_kk / y_den^2
        for k in range(nf):
            num = sum(yi[t][k] * rows[t][nf + k] for t in range(nf))
            best = max(best, Fraction(g_den * num, y_den * y_den * det) / g_form[k][k])
    return math.sqrt(float(best))


# -- exact Green identity -------------------------------------------------------


def _circle_integral_exact(p: CPolynomial) -> CRational:
    """Exact unit-circle integral of a polynomial, as a multiple of pi.

    integral over the circle of z^a zbar^b dtheta = 2 pi iff a == b.
    """
    total = QC_ZERO
    for (a, b), c in p.terms.items():
        if a[0] == b[0]:
            total = total + c.scale(2)
    return total


@dataclass
class GreensIdentityResult:
    lhs: complex
    interior: complex
    boundary: complex
    residual: float


def greens_identity_check(phi: CPolynomial, psi: FormPoly | CPolynomial,
                          s: int) -> GreensIdentityResult:
    """Check <dbar phi, psi>_s = <phi, theta psi>_s + weighted boundary pairing.

    All three pieces are computed independently in exact rational arithmetic
    (interior: disc monomial integrals; boundary: circle monomial integrals),
    so the residual is pure floating-point conversion noise.
    """
    if s < 0 or s > 2:
        raise ValueError("the exact identity check supports s in {0, 1, 2}")
    psi1 = psi.component((1,)) if isinstance(psi, FormPoly) else psi
    lhs = inner_s_exact(phi.diff_zbar(1), psi1, s)
    interior = inner_s_exact(phi, -psi1.diff_z(1), s)
    half_z = CPolynomial.monomial(1, (1,), (0,), CRational.of(Fraction(1, 2)))
    boundary = QC_ZERO
    for alpha in enumerate_up_to(s, 2):
        dphi = phi.diff_multi(alpha.exponents)
        dpsi = psi1.diff_multi(alpha.exponents)
        integrand = dphi * dpsi.conjugate() * half_z
        boundary = boundary + _circle_integral_exact(integrand).scale(gamma(alpha))
    diff = lhs - interior - boundary
    return GreensIdentityResult(
        lhs=lhs.to_complex() * math.pi,
        interior=interior.to_complex() * math.pi,
        boundary=boundary.to_complex() * math.pi,
        residual=abs(diff.to_complex()) * math.pi,
    )


# -- boundary domain condition and the cutoff projection -------------------------


def contraction_with_dbar_rho(psi: SampledField) -> SampledField:
    """psi .| dbar(rho) = psi_1 * exp(-i theta)/2 on the grid (n = 1)."""
    geom = psi.geom
    return SampledField(geom, psi.values * geom.rho_z_phase[None, :])


def check_domain_condition(psi: SampledField | FormPoly, s: int,
                           geom: DiscGeometry | None = None,
                           spacing: float | None = None) -> float:
    """Max over boundary nodes of |N^s(psi .| dbar rho)| via radial stencils."""
    if isinstance(psi, FormPoly):
        if geom is None:
            geom = default_geometry()
        psi = SampledField.from_polynomial(geom, psi.component((1,)))
    c = contraction_with_dbar_rho(psi)
    vals = normal_derivative(c, s, spacing=spacing)
    return float(np.max(np.abs(vals)))


def domain_projection(phi: FormPoly, s: int, eps: float,
                      geom: DiscGeometry | None = None) -> SampledField:
    """Boundary-collar form psi with N^s((phi - psi) .| dbar rho) = 0 on bOmega.

    psi = c_s * (-rho)^s * cutoff(-rho/eps) * N^s(phi .| dbar rho) wedge dbar rho,
    with c_s = (-1)^s * 4 / s! .  The factor 4 = |dbar rho|^{-2} and the sign
    (-1)^s = N^s((-rho)^s)/s! at the boundary are exactly what make the s-th
    normal derivative of the contraction of psi reproduce that of phi; the
    collar cutoff keeps |psi|_s small as eps shrinks.  The s-fold normal
    derivative of the contraction is taken exactly in the polar normal form
    of the polynomial input, so the only numerics in psi are the cutoff
    factors.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    if s < 1:
        raise ValueError("s must be positive")
    if geom is None:
        geom = default_geometry()
    comp = phi.component((1,))
    contraction = RadialFourierSum.from_cpolynomial(comp).phase_shift(-1).scale(0.5)
    g_vals = contraction.radial_derivative(s).sample(geom)
    u = 1.0 - geom.r
    cut = u**s * plateau_bump(u / eps)
    c_s = (-1) ** s * 4.0 / math.factorial(s)
    rho_zbar = np.conj(geom.rho_z_phase)
    vals = c_s * cut[:, None] * g_vals * rho_zbar[None, :]
    return SampledField(geom, vals, form_degree=1)


# -- the boundary blow-up experiment ---------------------------------------------


@dataclass
class BlowupRow:
    eps: float
    norm: float
    pairing: float


@dataclass
class BlowupReport:
    s: int
    delta: float
    rows: tuple[BlowupRow, ...]
    slope: float
    norm_ratio: float
    test_form: str

    @property
    def pairing_monotone(self) -> bool:
        pairings = [row.pairing for row in self.rows]  # rows sorted by eps desc
        return all(a < b for a, b in zip(pairings, pairings[1:]))


def _cap_radial_factor(s: int, eps: float, delta: float, r: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, dR/dr, d2R/dr2) of (1-r)^(s-1) (1-r+eps)^(3/4) bump((1-r)/delta)."""
    u = 1.0 - r
    if s == 1:
        p, p1, p2 = np.ones_like(u), np.zeros_like(u), np.zeros_like(u)
    elif s == 2:
        p, p1, p2 = u, np.ones_like(u), np.zeros_like(u)
    else:
        p = u ** (s - 1)
        p1 = (s - 1) * u ** (s - 2)
        p2 = (s - 1) * (s - 2) * u ** (s - 3)
    q = (u + eps) ** 0.75
    q1 = 0.75 * (u + eps) ** (-0.25)
    q2 = 0.75 * -0.25 * (u + eps) ** (-1.25)
    c = plateau_bump(u / delta)
    c1 = plateau_bump(u / delta, 1) / delta
    c2 = plateau_bump(u / delta, 2) / delta**2
    val = p * q * c
    d_u = p1 * q * c + p * q1 * c + p * q * c1
    d_uu = (p2 * q * c + p * q2 * c + p * q * c2
            + 2 * (p1 * q1 * c + p1 * q * c1 + p * q1 * c1))
    return val, -d_u, d_uu  # d/dr = -d/du


def _cap_angular_factor(delta: float, theta: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = np.mod(theta + math.pi, 2 * math.pi) - math.pi
    return (plateau_bump(t / delta),
            plateau_bump(t / delta, 1) / delta,
            plateau_bump(t / delta, 2) / delta**2)


def _separable_ws_norm(geom: DiscGeometry, s: int,
                       radial: tuple[np.ndarray, np.ndarray, np.ndarray],
                       angular: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """W^s norm of R(r) T(theta) with analytic factor derivatives, s <= 2."""
    R, R1, R2 = radial
    T, T1, T2 = angular
    r = geom.r[:, None]

    def integral(arr: np.ndarray) -> float:
        return geom.interior_integral(arr).real

    f = R[:, None] * T[None, :]
    total = integral(np.abs(f) ** 2)
    if s >= 1:
        fr = R1[:, None] * T[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ft_over_r = R[:, None] * T1[None, :] / r
        ft_over_r[geom.r == 0.0, :] = 0.0
        total += integral(np.abs(fr) ** 2 + np.abs(ft_over_r) ** 2)
    if s >= 2:
        frr = R2[:, None] * T[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            h_rt = R1[:, None] * T1[None, :] / r - R[:, None] * T1[None, :] / r**2
            h_tt = R1[:, None] * T[None, :] / r + R[:, None] * T2[None, :] / r**2
        h_rt[geom.r == 0.0, :] = 0.0
        h_tt[geom.r == 0.0, :] = 0.0
        total += integral(np.abs(frr) ** 2 + 2 * np.abs(h_rt) ** 2 + np.abs(h_tt) ** 2)
    return math.sqrt(max(total, 0.0))


def blowup_test_form(s: int) -> FormPoly:
    """Fixed pairing form: 2 z^(m+1) zbar^m dzbar with m = ceil(s/2).

    Its contraction with dbar(rho) is r^(2m+1), whose s-th radial derivative
    at r = 1 is the constant (2m+1)!/(2m+1-s)! >= 1 on the whole circle, so
    the cap-localized pairing sees a uniform nonzero target.
    """
    m = (s + 1) // 2
    comp = CPolynomial.monomial(1, (m + 1,), (m,), 2)
    return FormPoly(1, 1, {(1,): comp})


def blowup_experiment(s: int, eps_list: list[float] | None = None,
                      delta: float = 0.5,
                      geom: DiscGeometry | None = None) -> BlowupReport:
    """Measure the boundary pairing blow-up of the cap family.

    The family phi_eps = (-rho)^(s-1) (-rho+eps)^(3/4) chi has W^s norms
    bounded in eps while its s-th normal trace grows like eps^(-1/4);
    pairing it against a fixed admissible-direction form on the circle and
    fitting log|pairing| against log(eps) measures that exponent.  Radial
    derivatives of the family are analytic; only the cutoff profile values
    are numeric.
    """
    if s not in (1, 2):
        raise ValueError("the blow-up experiment supports s in {1, 2}")
    if eps_list is None:
        eps_list = [2.0 ** (-k) for k in range(3, 11)]
    eps_list = sorted(eps_list, reverse=True)
    if min(eps_list) < 2.0**-12 or max(eps_list) > 2.0**-3:
        raise ValueError("eps values must lie in [2^-12, 2^-3]")
    if geom is None:
        depth = max(10, int(math.ceil(-math.log2(min(eps_list)))) + 3)
        geom = default_geometry(radial_nodes=900, angular_nodes=128, refine_depth=depth)
    if geom.floor_width > min(eps_list) / 4.0:
        raise ValueError(
            f"radial grid (floor width {geom.floor_width:.2e}) does not resolve "
            f"the smallest eps {min(eps_list):.2e}")

    psi = blowup_test_form(s)
    m = (s + 1) // 2
    trace_constant = math.factorial(2 * m + 1) // math.factorial(2 * m + 1 - s)
    # N^s(psi .| dbar rho) on the circle, exact in the polar normal form:
    contraction = (RadialFourierSum.from_cpolynomial(psi.component((1,)))
                   .phase_shift(-1).scale(0.5))
    psi_trace = contraction.radial_derivative(s).boundary_values(geom)

    angular = _cap_angular_factor(delta, geom.theta)
    rows = []
    for eps in eps_list:
        radial = _cap_radial_factor(s, eps, delta, geom.r)
        norm = _separable_ws_norm(geom, s, radial, angular)
        # N^s of the family at r = 1: all s-1 derivatives must land on the
        # (1-r)^(s-1) factor, one on (1-r+eps)^(3/4); the cutoff is flat at
        # the boundary.
        trace = (math.factorial(s) * (-1.0) ** s * 0.75 * eps**-0.25) * angular[0]
        pairing = abs(geom.boundary_integral(trace * np.conj(psi_trace)))
        rows.append(BlowupRow(eps=eps, norm=norm, pairing=pairing))

    logs = np.log([row.eps for row in rows])
    logp = np.log([row.pairing for row in rows])
    slope = float(np.polyfit(logs, logp, 1)[0])
    norms = [row.norm for row in rows]
    return BlowupReport(
        s=s, delta=delta, rows=tuple(rows), slope=slope,
        norm_ratio=max(norms) / min(norms),
        test_form=f"2 z^{m + 1} zbar^{m} dzbar (trace constant {trace_constant})",
    )
