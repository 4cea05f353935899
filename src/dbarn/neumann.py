"""Discrete dbar complex on the disc and the weighted Neumann machinery.

All solver claims run on the monomial Galerkin spaces: functions are spanned
by z^a zbar^b with a+b <= d, (0,1)-form components by the same monomials with
a+b <= d-1 (the image of dbar on the function space, which keeps the discrete
dbar surjective and the discrete harmonic space trivial).  Every inner
product is an exact rational multiple of pi, so the assertions test algebra,
not quadrature.

Contents:

  * the dbar matrix and its W^s Hilbert-space adjoint dbar*,
  * least-norm (canonical) solutions of dbar u = f and the inverse of
    dbar dbar* on (0,1)-forms (in one complex variable the full Laplacian
    dbar dbar* + dbar* dbar reduces to dbar dbar* at top degree).  Both rest
    on the shape of the dbar matrix: each function column z^a zbar^b with
    b > 0 has the single entry b, in form row z^a zbar^(b-1), and the
    holomorphic columns are zero, so A A^T = diag(b^2).  The canonical
    solution is then closed form, with no Gram factored, and the Neumann
    solution costs one form-Gram solve per charge (dbar* N f is the
    canonical solution, Kohn's formula); applying dbar* to it checks it,
  * the Hodge-type splitting of a vector into its dbar-range part and the
    orthogonal remainder.  These solves take float vectors, through operators
    solved exactly per charge once per (d, s) and rounded once
    (``_operators``), their certificates losing digits from d ~ 20; a form is
    solved exactly, one charge block at a time, by ``exact``,
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
from functools import lru_cache

import numpy as np

from .exact import (MAX_NEUMANN_D, LeastNormSolution, NeumannSolution, _check_size, _factor,
                    _normal_solution, _setup, _substitute)
# the exact certificates, read here by callers of the Neumann machinery
from .exact import neumann_operator_norm_proxy_exact, verify_gram_positive_definite_exact
from .forms import CPolynomial, CRational, FormPoly, QC_ZERO
from .geometry import (
    DiscGeometry,
    RadialFourierSum,
    SampledField,
    default_geometry,
    normal_derivative,
    plateau_bump,
)
from .multiindex import gamma
from .sobolev import (
    MAX_S,
    MonomialBasis,
    SobolevGram,
    assemble_gram,
    inner_s_exact,
    leading_subgram,
    real_matvec,
)

BLOWUP_S = (1, 2)  # the cap family's radial derivatives are written out to order 2
BLOWUP_EPS = (2.0**-12, 2.0**-3)
MAX_BLOWUP_POINTS = 32
# the cutoff lies inside the disc and is no finer than the smallest eps resolved
BLOWUP_DELTA = (2.0**-12, 1.0)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=MAX_NEUMANN_D)
def _dbar_pattern(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Column index and weight b of the single entry in each row of A at degree d,
    built once per degree and read-only.

    dbar(z^a zbar^b) = b z^a zbar^(b-1): form row (a, b-1) is hit only by the
    function column (a, b), with weight b, so A A^T = diag(b^2), and the
    holomorphic columns are zero.  Both bases are degree graded: a form row
    of total degree t sits at t(t+1)/2 + b - 1 and its column at
    (t+1)(t+2)/2 + b, which is t + 2 further on.
    """
    deg = np.repeat(np.arange(d), np.arange(1, d + 1))
    rows = np.arange(len(deg))
    cols, b = rows + deg + 2, rows - deg * (deg + 1) // 2 + 1
    _read_only(cols, b)
    return cols, b


@lru_cache(maxsize=MAX_NEUMANN_D)
def _dense_dbar(d: int) -> np.ndarray:
    """The dense dbar of degree d, shape (form_dim, dim), built on its first read and
    shared read-only by every complex of the degree (5.6 MB at d = 40)."""
    cols, b = _dbar_pattern(d)
    mat = np.zeros((len(cols), (d + 1) * (d + 2) // 2))
    mat[np.arange(len(cols)), cols] = b
    _read_only(mat)
    return mat


@dataclass
class DiscreteComplex:
    """dbar: functions of degree <= d -> form components of degree <= d-1,
    with the W^s Gram geometry on both sides (one complex variable)."""

    s: int
    basis: MonomialBasis        # function space, degree d
    form_basis: MonomialBasis   # form component space, degree d-1
    gram: SobolevGram
    form_gram: SobolevGram

    @classmethod
    def build(cls, d: int, s: int) -> "DiscreteComplex":
        _check_size(d, s)
        basis = MonomialBasis(d)
        gram = assemble_gram(basis, s)
        form_gram = leading_subgram(gram, d - 1)
        return cls(s=s, basis=basis, form_basis=form_gram.basis, gram=gram,
                   form_gram=form_gram)

    @property
    def dbar_matrix(self) -> np.ndarray:
        """The dense dbar, shape (form_dim, dim), read-only and shared by every complex of
        the degree (``_dense_dbar``): the float solves use ``_dbar_pattern`` instead."""
        return _dense_dbar(self.basis.degree)

    def holomorphic_indices(self) -> np.ndarray:
        """Indices of z^k, k = 0..d: in the degree-graded basis z^k sits at k(k+1)/2."""
        k = np.arange(self.basis.degree + 1)
        return k * (k + 1) // 2


def adjoint(op_matrix: np.ndarray, gram_dom: SobolevGram, gram_cod: SobolevGram):
    """The W^s adjoint A* of the disc dbar A, <A v, w>_s = <v, A* w>_s: the store's read-only
    CSR matrix of correctly rounded entries (``_operators``), not a copy.  Any operator or
    Gram pair other than a ``DiscreteComplex``'s ``dbar_matrix``, ``gram`` and
    ``form_gram`` is a ValueError: an operator that is not the shared dense dbar is
    checked against ``_dbar_pattern``, the Grams against the cached ones."""
    cx = DiscreteComplex.build(gram_dom.basis.degree, gram_dom.s)
    cols, b = _dbar_pattern(cx.basis.degree)
    op = np.asarray(op_matrix)
    is_dbar = op is cx.dbar_matrix or (op.shape == (cx.form_basis.dim, cx.basis.dim)
                                       and np.count_nonzero(op) == len(cols)
                                       and np.array_equal(op[np.arange(len(cols)), cols], b))
    grams = ((gram_dom.matrix, cx.gram.matrix), (gram_cod.matrix, cx.form_gram.matrix))
    if not (is_dbar and all(a is g or np.array_equal(a, g) for a, g in grams)):
        raise ValueError("adjoint takes the dbar matrix and the Gram pair of a DiscreteComplex")
    return _operators(cx)[2]


def canonical_solve_dbar(f: np.ndarray, s: int | None = None, d: int | None = None,
                         cx: DiscreteComplex | None = None) -> LeastNormSolution:
    """Least-W^s-norm solution of dbar u = f, orthogonal to the holomorphics.

    f is a float coefficient vector over the form basis, multiplied by the
    canonical map C rounded once (``_operators``); a form is solved exactly by
    ``exact.canonical_exact``.  The solution is written down, not solved for
    (``exact._ChargeSetup.least_norm``), so it holds up to the degree cap.  The
    residual and the kernel orthogonality are measured on the returned coefficients.
    """
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    cols, b = _dbar_pattern(cx.basis.degree)
    u = real_matvec(_operators(cx)[3], f)

    fnorm = cx.form_gram.norm(f)
    resid = cx.form_gram.norm(b * u[cols] - f) / fnorm if fnorm else 0.0  # A u - f
    return LeastNormSolution(coeffs=u, residual=resid,
                             kernel_orthogonality=_kernel_cosine(cx, u))


def _kernel_cosine(cx: DiscreteComplex, u: np.ndarray) -> float:
    """max_k |<u, z^k>_s| / (|u|_s |z^k|_s), from one Gram matvec: <u, z^k>_s
    is (G u)[h] and |z^k|_s^2 is G[h, h]."""
    g = cx.gram.matrix
    gu = real_matvec(g, u)
    u2 = float(np.vdot(u, gu).real)
    if u2 <= 0.0:
        return 0.0
    holo = cx.holomorphic_indices()
    return float(np.max(np.abs(gu[holo]) / np.sqrt(g[holo, holo]))) / math.sqrt(u2)


def neumann_solve(f: np.ndarray, s: int | None = None, d: int | None = None,
                  cx: DiscreteComplex | None = None) -> NeumannSolution:
    """Invert dbar dbar* on (0,1)-forms (the full Laplacian at top degree).

    The discrete harmonic space is trivial (dbar is onto the form space), and
    dbar* u is the canonical solution v of dbar v = f (Kohn's formula).  With
    A* = G^-1 A^T G_f that reads A^T G_f u = G v; applying A, whose A A^T is
    diag(b^2), leaves G_f u = Y f (``exact._ChargeSetup.normal_inverse``).  The
    independent check: |A w - f|_s / |f|_s and |w - v|_s, measured on w = A* u.

    The float vector f is multiplied by N = G_f^-1 Y, A* and C, rounded once
    (``_operators``): u is correctly rounded at every degree, but the entries of
    A* grow with d, and the certificates miss 1e-8 from d ~ 20.  A form is solved
    exactly, one charge at a time, by ``exact.neumann_exact``.
    """
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    cols, b = _dbar_pattern(cx.basis.degree)
    n_op, _, adj, canon = _operators(cx)
    u = real_matvec(n_op, f)
    w = real_matvec(adj, u)  # A* u
    v = real_matvec(canon, f)
    fnorm = cx.form_gram.norm(f)
    resid = cx.form_gram.norm(b * w[cols] - f) / fnorm if fnorm else 0.0
    ratio = cx.form_gram.norm(u) / fnorm if fnorm else 0.0
    return NeumannSolution(coeffs=u, residual=resid, norm_ratio=ratio,
                           canonical_match=cx.gram.norm(w - v))


def hodge_decompose(f: np.ndarray, s: int | None = None, d: int | None = None,
                    cx: DiscreteComplex | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Split a float coefficient vector f over the full degree-d basis into its
    dbar-range part and the W^s-orthogonal remainder, by the rounded projection
    (``_operators``); a form is split exactly by ``exact.hodge_split``.  In one variable
    at top degree the remainder is purely a truncation artifact: it vanishes
    whenever f lies in the degree-(d-1) range of the discrete dbar.
    """
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    f1 = np.zeros_like(f, dtype=np.result_type(f, float))
    f1[:cx.form_basis.dim] = real_matvec(_operators(cx)[1], f)
    return f1, f - f1


def _operators(cx: DiscreteComplex) -> tuple:
    """CSR (N, P, A*, C) = (G_form^-1 Y, G_form^-1 G[form rows], G_func^-1 A^T G_form, the
    canonical map), kept read-only on the degree-d Gram from the first call.  Per form
    charge, N is the store's W, P and A* are substitutions against the factors of blocks
    kappa and kappa - 1, and C is ``exact._ChargeSetup.least_norm`` column by column, every
    entry rounded once, correctly."""
    if cx.gram.operators is None:
        import scipy.sparse  # on first use, like the float Cholesky
        coo = ([], [], [], [])  # (row, column, value) entries of N, P, A* and C

        def put(op, rows, cols, x, scale, den):
            coo[op].extend((i, j, scale * v / den) for i, row in zip(rows, x)
                           for j, v in zip(cols, row))

        d, gram = cx.basis.degree, cx.gram
        for charge in range(1 - d, d):
            cs = _setup(gram, charge)
            nf = cs.nf
            form = [cx.form_basis.index_of(*e) for e in cs.exps[:nf]]
            cols = [cx.basis.index_of(*e) for e in cs.exps]
            w, det, y_den = _normal_solution(gram, charge)
            put(0, form, form, w, cs.den, det * y_den)
            coo[1].extend((i, j, 1.0) for i, j in zip(form, cols))
            x, det = _substitute(_factor(gram, charge), [row[nf:] for row in cs.block[:nf]])
            put(1, form, cols[nf:], x, cs.den, det * cs.den)
            x, det = _substitute(_factor(gram, charge - 1), [[0] * nf] * cs.hol + [
                [b * v for v in row] for b, row in zip(cs.weights, cs.form)])
            func = [cx.basis.index_of(*e) for e in cs.func_exps]
            put(2, func, form, x, cs.func_den, det * cs.den)
            # column j: 1 / b_j on its function column, -G_hj / (G_hh b_j) on z^(kappa-1)
            coo[3].extend((i, j, 1 / b) for i, j, b in zip(func[cs.hol:], form, cs.weights))
            if cs.hol:
                h, p = cs.func[0][1:], cs.func[0][0]
                coo[3].extend((func[0], j, -g / (p * b)) for j, g, b in zip(form, h, cs.weights))
        nf, nu = cx.form_basis.dim, cx.basis.dim
        shapes = [(nf, nf), (nf, nu), (nu, nf), (nu, nf)]
        ops = tuple(scipy.sparse.csr_matrix((v, (i, j)), shape)
                    for (i, j, v), shape in zip((zip(*t) for t in coo), shapes))
        for op in ops:  # handed out as they are: a caller's write raises
            _read_only(op.data, op.indices, op.indptr)
        cx.gram.operators = ops
    return cx.gram.operators


# -- exact Green identity -------------------------------------------------------


def _circle_integral_exact(p: CPolynomial) -> CRational:
    """Exact unit-circle integral of a polynomial, as a multiple of pi.

    integral over the circle of z^a zbar^b dtheta = 2 pi iff a == b.
    """
    re = im = 0
    for ((a,), (b,)), (x, y) in p.num.items():
        if a == b:
            re += x
            im += y
    return CRational(Fraction(2 * re, p.den), Fraction(2 * im, p.den))


@dataclass
class GreensIdentityResult:
    lhs: complex
    interior: complex
    boundary: complex
    residual: float


def greens_identity_check(phi: CPolynomial, psi: CPolynomial, s: int) -> GreensIdentityResult:
    """Check <dbar phi, psi>_s = <phi, theta psi>_s + weighted boundary pairing for the
    (0,1)-form psi dzbar, given by its component polynomial psi.

    All three pieces are computed independently in exact rational arithmetic
    (interior: disc monomial integrals; boundary: circle monomial integrals),
    so the residual is pure floating-point conversion noise.
    """
    if not 0 <= s <= MAX_S:
        raise ValueError(f"the exact identity check supports s in 0..{MAX_S}")
    lhs = inner_s_exact(phi.diff_zbar(1), psi, s)
    interior = inner_s_exact(phi, -psi.diff_z(1), s)
    half_z = CPolynomial.monomial(1, (1,), (0,), CRational.of(Fraction(1, 2)))
    boundary = QC_ZERO
    dpsi = psi.real_derivatives(s)
    for alpha, dphi in phi.real_derivatives(s).items():
        integrand = dphi * dpsi[alpha].conjugate() * half_z
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


def check_domain_condition(psi: SampledField, s: int, spacing: float | None = None) -> float:
    """Max over boundary nodes of |N^s(psi .| dbar rho)| via radial stencils."""
    c = contraction_with_dbar_rho(psi)
    vals = normal_derivative(c, s, spacing=spacing)
    return float(np.max(np.abs(vals)))


def domain_projection(phi: FormPoly, s: int, eps: float, geom: DiscGeometry) -> SampledField:
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
    comp = phi.component((1,))
    contraction = RadialFourierSum.from_cpolynomial(comp).phase_shift(-1).scale(0.5)
    g_vals = contraction.radial_derivative(s).sample(geom)
    u = 1.0 - geom.r
    cut = u**s * plateau_bump(u / eps)
    c_s = (-1) ** s * 4.0 / math.factorial(s)
    rho_zbar = np.conj(geom.rho_z_phase)
    vals = c_s * cut[:, None] * g_vals * rho_zbar[None, :]
    return SampledField(geom, vals)


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
    # s is 1 or 2 (``BLOWUP_S``): (1-r)^(s-1) is 1 or u
    p, p1 = (np.ones_like(u), np.zeros_like(u)) if s == 1 else (u, np.ones_like(u))
    p2 = np.zeros_like(u)
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
    are numeric.  The slope needs at least two distinct eps values.
    """
    if not BLOWUP_S[0] <= s <= BLOWUP_S[1]:
        raise ValueError(f"the blow-up experiment supports s in {BLOWUP_S[0]}..{BLOWUP_S[1]}")
    lo, hi = BLOWUP_DELTA
    if not lo <= delta <= hi:
        raise ValueError(f"the cutoff width delta must lie in {lo}..{hi}, not {delta}")
    if eps_list is None:
        eps_list = [2.0 ** (-k) for k in range(3, 11)]
    eps_list = sorted(eps_list, reverse=True)
    if len(eps_list) > MAX_BLOWUP_POINTS:
        raise ValueError(f"{len(eps_list)} eps values are more than {MAX_BLOWUP_POINTS}")
    lo, hi = BLOWUP_EPS
    if not all(lo <= eps <= hi for eps in eps_list):
        raise ValueError(f"eps values must lie in [2^{math.log2(lo):.0f}, 2^{math.log2(hi):.0f}]")
    finest = min(eps_list, default=hi)  # an empty list is refused below
    if geom is None:
        depth = max(10, int(math.ceil(-math.log2(finest))) + 3)
        geom = default_geometry(radial_nodes=900, angular_nodes=128, refine_depth=depth)
    if geom.floor_width > finest / 4.0:
        raise ValueError(
            f"radial grid (floor width {geom.floor_width:.2e}) does not resolve "
            f"the smallest eps {finest:.2e}")
    if len(set(eps_list)) < 2:
        raise ValueError(f"the slope needs two distinct eps values, not {len(set(eps_list))}")

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
