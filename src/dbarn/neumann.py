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
  * the Hodge-type splitting of a form into its dbar-range part and the
    orthogonal remainder; a form's split (``hodge_split``) carries its exact
    certificate, the norms of both parts and their W^s inner product,
  * every solve is exact, one charge block at a time: a form on the charges
    it touches, with exact certificates on the rounded coefficients; a float
    vector through per-charge operators solved once per (d, s) and rounded
    once (``_operators``), its float certificates losing digits from d ~ 20,
  * exact operator-norm and positive-definiteness certificates on the same
    charge blocks, the second read off the pivots of the first's eliminations,
    all of them kept in one store per (d, s), the cached degree-d Gram,
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
from functools import cached_property
from operator import mul

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
from .multiindex import gamma
from .sobolev import (
    MonomialBasis,
    SobolevGram,
    assemble_gram,
    cached_gram,
    charge_exponents,
    inner_s_exact,
    leading_subgram,
    real_matvec,
)

MAX_NEUMANN_S = 2
MAX_NEUMANN_D = 40
MAX_GREENS_S = 2
BLOWUP_S = (1, 2)
BLOWUP_EPS = (2.0**-12, 2.0**-3)
MAX_BLOWUP_POINTS = 32
# the cutoff lies inside the disc and is no finer than the smallest eps resolved
BLOWUP_DELTA = (2.0**-12, 1.0)


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


def _check_size(d: int | None, s: int | None) -> None:
    if s is None or d is None:
        raise ValueError(f"missing {'s' if s is None else 'd'}: give s and d, or a complex cx")
    if not 0 <= s <= MAX_NEUMANN_S:
        raise ValueError(f"s must lie in 0..{MAX_NEUMANN_S}")
    if not 1 <= d <= MAX_NEUMANN_D:
        raise ValueError(f"basis degree must lie in 1..{MAX_NEUMANN_D}")


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

    @cached_property
    def dbar_matrix(self) -> np.ndarray:
        """The dense dbar, shape (form_dim, dim), built on first read: the float
        solves use ``_dbar_pattern`` instead."""
        cols, b = _dbar_pattern(self.basis.degree)
        mat = np.zeros((self.form_basis.dim, self.basis.dim))
        mat[np.arange(self.form_basis.dim), cols] = b
        return mat

    def holomorphic_indices(self) -> np.ndarray:
        """Indices of z^k, k = 0..d: in the degree-graded basis z^k sits at k(k+1)/2."""
        k = np.arange(self.basis.degree + 1)
        return k * (k + 1) // 2


def adjoint(op_matrix: np.ndarray, gram_dom: SobolevGram, gram_cod: SobolevGram):
    """The W^s adjoint A* of the disc dbar A, <A v, w>_s = <v, A* w>_s, as a CSR matrix of
    correctly rounded entries (``_operators``).  Any operator or Gram pair other than a
    ``DiscreteComplex``'s ``dbar_matrix``, ``gram`` and ``form_gram`` is a ValueError:
    the operator is checked against ``_dbar_pattern``, the Grams against the cached ones."""
    cx = DiscreteComplex.build(gram_dom.basis.degree, gram_dom.s)
    cols, b = _dbar_pattern(cx.basis.degree)
    op = np.asarray(op_matrix)
    is_dbar = (op.shape == (cx.form_basis.dim, cx.basis.dim)
               and np.count_nonzero(op) == len(cols)
               and np.array_equal(op[np.arange(len(cols)), cols], b))
    grams = ((gram_dom.matrix, cx.gram.matrix), (gram_cod.matrix, cx.form_gram.matrix))
    if not (is_dbar and all(a is g or np.array_equal(a, g) for a, g in grams)):
        raise ValueError("adjoint takes the dbar matrix and the Gram pair of a DiscreteComplex")
    return _operators(cx)[2].copy()


@dataclass
class LeastNormSolution:
    coeffs: np.ndarray
    residual: float              # |dbar u - f|_s relative to |f|_s
    # max_k |<u, z^k>_s| / (|u|_s |z^k|_s); exact for a form input
    kernel_orthogonality: float


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

    f may be a FormPoly / CPolynomial of degree <= d-1, solved exactly
    (``_canonical_exact``), or a float coefficient vector over the form
    basis, solved in float64.  The solution is written down, not solved for
    (see ``_least_norm``): no Gram is factored, so it holds up to the degree
    cap.  The residual and the kernel orthogonality are measured on the
    returned coefficients.
    """
    if not isinstance(f, np.ndarray):
        return _canonical_exact(f, *_exact_size(s, d, cx))
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    cols, b = _dbar_pattern(cx.basis.degree)
    u = _least_norm(cx, f, cols, b)

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
    diag(b^2), leaves G_f u = Y f (``_ChargeSetup.normal_inverse``).  The
    independent check: |A w - f|_s / |f|_s and |w - v|_s, measured on w = A* u.

    A FormPoly / CPolynomial f is solved exactly, one charge at a time
    (``_neumann_exact``); a float vector is multiplied by N = G_f^-1 Y and A*,
    rounded once (``_operators``): u is correctly rounded at every degree, but
    the entries of A* grow with d, and the certificates miss 1e-8 from d ~ 20.
    """
    if not isinstance(f, np.ndarray):
        return _neumann_exact(f, *_exact_size(s, d, cx))
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    cols, b = _dbar_pattern(cx.basis.degree)
    v = _least_norm(cx, f, cols, b)
    u = real_matvec(_operators(cx)[0], f)
    w = real_matvec(_operators(cx)[2], u)  # A* u
    fnorm = cx.form_gram.norm(f)
    resid = cx.form_gram.norm(b * w[cols] - f) / fnorm if fnorm else 0.0
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
    in the degree-(d-1) range of the discrete dbar.  A form is split exactly
    (the parts of ``hodge_split``), a float vector by the rounded projection
    (``_operators``).
    """
    if not isinstance(f, np.ndarray):
        split = hodge_split(f, s, d, cx)
        return split.range_part, split.orthogonal_part
    if cx is None:
        cx = DiscreteComplex.build(d, s)
    f1 = np.zeros_like(f, dtype=np.result_type(f, float))
    f1[:cx.form_basis.dim] = real_matvec(_operators(cx)[1], f)
    return f1, f - f1


# -- exact rational block backend -------------------------------------------------
#
# The monomial Gram decomposes into charge blocks (charge = z-exponent minus
# zbar-exponent) that are shifted Hilbert matrices; beyond degree ~25 their
# float64 factorization breaks down even though the matrices are exactly
# positive definite.  dbar shifts charge by +1, so the Galerkin problems
# factor over charges into blocks of size <= (d+2)/2.  The routines below
# certify positivity, bound the operator and solve exactly on those blocks,
# read from the store of the (d, s), the cached degree-d ``SobolevGram``, which
# keeps each form charge's ``_ChargeSetup`` with its one elimination (``_setup``):
#
#   * in basis order the dbar block of a form charge kappa is A = [0 | D]:
#     the function column h = z^(kappa-1) (present when kappa >= 1) is
#     holomorphic and every other column (a, b) maps to the form row
#     (a, b-1) with weight b, so D = diag(b) (``_setup`` asserts this per
#     charge).  The dbar normal matrix M = A G_func^-1 A^T is then
#     inverted in closed form by the block-inverse (Schur complement)
#     identity, Y = M^-1 = D^-1 (G_SS - G_Sh G_hS / G_hh) D^-1;
#   * every elimination that remains is fraction-free (Bareiss, Math. Comp.
#     22, 1968): a block is an integer matrix over one denominator and is
#     eliminated on Python ints, each step dividing exactly by the previous
#     pivot; only its final quotients become Fractions.  The pivots are the
#     leading principal minors, which by Sylvester's criterion are all
#     positive exactly when the block is positive definite;
#   * complex vectors are kept as integer real and imaginary parts over one
#     denominator (``_Scaled``); a float64 is an exact dyadic rational, so the
#     certificates of a rounded solution are exact too.
#
# Only final scalars and printed coefficients become floats.


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


def _dot(x: list[int], y: list[int]) -> int:
    return sum(map(mul, x, y))


def _matvec(rows: list[list[int]], x: list[int]) -> list[int]:
    return [_dot(row, x) for row in rows]


@dataclass
class _Scaled:
    """A complex rational vector (re + i im) / den with integer parts."""

    re: list[int]
    im: list[int]
    den: int

    @classmethod
    def of(cls, pairs) -> "_Scaled":
        """From (real, imaginary) pairs of Fractions, ints or floats (exact dyadics)."""
        (re, im), den = _integer_rows([[Fraction(x) for x, _ in pairs],
                                       [Fraction(y) for _, y in pairs]])
        return cls(re, im, den)

    @classmethod
    def of_complex(cls, values) -> "_Scaled":
        return cls.of([(c.real, c.imag) for c in values])

    def rounded(self) -> list[complex]:
        """The nearest complex float64 of each entry (an int quotient is correctly rounded)."""
        return [complex(x / self.den, y / self.den) for x, y in zip(self.re, self.im)]

    def tail(self, start: int) -> "_Scaled":
        return _Scaled(self.re[start:], self.im[start:], self.den)

    def weighted(self, weights: list[int]) -> "_Scaled":
        return _Scaled([w * x for w, x in zip(weights, self.re)],
                       [w * x for w, x in zip(weights, self.im)], self.den)

    def minus(self, other: "_Scaled") -> "_Scaled":
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return _Scaled([p * x - q * y for x, y in zip(self.re, other.re)],
                       [p * x - q * y for x, y in zip(self.im, other.im)], den)

    def times(self, rows: list[list[int]], den: int) -> "_Scaled":
        """G x for the real G = rows / den."""
        return _Scaled(_matvec(rows, self.re), _matvec(rows, self.im), den * self.den)

    def conj_dot(self, other: "_Scaled") -> CRational:
        """other^H x."""
        den = self.den * other.den
        return CRational(Fraction(_dot(other.re, self.re) + _dot(other.im, self.im), den),
                         Fraction(_dot(other.re, self.im) - _dot(other.im, self.re), den))

    def norm2(self, rows: list[list[int]], den: int) -> Fraction:
        """x^H G x for the real symmetric G = rows / den."""
        return self.times(rows, den).conj_dot(self).re


def _solve(rows: list[list[int]], rhs: _Scaled, scale: int) -> _Scaled:
    """x with (rows / scale) x = rhs, for a positive definite integer block."""
    n = len(rows)
    work = [row + [a, b] for row, a, b in zip(rows, rhs.re, rhs.im)]
    det = _bareiss(work)[-1]
    return _Scaled([scale * row[n] for row in work], [scale * row[n + 1] for row in work],
                   det * rhs.den)


@dataclass
class _ChargeSetup:
    """The exact blocks of one form charge kappa at basis degree d.

    The degree-d Gram block of charge kappa (``exps``, ``block`` / ``den``)
    has the form block (degree d - 1, its first ``nf`` exponents) as its
    leading part, and is the function block of charge kappa + 1.
    """

    exps: list[tuple[int, int]]
    block: list[list[int]]
    den: int
    nf: int
    form: list[list[int]]         # G_form = form / den, the leading nf x nf part of block
    func_exps: list[tuple[int, int]]  # charge kappa - 1, degree d
    func: list[list[int]]         # G_func = func / func_den
    func_den: int
    hol: int                      # 1 when the first function column z^(kappa-1) is holomorphic
    weights: list[int]            # b of the other function columns, D = diag(b)

    def normal_inverse(self) -> tuple[list[list[int]], int]:
        """Y = M^-1 = D^-1 (G_SS - G_Sh G_hS / G_hh) D^-1 as integer rows over their lcm,
        on each call: the store keeps only its elimination, about ten times its cost.

        With G_func = func / den the Schur complement is (p G_SS - G_Sh G_hS) / (den p),
        p = func[0][0]; D^-1 . D^-1 multiplies entry (i, j) by c_i c_j / lcm(b)^2
        with c_i = lcm(b) / b_i.
        """
        func, den = self.func, self.func_den
        if self.hol:
            gh, p = func[0], func[0][0]
            func = [[p * x - row[0] * y for x, y in zip(row[1:], gh[1:])] for row in func[1:]]
            den *= p
        lb = math.lcm(*self.weights)
        c = [lb // b for b in self.weights]
        y = [[x * ci * cj for x, cj in zip(row, c)] for row, ci in zip(func, c)]
        den *= lb * lb
        g = math.gcd(den, *(x for row in y for x in row))
        return [[x // g for x in row] for row in y], den // g

    @cached_property
    def form_elimination(self) -> tuple[list[list[int]], list[int], int]:
        """[G_form | Y | G[form rows, degree d]] after Bareiss, without its det I part;
        its pivots, the leading principal minors of ``form``; and y_den.  With
        Y = y / y_den and det = det(form) the rows read
        [det form^-1 y | det form^-1 block[:, nf:]]."""
        y, y_den = self.normal_inverse()
        work = [g + yr + br[self.nf:] for g, yr, br in zip(self.form, y, self.block)]
        minors = _bareiss(work)
        return [row[self.nf:] for row in work], minors, y_den

    def least_norm(self, f: _Scaled) -> _Scaled:
        """The canonical solution of A v = f, v_S = D^-1 f and v_h = -(G_hS v_S) / G_hh."""
        lb = math.lcm(*self.weights)
        v = f.weighted([lb // b for b in self.weights])
        if not self.hol:
            return _Scaled(v.re, v.im, v.den * lb)
        h, p = self.func[0][1:], self.func[0][0]
        return _Scaled([-_dot(h, v.re)] + [p * x for x in v.re],
                       [-_dot(h, v.im)] + [p * x for x in v.im], v.den * lb * p)


def _setup(gram: SobolevGram, charge: int) -> _ChargeSetup:
    """The set-up of form charge ``charge`` (|charge| < d) in the store of the degree-d
    ``gram``, built on first read from the blocks of the charge and of charge - 1."""
    if charge not in gram.setups:
        d = gram.basis.degree
        exps, func_exps = charge_exponents(charge, d), charge_exponents(charge - 1, d)
        block, den = gram.block(charge)
        nf = len(charge_exponents(charge, d - 1))
        hol = 1 if func_exps[0][1] == 0 else 0
        assert [(a, b - 1) for a, b in func_exps[hol:]] == exps[:nf]
        gram.setups[charge] = _ChargeSetup(exps, block, den, nf,
                                           [row[:nf] for row in block[:nf]], func_exps,
                                           *gram.block(charge - 1), hol,
                                           [b for _, b in func_exps[hol:]])
    return gram.setups[charge]


def _operators(cx: DiscreteComplex) -> tuple:
    """CSR (N, P, A*) = (G_form^-1 Y, G_form^-1 G[form rows], G_func^-1 A^T G_form), kept on
    the degree-d Gram from the first call.  Per form charge, the store's elimination of
    [G_form | Y | G[form rows, degree d]] and a transient one of [G_func | A^T G_form],
    rounded once, correctly."""
    if cx.gram.operators is None:
        import scipy.sparse  # on first use, like the float Cholesky
        coo = ([], [], [])  # (row, column, value) entries of N, P and A*

        def put(op, rows, cols, work, start, scale, den):
            coo[op].extend((i, j, scale * x / den) for i, row in zip(rows, work)
                           for j, x in zip(cols, row[start:]))

        d = cx.basis.degree
        for charge in range(1 - d, d):
            cs = _setup(cx.gram, charge)
            nf = cs.nf
            form = [cx.form_basis.index_of(*e) for e in cs.exps[:nf]]
            cols = [cx.basis.index_of(*e) for e in cs.exps]
            work, (*_, det), y_den = cs.form_elimination
            put(0, form, form, work, 0, cs.den, det * y_den)
            coo[1].extend((i, j, 1.0) for i, j in zip(form, cols))
            put(1, form, cols[nf:], work, nf, cs.den, det * cs.den)
            work = [g + r for g, r in zip(cs.func, [[0] * nf] * cs.hol + [
                [b * x for x in row] for b, row in zip(cs.weights, cs.form)])]
            det = _bareiss(work)[-1]
            put(2, [cx.basis.index_of(*e) for e in cs.func_exps], form, work, len(work),
                cs.func_den, det * cs.den)
        nf, nu = cx.form_basis.dim, cx.basis.dim
        shapes = [(nf, nf), (nf, nu), (nu, nf)]
        cx.gram.operators = tuple(scipy.sparse.csr_matrix((v, (i, j)), shape)
                                  for (i, j, v), shape in zip((zip(*t) for t in coo), shapes))
    return cx.gram.operators


def _block_minors(cs: _ChargeSetup) -> list[int]:
    """The leading principal minors of the degree-d block of the charge, as integer
    rows (den^k times G's), read off ``form_elimination`` (ValueError at a zero pivot).

    The pivots are the minors of form = block[:nf, :nf].  A last row [b^T, c] adds
    det(block) = det(form) (c - b^T form^-1 b) (Schur complement): one dot product
    with the elimination's last column, det(form) form^-1 b.
    """
    work, minors, _ = cs.form_elimination
    if len(cs.block) == cs.nf:
        return minors
    last = cs.block[-1]
    return minors + [minors[-1] * last[-1] - _dot(last, [row[-1] for row in work])]


def verify_gram_positive_definite_exact(d: int, s: int) -> bool:
    """Certify positive definiteness of the degree-d W^s Gram, exactly, by Sylvester's
    criterion per charge block: the 1 x 1 blocks of charge +-d by their sign, every
    other one from its set-up's pivots (``_block_minors``), with no elimination."""
    _check_size(d, s)
    gram = cached_gram(d, s)
    try:
        return (all(gram.block(charge)[0][0][0] > 0 for charge in (-d, d))
                and all(m > 0 for charge in range(1 - d, d)
                        for m in _block_minors(_setup(gram, charge))))
    except ValueError:  # a zero leading minor
        return False


def neumann_operator_norm_proxy_exact(d: int, s: int) -> float:
    """max_k |N_s e_k|_s / |e_k|_s over the form basis, in exact arithmetic.

    For a form basis vector e_k in charge block kappa, the solve reads
    y = M^-1 e_k with M = A G_func^-1 A^T, and |N_s e_k|_s^2 = y^T G_form^-1 y;
    both Grams and the integer dbar block A live on single charges.  M^-1 is the
    closed-form Y of ``_ChargeSetup.normal_inverse``, so the only elimination left
    is G_form W = Y, the one ``_operators`` builds N from (``form_elimination``),
    and |N_s e_k|_s^2 = (Y^T W)_kk.
    """
    _check_size(d, s)
    gram = cached_gram(d, s)
    best = Fraction(0)
    for charge in range(1 - d, d):
        cs = _setup(gram, charge)
        y, y_den = cs.normal_inverse()
        rows, (*_, det), _ = cs.form_elimination
        # rows[t][k] = det (form^-1 y)[t][k], with G_form = form / den and
        # Y = y / y_den: (Y^T W)_kk / G_form[k][k]
        #   = den^2 (y^T form^-1 y)_kk / (y_den^2 form[k][k])
        for k in range(cs.nf):
            num = sum(y[t][k] * rows[t][k] for t in range(cs.nf))
            best = max(best, Fraction(cs.den**2 * num, y_den**2 * det * cs.form[k][k]))
    return math.sqrt(float(best))


# -- exact per-charge Galerkin solves ---------------------------------------------
#
# A form (exact rationals) is solved one charge at a time, on the charges it
# touches only.  The solution is rounded to float64 and every certificate is
# then computed exactly on the rounded coefficients, so a certificate
# measures the printed answer, not the arithmetic that produced it.


def _charges_of(f, max_degree: int) -> tuple[dict[int, dict[tuple[int, int], tuple[int, int]]],
                                              int]:
    """The integer numerators of a (0,1)-form or polynomial in one variable, grouped
    by charge, and their common denominator."""
    comp = f.component((1,)) if isinstance(f, FormPoly) else f
    if comp.n != 1:
        raise ValueError("the disc complex takes forms in one complex variable")
    if comp.degree() > max_degree:
        raise ValueError(f"a form of degree {comp.degree()} is outside the basis of "
                         f"degree {max_degree}")
    out: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}
    for ((a,), (b,)), c in comp.num.items():
        out.setdefault(a - b, {})[(a, b)] = c
    return out, comp.den


def _coefficients(terms: dict[tuple[int, int], tuple[int, int]], den: int,
                  exps: list[tuple[int, int]]) -> _Scaled:
    """The numerators at exps over den, reduced to the least common denominator."""
    pairs = [terms.get(e, (0, 0)) for e in exps]
    g = math.gcd(den, *(x for pair in pairs for x in pair))
    return _Scaled([x // g for x, _ in pairs], [y // g for _, y in pairs], den // g)


def _exact_size(s: int | None, d: int | None,
                cx: DiscreteComplex | None) -> tuple[int, int]:
    """(d, s) of an exact solve: the complex's when one is given (its Grams are
    not used), else checked as ``DiscreteComplex.build`` checks them."""
    if cx is not None:
        return cx.basis.degree, cx.s
    _check_size(d, s)
    return d, s


def _place(out: np.ndarray, basis: MonomialBasis, exps: list[tuple[int, int]],
           values: list[complex]) -> None:
    for e, c in zip(exps, values):
        out[basis.index_of(*e)] = c


def _canonical_exact(f, d: int, s: int) -> LeastNormSolution:
    """``canonical_solve_dbar`` for a form: the closed form in exact arithmetic.

    The certificates are exact on the returned float64 coefficients u:
    the residual |A u - f|_s / |f|_s, and the kernel orthogonality
    max_k |<u, z^k>_s| / (|u|_s |z^k|_s) over the holomorphic monomials.
    """
    terms, f_den = _charges_of(f, d - 1)
    gram = cached_gram(d, s)
    coeffs = np.zeros(gram.dim, dtype=complex)
    f2 = r2 = u2 = Fraction(0)
    kernel = Fraction(0)  # max over charges of |<u, z^k>|^2 / |z^k|^2
    for charge in sorted(terms):
        cs = _setup(gram, charge)
        fs = _coefficients(terms[charge], f_den, cs.exps[:cs.nf])
        u = cs.least_norm(fs).rounded()
        _place(coeffs, gram.basis, cs.func_exps, u)
        ut = _Scaled.of_complex(u)
        f2 += fs.norm2(cs.form, cs.den)
        r2 += ut.tail(cs.hol).weighted(cs.weights).minus(fs).norm2(cs.form, cs.den)
        u2 += ut.norm2(cs.func, cs.func_den)
        if cs.hol:  # <u, z^k> = (G u)_h; the func_den factors cancel in the ratio
            h = cs.func[0]
            kernel = max(kernel, Fraction(_dot(h, ut.re) ** 2 + _dot(h, ut.im) ** 2,
                                          h[0] * cs.func_den * ut.den**2))
    return LeastNormSolution(
        coeffs=coeffs,
        residual=math.sqrt(r2 / f2) if f2 else 0.0,
        kernel_orthogonality=math.sqrt(kernel / u2) if u2 else 0.0)


def _neumann_exact(f, d: int, s: int) -> NeumannSolution:
    """``neumann_solve`` for a form: per charge, G_form u = Y f by one fraction-free
    solve with two right-hand sides (the real and imaginary parts).

    The check is independent of the closed-form Y: w = A* u comes from a
    second exact solve, G_func w = A^T G_form u, on the rounded u, and the
    residual |A w - f|_s / |f|_s and the match |w - v|_s with the exact
    canonical solution v are exact on it.
    """
    terms, f_den = _charges_of(f, d - 1)
    gram = cached_gram(d, s)
    form_basis = MonomialBasis(d - 1)
    coeffs = np.zeros(form_basis.dim, dtype=complex)
    f2 = r2 = u2 = m2 = Fraction(0)
    for charge in sorted(terms):
        cs = _setup(gram, charge)
        form_exps = cs.exps[:cs.nf]
        fs = _coefficients(terms[charge], f_den, form_exps)
        u = _solve(cs.form, fs.times(*cs.normal_inverse()), cs.den).rounded()
        _place(coeffs, form_basis, form_exps, u)
        ut = _Scaled.of_complex(u)
        b_gu = ut.times(cs.form, cs.den).weighted(cs.weights)
        pad = [0] * cs.hol  # A^T G_form u is zero on the holomorphic column
        w = _solve(cs.func, _Scaled(pad + b_gu.re, pad + b_gu.im, b_gu.den), cs.func_den)
        f2 += fs.norm2(cs.form, cs.den)
        r2 += w.tail(cs.hol).weighted(cs.weights).minus(fs).norm2(cs.form, cs.den)
        u2 += ut.norm2(cs.form, cs.den)
        m2 += w.minus(cs.least_norm(fs)).norm2(cs.func, cs.func_den)
    return NeumannSolution(
        coeffs=coeffs,
        residual=math.sqrt(r2 / f2) if f2 else 0.0,
        norm_ratio=math.sqrt(u2 / f2) if f2 else 0.0,
        canonical_match=math.sqrt(math.pi * m2))


@dataclass
class HodgeSplit:
    range_part: np.ndarray       # f1, in the range of dbar on the degree-d functions
    orthogonal_part: np.ndarray  # f2 = f - f1, W^s-orthogonal to that range
    range_norm: float            # |f1|_s
    orthogonal_norm: float       # |f2|_s
    orthogonality_defect: float  # |<f1, f2>_s| / (|f1|_s |f1 + f2|_s)


def hodge_split(f, s: int | None = None, d: int | None = None,
                cx: DiscreteComplex | None = None) -> HodgeSplit:
    """The Hodge split of a form, exact, with its certificate: per charge,
    G_form c = (G f)_form by one fraction-free solve; the range part f1 is c
    rounded, the remainder f2 is f minus it, rounded.  The norms and
    <f1, f2>_s are exact on f1 and f2, on the block the solve reads (1 x 1 at
    charge +-d, where f1 is zero).  The defect divides by |f1 + f2|_s, not
    |f2|_s: the remainder can be 1e-8 of f at the top degree, and against it
    the float64 rounding of f1 would fail correctly rounded splits.
    """
    d, s = _exact_size(s, d, cx)
    terms, f_den = _charges_of(f, d)
    gram = cached_gram(d, s)
    f1 = np.zeros(gram.dim, dtype=complex)
    f2 = np.zeros(gram.dim, dtype=complex)
    g11 = g22 = Fraction(0)
    g12 = QC_ZERO  # <f1, f2>_s / pi
    for charge in sorted(terms):
        exps = charge_exponents(charge, d)
        fs = _coefficients(terms[charge], f_den, exps)
        block, den = gram.block(charge)
        nf = len(charge_exponents(charge, d - 1))
        c = [0j] * len(exps)
        if nf:  # project onto the form block, the leading nf x nf part
            c[:nf] = _solve([row[:nf] for row in block[:nf]], fs.times(block[:nf], den),
                            den).rounded()
        p1 = _Scaled.of_complex(c)
        r = fs.minus(p1).rounded()
        p2 = _Scaled.of_complex(r)
        _place(f1, gram.basis, exps, c)
        _place(f2, gram.basis, exps, r)
        g1 = p1.times(block, den)
        g11 += g1.conj_dot(p1).re
        g12 = g12 + g1.conj_dot(p2)
        g22 += p2.norm2(block, den)
    total = g11 + 2 * g12.re + g22  # |f1 + f2|_s^2 / pi
    defect = math.sqrt((g12.re**2 + g12.im**2) / (g11 * total)) if g11 else 0.0
    return HodgeSplit(range_part=f1, orthogonal_part=f2, range_norm=math.sqrt(math.pi * g11),
                      orthogonal_norm=math.sqrt(math.pi * g22), orthogonality_defect=defect)


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


def greens_identity_check(phi: CPolynomial, psi: FormPoly | CPolynomial,
                          s: int) -> GreensIdentityResult:
    """Check <dbar phi, psi>_s = <phi, theta psi>_s + weighted boundary pairing.

    All three pieces are computed independently in exact rational arithmetic
    (interior: disc monomial integrals; boundary: circle monomial integrals),
    so the residual is pure floating-point conversion noise.
    """
    if not 0 <= s <= MAX_GREENS_S:
        raise ValueError(f"the exact identity check supports s in 0..{MAX_GREENS_S}")
    psi1 = psi.component((1,)) if isinstance(psi, FormPoly) else psi
    lhs = inner_s_exact(phi.diff_zbar(1), psi1, s)
    interior = inner_s_exact(phi, -psi1.diff_z(1), s)
    half_z = CPolynomial.monomial(1, (1,), (0,), CRational.of(Fraction(1, 2)))
    boundary = QC_ZERO
    dpsi = psi1.real_derivatives(s)
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
