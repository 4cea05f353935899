"""Exact per-charge Galerkin solves and certificates of the disc, on Python ints.

The monomial Gram decomposes into charge blocks (charge = z-exponent minus
zbar-exponent) that are shifted Hilbert matrices; beyond degree ~25 their
float64 factorization breaks down even though the matrices are exactly
positive definite.  dbar shifts charge by +1, so the Galerkin problems of
``neumann`` factor over charges into blocks of size <= (d+2)/2.  The routines
here certify positivity, bound the operator and solve a form exactly on those
blocks (the canonical solution of dbar u = f, the Neumann solve and the Hodge
split), read from the store of the (d, s), the cached degree-d
``SobolevGram``, which keeps one factor per Gram block (``_factor``) and each
form charge's ``_ChargeSetup`` (``_setup``); ``neumann`` builds its float
operators from them too:

  * in basis order the dbar block of a form charge kappa is A = [0 | D]:
    the function column h = z^(kappa-1) (present when kappa >= 1) is
    holomorphic and every other column (a, b) maps to the form row
    (a, b-1) with weight b, so D = diag(b) (``_setup`` asserts this per
    charge).  The dbar normal matrix M = A G_func^-1 A^T is then
    inverted in closed form by the block-inverse (Schur complement)
    identity, Y = M^-1 = D^-1 (G_SS - G_Sh G_hS / G_hh) D^-1;
  * each Gram block, an integer matrix over one denominator, is factored
    once on Python ints, fraction-free (``_lu``: Bareiss, Math. Comp. 22,
    1968; Nakos, Turner and Williams, SIGSAM Bull. 31, 1997), and every
    exact solve is a substitution against a factor (``_substitute``).  The
    pivots are the leading principal minors, which by Sylvester's criterion
    are all positive exactly when the block is positive definite;
  * complex vectors are kept as integer real and imaginary parts over one
    denominator (``_Scaled``); a float64 is an exact dyadic rational, so the
    certificates of a rounded solution are exact too.

Only final scalars and printed coefficients become floats, and coefficient
vectors are lists in the basis order of ``sobolev.MonomialBasis``: nothing
here imports numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from operator import mul
from typing import Sequence

from .forms import CRational, QC_ZERO, float_range_error
from .sobolev import MAX_S, MonomialBasis, SobolevGram, cached_gram, charge_exponents

MAX_NEUMANN_D = 40


def _check_size(d: int | None, s: int | None) -> None:
    if s is None or d is None:
        raise ValueError(f"missing {'s' if s is None else 'd'}: give s and d")
    if not 0 <= s <= MAX_S:
        raise ValueError(f"s must lie in 0..{MAX_S}")
    if not 1 <= d <= MAX_NEUMANN_D:
        raise ValueError(f"basis degree must lie in 1..{MAX_NEUMANN_D}")


@dataclass
class LeastNormSolution:
    coeffs: Sequence[complex]    # a list here, an array from the float solves of neumann
    residual: float              # |dbar u - f|_s relative to |f|_s
    # max_k |<u, z^k>_s| / (|u|_s |z^k|_s); exact for a form input
    kernel_orthogonality: float


@dataclass
class NeumannSolution:
    coeffs: Sequence[complex]    # (0,1)-form coefficients of u = N_s f
    residual: float              # |dbar dbar* u - f|_s / |f|_s
    norm_ratio: float            # |u|_s / |f|_s
    canonical_match: float       # |dbar* u - canonical solution|_s


@dataclass
class HodgeSplit:
    range_part: list[complex]       # f1, in the range of dbar on the degree-d functions
    orthogonal_part: list[complex]  # f2 = f - f1, W^s-orthogonal to that range
    range_norm: float            # |f1|_s
    orthogonal_norm: float       # |f2|_s
    orthogonality_defect: float  # |<f1, f2>_s| / (|f1|_s |f1 + f2|_s)


def _integer_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows times the lcm L of all their denominators, as ints, and L."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _lu(rows: list[list[int]]) -> list[list[int]]:
    """The fraction-free LU of a square integer block: Bareiss forward elimination
    without row exchanges, each step dividing exactly by the previous pivot.  Row k
    holds the multipliers, then the pivot (the (k+1)-th leading principal minor),
    then U.  The leading n x n part of the factor is that part's own factor.
    Raises ValueError at a zero minor (a positive definite block has none)."""
    lu = [row[:] for row in rows]
    prev = 1
    for k, pivot_row in enumerate(lu):
        piv = pivot_row[k]
        if piv == 0:
            raise ValueError("exact system has a zero leading principal minor")
        tail = pivot_row[k + 1:]
        for row in lu[k + 1:]:
            f = row[k]
            row[k + 1:] = [(piv * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = piv
    return lu


def _substitute(lu: list[list[int]], rhs: list[list[int]]) -> tuple[list[list[int]], int]:
    """(det(A) A^-1 rhs, det(A)) for the leading n x n part A of the block factored in
    ``lu``, n = len(rhs), with one integer column per right-hand side.  Back
    substitution divides exactly: det(A) A^-1 is the integer adjugate."""
    n, x, det = len(rhs), [row[:] for row in rhs], 1
    for k in range(n):  # forward: the elimination's steps, on rhs
        for i in range(k + 1, n):
            p, f = lu[k][k], lu[i][k]
            x[i] = [(p * a - f * b) // det for a, b in zip(x[i], x[k])]
        det = lu[k][k]
    for k in reversed(range(n)):  # backward: p_k x_k = det c_k - sum_(j>k) U_kj x_j
        acc = [det * a for a in x[k]]
        for j in range(k + 1, n):
            u = lu[k][j]
            acc = [a - u * b for a, b in zip(acc, x[j])]
        x[k] = [a // lu[k][k] for a in acc]
    return x, det


def _factor(gram: SobolevGram, charge: int) -> list[list[int]]:
    """The ``_lu`` of the store's block of ``charge`` (|charge| <= d), built on first read."""
    if charge not in gram.factors:
        gram.factors[charge] = _lu(gram.block(charge)[0])
    return gram.factors[charge]


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
    def of_complex(cls, values) -> "_Scaled":
        """From complex float64s, each part an exact dyadic rational."""
        (re, im), den = _integer_rows([[Fraction(c.real) for c in values],
                                       [Fraction(c.imag) for c in values]])
        return cls(re, im, den)

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

    def solved(self, lu: list[list[int]], scale: int) -> "_Scaled":
        """x with (A / scale) x = self, for the leading part A of the block factored in
        ``lu`` whose size is this vector's length."""
        x, det = _substitute(lu, [[a, b] for a, b in zip(self.re, self.im)])
        return _Scaled([scale * a for a, _ in x], [scale * b for _, b in x], det * self.den)


@dataclass
class _ChargeSetup:
    """The exact blocks of one form charge kappa at basis degree d.

    The degree-d Gram block of charge kappa (``exps``, ``block`` / ``den``)
    has the form block (degree d - 1, its first ``nf`` exponents) as its
    leading part, and is the function block of charge kappa + 1, so both are
    solved against the store's factors of blocks kappa and kappa - 1.
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
    normal: tuple[list[list[int]], int, int] | None = None  # ``_normal_solution``

    def normal_inverse(self) -> tuple[list[list[int]], int]:
        """Y = M^-1 = D^-1 (G_SS - G_Sh G_hS / G_hh) D^-1 as integer rows over their lcm,
        on each call: the store keeps only W = G_form^-1 Y, about ten times its cost.

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


def _normal_solution(gram: SobolevGram, charge: int) -> tuple[list[list[int]], int, int]:
    """(w, det, y_den) with G_form^-1 Y = den w / (det y_den), Y = y / y_den: w is
    det(form) form^-1 y, substituted on the first read and kept in the set-up."""
    cs = _setup(gram, charge)
    if cs.normal is None:
        y, y_den = cs.normal_inverse()
        cs.normal = (*_substitute(_factor(gram, charge), y), y_den)
    return cs.normal


def verify_gram_positive_definite_exact(d: int, s: int) -> bool:
    """Certify positive definiteness of the degree-d W^s Gram, exactly, by Sylvester's
    criterion per charge block: the pivots of each block's factor (``_factor``) are its
    leading principal minors, times positive powers of its denominator."""
    _check_size(d, s)
    gram = cached_gram(d, s)
    try:
        return all(row[k] > 0 for charge in range(-d, d + 1)
                   for k, row in enumerate(_factor(gram, charge)))
    except ValueError:  # a zero leading minor
        return False


def neumann_operator_norm_proxy_exact(d: int, s: int) -> float:
    """max_k |N_s e_k|_s / |e_k|_s over the form basis, in exact arithmetic.

    For a form basis vector e_k in charge block kappa, the solve reads
    y = M^-1 e_k with M = A G_func^-1 A^T, and |N_s e_k|_s^2 = y^T G_form^-1 y;
    both Grams and the integer dbar block A live on single charges.  M^-1 is the
    closed-form Y of ``_ChargeSetup.normal_inverse``, so the only solve left is
    G_form W = Y, the one ``neumann._operators`` builds N from (``_normal_solution``), and
    |N_s e_k|_s^2 = (Y^T W)_kk.
    """
    _check_size(d, s)
    gram = cached_gram(d, s)
    best = Fraction(0)
    for charge in range(1 - d, d):
        cs = _setup(gram, charge)
        y, y_den = cs.normal_inverse()
        rows, det, _ = _normal_solution(gram, charge)
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


def _checked(exact_solve):
    """``exact_solve(f, s, d)`` of a form f once s and d pass ``_check_size``, refused by
    the ValueError that names the scale of f's coefficients when its largest coefficient
    part is nonzero but below the smallest normal float64 (the rounded results would
    lose their digits), or when a rounded coefficient or norm is past the float64 range."""
    @wraps(exact_solve)
    def solve(f, s: int | None = None, d: int | None = None):
        _check_size(d, s)
        comp = f.component((1,))
        top = max((abs(x) for pair in comp.num.values() for x in pair), default=0)
        if 0 < Fraction(top, comp.den) < sys.float_info.min:
            raise float_range_error(comp)
        try:
            return exact_solve(f, s, d)
        except OverflowError:
            raise float_range_error(comp) from None
    return solve


def _charges_of(f, max_degree: int) -> tuple[dict[int, dict[tuple[int, int], tuple[int, int]]],
                                              int]:
    """The integer numerators of a (0,1)-form, grouped by charge, and their common denominator."""
    comp = f.component((1,))
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


def _place(out: list[complex], basis: MonomialBasis, exps: list[tuple[int, int]],
           values: list[complex]) -> None:
    for e, c in zip(exps, values):
        out[basis.index_of(*e)] = c


@_checked
def canonical_exact(f, s: int, d: int) -> LeastNormSolution:
    """The least-W^s-norm solution of dbar u = f for a form f of degree <= d-1, orthogonal to
    the holomorphics: the closed form of ``_ChargeSetup.least_norm``, exact, then rounded.

    The certificates are exact on the returned float64 coefficients u:
    the residual |A u - f|_s / |f|_s, and the kernel orthogonality
    max_k |<u, z^k>_s| / (|u|_s |z^k|_s) over the holomorphic monomials.
    """
    terms, f_den = _charges_of(f, d - 1)
    gram = cached_gram(d, s)
    coeffs = [0j] * gram.dim
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


@_checked
def neumann_exact(f, s: int, d: int) -> NeumannSolution:
    """The solution u of dbar dbar* u = f for a form f of degree <= d-1:
    per charge kappa, G_form u = Y f by substitution against block kappa's factor,
    for the real and imaginary parts (see ``neumann.neumann_solve``).

    The check is independent of the closed-form Y: w = A* u comes from a second
    exact solve, G_func w = A^T G_form u (block kappa - 1), on the rounded u, and the
    residual |A w - f|_s / |f|_s and the match |w - v|_s with the exact
    canonical solution v are exact on it.
    """
    terms, f_den = _charges_of(f, d - 1)
    gram = cached_gram(d, s)
    form_basis = MonomialBasis(d - 1)
    coeffs = [0j] * form_basis.dim
    f2 = r2 = u2 = m2 = Fraction(0)
    for charge in sorted(terms):
        cs = _setup(gram, charge)
        form_exps = cs.exps[:cs.nf]
        fs = _coefficients(terms[charge], f_den, form_exps)
        u = fs.times(*cs.normal_inverse()).solved(_factor(gram, charge), cs.den).rounded()
        _place(coeffs, form_basis, form_exps, u)
        ut = _Scaled.of_complex(u)
        b_gu = ut.times(cs.form, cs.den).weighted(cs.weights)
        pad = [0] * cs.hol  # A^T G_form u is zero on the holomorphic column
        w = _Scaled(pad + b_gu.re, pad + b_gu.im, b_gu.den).solved(_factor(gram, charge - 1),
                                                                  cs.func_den)
        f2 += fs.norm2(cs.form, cs.den)
        r2 += w.tail(cs.hol).weighted(cs.weights).minus(fs).norm2(cs.form, cs.den)
        u2 += ut.norm2(cs.form, cs.den)
        m2 += w.minus(cs.least_norm(fs)).norm2(cs.func, cs.func_den)
    return NeumannSolution(
        coeffs=coeffs,
        residual=math.sqrt(r2 / f2) if f2 else 0.0,
        norm_ratio=math.sqrt(u2 / f2) if f2 else 0.0,
        canonical_match=math.sqrt(math.pi * m2))


@_checked
def hodge_split(f, s: int, d: int) -> HodgeSplit:
    """The Hodge split of a form, exact, with its certificate: per charge, G_form c =
    (G f)_form by substitution against the factor of the charge's block, whose
    leading part G_form is; the range part f1 is c rounded, the remainder f2 is
    f minus it, rounded.  The norms and
    <f1, f2>_s are exact on f1 and f2, on the block the solve reads (1 x 1 at
    charge +-d, where f1 is zero).  The defect divides by |f1 + f2|_s, not
    |f2|_s: the remainder can be 1e-8 of f at the top degree, and against it
    the float64 rounding of f1 would fail correctly rounded splits.
    """
    terms, f_den = _charges_of(f, d)
    gram = cached_gram(d, s)
    f1, f2 = [0j] * gram.dim, [0j] * gram.dim
    g11 = g22 = Fraction(0)
    g12 = QC_ZERO  # <f1, f2>_s / pi
    for charge in sorted(terms):
        exps = charge_exponents(charge, d)
        fs = _coefficients(terms[charge], f_den, exps)
        block, den = gram.block(charge)
        nf = len(charge_exponents(charge, d - 1))
        c = [0j] * len(exps)
        if nf:  # project onto the form block, the leading nf x nf part
            c[:nf] = fs.times(block[:nf], den).solved(_factor(gram, charge), den).rounded()
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
