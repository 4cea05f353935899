"""Independent reference implementations used only by the tests.

Forms are re-encoded as full antisymmetric tensors over ALL ordered index
tuples (not just increasing ones), and the operators are written in their
textbook index form.  Agreement with the library's increasing-index
bookkeeping then checks every epsilon sign through a genuinely different
code path.

The Galerkin solutions are recomputed per charge block in exact Fractions
from the textbook normal equations, with no use of the closed forms the
library solves by.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from dbarn.forms import CPolynomial, FormPoly
from dbarn.sobolev import MonomialBasis, charge_exponents, gram_block

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


def contract_full(psi: FormPoly, omega: FormPoly) -> FormPoly:
    """(psi .| omega)_I = sum_k psi_{kI} conj(omega_k) on the full tensor."""
    n, q = psi.n, psi.q
    full = full_from_canonical(psi)
    omega_conj = {J[0]: p.conjugate() for J, p in omega.comps.items()}
    out: FullTensor = {}
    for key in permutations(range(1, n + 1), q - 1):
        total = CPolynomial.zero(n)
        for k, wk in omega_conj.items():
            comp = full.get((k,) + key)
            if comp is not None:
                total = total + comp * wk
        if not total.is_zero():
            out[key] = total
    return canonical_from_full(out, n, q - 1)


def wedge_full(phi: FormPoly, omega: FormPoly) -> FormPoly:
    """(omega wedge phi)_{j0..jq} = sum_m (-1)^m omega_{j_m} phi_{j0..^jm..jq}."""
    n, q = phi.n, phi.q
    full = full_from_canonical(phi)
    omega_comp = {J[0]: p for J, p in omega.comps.items()}
    out: FullTensor = {}
    for key in permutations(range(1, n + 1), q + 1):
        total = CPolynomial.zero(n)
        for m in range(q + 1):
            wk = omega_comp.get(key[m])
            if wk is None:
                continue
            rest = key[:m] + key[m + 1:]
            comp = full.get(rest)
            if comp is None:
                continue
            term = wk * comp
            total = total + (term if m % 2 == 0 else -term)
        if not total.is_zero():
            out[key] = total
    return canonical_from_full(out, n, q + 1)


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
