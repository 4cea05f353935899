"""Weighted Sobolev inner products of integer order s on the unit disc.

The order-s inner product is

    <f, g>_s = sum_{|alpha| <= s} gamma(alpha) * integral_disc D^alpha f conj(D^alpha g)

with gamma(alpha) = |alpha|!/alpha! and D^alpha ranging over the two real
coordinates of C.  On the monomial basis z^a zbar^b every entry is an exact
rational multiple of pi:

    integral_disc z^a zbar^b conj(z^c zbar^d) = 2*pi / (a+b+c+d+2)   if a+d == b+c
                                              = 0                     otherwise.

Everything is computed in exact rational arithmetic first (the pi factor kept
symbolic) and converted to floats only when a Gram matrix is materialized.
The gamma weights make the inner product rotation invariant, so monomials
with different charge a - b are orthogonal and the Gram matrix splits into
charge blocks.  The order-k weighted derivative sum collapses to
2^k sum_i C(k,i) d^i dbar^(k-i) f conj(d^i dbar^(k-i) g), which puts every
same-charge entry in closed form:

    <z^a zbar^b, z^c zbar^d>_s / pi
        = sum_{k<=s} 2^k * 2/(a+b+c+d-2k+2) * sum_i C(k,i) (a)_i (c)_i (b)_{k-i} (d)_{k-i}

with (x)_i the falling factorial.  ``gram_block`` evaluates it as exact
Fractions; the dense float Gram and the exact per-charge solvers both read
their entries from it.  The symbolic ``inner_s_exact`` (derivatives of
polynomials, then disc integrals) stays as the independent oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .forms import CPolynomial, CRational, QC_ZERO
from .multiindex import enumerate_up_to, gamma

MAX_S = 4
MAX_DIM = 2000

_GRAM_CACHE: dict[tuple[int, int], "SobolevGram"] = {}


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials z^a zbar^b with a + b <= degree.

    Ordering is (total degree ascending, zbar exponent ascending), which puts
    1, z, zbar, z^2, z*zbar, zbar^2, ... in that fixed order.
    """

    degree: int
    exponents: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        exps = [(d - b, b) for d in range(self.degree + 1) for b in range(d + 1)]
        object.__setattr__(self, "exponents", tuple(exps))

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def index_of(self, a: int, b: int) -> int:
        d = a + b
        if d > self.degree or a < 0 or b < 0:
            raise ValueError(f"monomial z^{a} zbar^{b} outside basis of degree {self.degree}")
        return d * (d + 1) // 2 + b

    def coefficients_of(self, p: CPolynomial) -> np.ndarray:
        if p.n != 1:
            raise ValueError("basis handles one complex variable")
        out = np.zeros(self.dim, dtype=complex)
        for (a, b), c in p.terms.items():
            out[self.index_of(a[0], b[0])] = c.to_complex()
        return out


def inner_monomial_L2(a: int, b: int, c: int, d: int) -> Fraction:
    """Exact disc integral of z^a zbar^b conj(z^c zbar^d), as a multiple of pi."""
    if min(a, b, c, d) < 0:
        raise ValueError("exponents must be non-negative")
    if a + d != b + c:
        return Fraction(0)
    return Fraction(2, a + b + c + d + 2)


def pair_L2_exact(p: CPolynomial, q: CPolynomial) -> CRational:
    """Exact <p, q>_{L2(disc)} as a CRational multiple of pi (n = 1 only)."""
    if p.n != 1 or q.n != 1:
        raise ValueError("exact disc integrals are implemented for n = 1")
    total = QC_ZERO
    # Bucket q's terms by charge so only interacting pairs are visited.
    buckets: dict[int, list[tuple[int, int, CRational]]] = {}
    for (ce, de), coeff in q.terms.items():
        c, d = ce[0], de[0]
        buckets.setdefault(c - d, []).append((c, d, coeff))
    for (ae, be), ca in p.terms.items():
        a, b = ae[0], be[0]
        for c, d, cb in buckets.get(a - b, ()):
            w = inner_monomial_L2(a, b, c, d)
            if w:
                total = total + (ca * cb.conjugate()).scale(w)
    return total


def inner_s_exact(f: CPolynomial, g: CPolynomial, s: int) -> CRational:
    """<f, g>_s as an exact CRational multiple of pi."""
    if s < 0:
        raise ValueError("s must be non-negative")
    total = QC_ZERO
    for alpha in enumerate_up_to(s, 2):
        w = gamma(alpha)
        term = pair_L2_exact(f.diff_multi(alpha.exponents), g.diff_multi(alpha.exponents))
        total = total + term.scale(w)
    return total


def inner_s_direct(f: CPolynomial, g: CPolynomial, s: int) -> complex:
    """<f, g>_s evaluated through the gamma-weighted derivative sum."""
    return inner_s_exact(f, g, s).to_complex() * math.pi


def inner_s_recursive_exact(f: CPolynomial, g: CPolynomial, s: int) -> CRational:
    if s < 0:
        raise ValueError("s must be non-negative")
    if s == 0:
        return pair_L2_exact(f, g)
    total = pair_L2_exact(f, g)
    for j in (1, 2):
        total = total + inner_s_recursive_exact(f.diff_real(j), g.diff_real(j), s - 1)
    return total


def inner_s_recursive(f: CPolynomial, g: CPolynomial, s: int) -> complex:
    """<f, g>_s via <f,g>_s = <f,g>_0 + sum_j <D_j f, D_j g>_{s-1}."""
    return inner_s_recursive_exact(f, g, s).to_complex() * math.pi


@dataclass
class SobolevGram:
    """Dense Gram matrix of <. , .>_s on a monomial basis, with Cholesky cache.

    Entries are exact rational multiples of pi converted once to float64;
    they are real (the inner product is invariant under conjugation of the
    domain), as the closed-form charge blocks make explicit.
    """

    s: int
    basis: MonomialBasis
    matrix: np.ndarray
    _cho: tuple[np.ndarray, bool] | None = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def cholesky(self) -> tuple[np.ndarray, bool]:
        if self._cho is None:
            try:
                self._cho = scipy.linalg.cho_factor(self.matrix)
            except scipy.linalg.LinAlgError as exc:
                raise ValueError(
                    f"Gram matrix (degree {self.basis.degree}, s={self.s}) is not "
                    f"numerically positive definite: {exc}"
                ) from exc
        return self._cho

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self.cholesky(), rhs)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """<u, v>_s for coefficient vectors over the basis."""
        return complex(np.conj(v) @ (self.matrix @ u))

    def norm(self, u: np.ndarray) -> float:
        val = self.inner(u, u)
        return math.sqrt(max(val.real, 0.0))

    def to_csv(self, path: str) -> None:
        """Write the matrix for inspection: row, col, exponents, value."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["i", "j", "a_i", "b_i", "a_j", "b_j", "value"])
            exps = self.basis.exponents
            for i in range(self.dim):
                for j in range(self.dim):
                    writer.writerow([i, j, *exps[i], *exps[j],
                                     repr(float(self.matrix[i, j]))])


def charge_exponents(charge: int, max_degree: int) -> list[tuple[int, int]]:
    """Exponents (a, b) with a - b == charge and a + b <= max_degree, in basis order."""
    out = []
    b = max(0, -charge)
    while 2 * b + charge <= max_degree:
        out.append((b + charge, b))
        b += 1
    return out


def gram_block(exps: list[tuple[int, int]], s: int) -> list[list[Fraction]]:
    """Exact <z^a zbar^b, z^c zbar^d>_s / pi over same-charge exponents, closed form."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if len({a - b for a, b in exps}) > 1:
        raise ValueError("gram_block needs exponents of a single charge")
    weights = [[2**k * math.comb(k, i) for i in range(k + 1)] for k in range(s + 1)]
    perm = math.perm  # falling factorial; 0 when the derivative kills the monomial
    n = len(exps)
    block = [[Fraction(0)] * n for _ in range(n)]
    for i, (a, b) in enumerate(exps):
        for j in range(i, n):
            c, d = exps[j]
            total = Fraction(0)
            for k, row in enumerate(weights):
                num = sum(w * perm(a, t) * perm(c, t) * perm(b, k - t) * perm(d, k - t)
                          for t, w in enumerate(row))
                if num:
                    total += Fraction(2 * num, a + b + c + d - 2 * k + 2)
            block[i][j] = block[j][i] = total
    return block


def assemble_gram(basis: MonomialBasis, s: int) -> SobolevGram:
    """Gram matrix of <. , .>_s on the basis, cached per (degree, s).

    Each charge block comes exact from ``gram_block`` and is scattered into
    the dense matrix as float(entry) * pi; cross-charge entries are zero.
    """
    if s < 0 or s > MAX_S:
        raise ValueError(f"s must lie in 0..{MAX_S}")
    if basis.dim > MAX_DIM:
        raise ValueError(f"basis dimension {basis.dim} exceeds the cap {MAX_DIM}")
    key = (basis.degree, s)
    cached = _GRAM_CACHE.get(key)
    if cached is not None:
        return cached

    mat = np.zeros((basis.dim, basis.dim), dtype=float)
    for charge in range(-basis.degree, basis.degree + 1):
        exps = charge_exponents(charge, basis.degree)
        idx = [basis.index_of(a, b) for a, b in exps]
        block = [[float(x) * math.pi for x in row] for row in gram_block(exps, s)]
        mat[np.ix_(idx, idx)] = block

    # Cholesky is computed lazily: the monomial basis carries Hilbert-type
    # charge blocks whose float64 factorization breaks down around degree 25;
    # exact rational block solves (see the neumann module) stay available
    # beyond that point, so assembly itself must not fail.
    gram = SobolevGram(s=s, basis=basis, matrix=mat)
    _GRAM_CACHE[key] = gram
    return gram


def leading_subgram(gram: SobolevGram, degree: int) -> SobolevGram:
    """Gram of the degree-``degree`` prefix, sliced from a larger Gram.

    The basis ordering is degree graded, so the leading principal block of
    the degree-d Gram is exactly the Gram of any lower degree; slicing avoids
    a second assembly and seeds the cache.
    """
    if not 0 <= degree <= gram.basis.degree:
        raise ValueError(f"degree must lie in 0..{gram.basis.degree}")
    key = (degree, gram.s)
    if key not in _GRAM_CACHE:
        sub_basis = MonomialBasis(degree)
        _GRAM_CACHE[key] = SobolevGram(
            s=gram.s, basis=sub_basis,
            matrix=gram.matrix[: sub_basis.dim, : sub_basis.dim].copy())
    return _GRAM_CACHE[key]
