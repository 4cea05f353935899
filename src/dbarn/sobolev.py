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

with (x)_i the falling factorial.  ``gram_block_rows`` evaluates it exactly,
as integer rows over one common denominator.  The cached ``SobolevGram`` of
a (degree, s) is the one store of those blocks, built per charge on first
read: the exact per-charge solvers read them and keep their set-ups next to
them, and the dense float matrix is scattered from them on its first read.
The symbolic ``inner_s_exact`` stays as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .forms import CPolynomial, CRational
from .multiindex import gamma

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


def _add_pairing(sums: dict[int, list[int]], p: CPolynomial, q: CPolynomial,
                 weight: int) -> None:
    """Adds weight * <p, q>_{L2(disc)} / pi to sums (n = 1 only).

    sums maps a denominator k to Gaussian-integer parts [re, im] worth
    2 (re + i im) / k.  Within the pairing, the products of interacting
    numerators are summed per weight denominator t = a+b+c+d+2, which enters
    as k = t * p.den * q.den.
    """
    if p.n != 1 or q.n != 1:
        raise ValueError("exact disc integrals are implemented for n = 1")
    # Bucket q's terms by charge so only interacting pairs are visited.
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for ((c,), (d,)), (x, y) in q.num.items():
        buckets.setdefault(c - d, []).append((c + d + 2, x, y))
    local: dict[int, list[int]] = {}
    for ((a,), (b,)), (x1, y1) in p.num.items():
        for cd2, x2, y2 in buckets.get(a - b, ()):
            # (x1 + i y1) conj(x2 + i y2), weight 2 / t
            acc = local.setdefault(a + b + cd2, [0, 0])
            acc[0] += x1 * x2 + y1 * y2
            acc[1] += y1 * x2 - x1 * y2
    den = p.den * q.den
    for t, (re, im) in local.items():
        acc = sums.setdefault(t * den, [0, 0])
        acc[0] += weight * re
        acc[1] += weight * im


def _collect(sums: dict[int, list[int]]) -> CRational:
    """The CRational that ``_add_pairing`` sums stand for: one Fraction per part."""
    top = math.lcm(*sums)
    re = 2 * sum(top // k * acc[0] for k, acc in sums.items())
    im = 2 * sum(top // k * acc[1] for k, acc in sums.items())
    return CRational(Fraction(re, top), Fraction(im, top))


def inner_s_exact(f: CPolynomial, g: CPolynomial, s: int) -> CRational:
    """<f, g>_s as an exact CRational multiple of pi: the gamma-weighted sum of
    the L2 pairings of D^alpha f and D^alpha g over |alpha| <= s."""
    if s < 0:
        raise ValueError("s must be non-negative")
    dg = g.real_derivatives(s)
    sums: dict[int, list[int]] = {}
    for alpha, df in f.real_derivatives(s).items():
        _add_pairing(sums, df, dg[alpha], gamma(alpha))
    return _collect(sums)


def inner_s_direct(f: CPolynomial, g: CPolynomial, s: int) -> complex:
    """<f, g>_s evaluated through the gamma-weighted derivative sum."""
    return inner_s_exact(f, g, s).to_complex() * math.pi


def _add_recursive(sums: dict[int, list[int]], f: CPolynomial, g: CPolynomial,
                   s: int) -> None:
    _add_pairing(sums, f, g, 1)
    if s:
        for j in (1, 2):
            _add_recursive(sums, f.diff_real(j), g.diff_real(j), s - 1)


def inner_s_recursive_exact(f: CPolynomial, g: CPolynomial, s: int) -> CRational:
    """<f, g>_s by the recursion below: one L2 pairing per ordered sequence of
    at most s real derivatives, none merged."""
    if s < 0:
        raise ValueError("s must be non-negative")
    sums: dict[int, list[int]] = {}
    _add_recursive(sums, f, g, s)
    return _collect(sums)


def inner_s_recursive(f: CPolynomial, g: CPolynomial, s: int) -> complex:
    """<f, g>_s via <f,g>_s = <f,g>_0 + sum_j <D_j f, D_j g>_{s-1}."""
    return inner_s_recursive_exact(f, g, s).to_complex() * math.pi


def real_matvec(mat, u: np.ndarray) -> np.ndarray:
    """mat @ u for a real (dense or sparse) matrix and a real or complex vector, as one
    real product on the (re, im) columns of u: mat is never cast to a complex copy."""
    u = np.ascontiguousarray(u, dtype=np.result_type(np.asarray(u), float))
    return (mat @ u.view(float).reshape(len(u), -1)).view(u.dtype).ravel()


class SobolevGram:
    """The W^s Gram of one (degree, s), and the store of its exact charge blocks.

    ``block(charge)``, ``neumann``'s fraction-free LU ``factors`` of the blocks (every
    exact solve substitutes against them) and its per-charge ``setups``, and the dense
    float64 ``matrix`` are each built on first read and kept until the Gram cache drops
    the object, so an exact computation never allocates the matrix.
    ``operators`` are the float solve operators, kept by ``neumann``.
    """

    def __init__(self, s: int, basis: MonomialBasis):
        self.s, self.basis = s, basis
        self._blocks: dict[int, tuple[list[list[int]], int]] = {}
        self.factors: dict = {}  # charge -> neumann's fraction-free LU of block(charge)
        self.setups: dict = {}  # form charge -> neumann's exact set-up
        self.operators: tuple | None = None

    @property
    def dim(self) -> int:
        return self.basis.dim

    def block(self, charge: int) -> tuple[list[list[int]], int]:
        """(rows, den) of the charge block over ``charge_exponents(charge, degree)``."""
        if charge not in self._blocks:
            exps = charge_exponents(charge, self.basis.degree)
            self._blocks[charge] = gram_block_rows(exps, self.s)
        return self._blocks[charge]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense Gram.  An int quotient is correctly rounded, so ``row_entry / den``
        is the float of the reduced fraction."""
        basis = self.basis
        mat = np.zeros((basis.dim, basis.dim), dtype=float)
        for charge in range(-basis.degree, basis.degree + 1):
            idx = [basis.index_of(a, b) for a, b in charge_exponents(charge, basis.degree)]
            rows, den = self.block(charge)
            mat[np.ix_(idx, idx)] = [[x / den * math.pi for x in row] for row in rows]
        return mat

    def cholesky(self) -> tuple[np.ndarray, bool]:
        """``cho_factor`` of the matrix, on each call (no solve factors the Gram: its
        Hilbert-type blocks break float64 down around degree 25, a ValueError)."""
        import scipy.linalg  # on first use: the solvers never need it

        try:
            return scipy.linalg.cho_factor(self.matrix)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError(f"Gram matrix (degree {self.basis.degree}, s={self.s}) is not "
                             f"numerically positive definite: {exc}") from exc

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """<u, v>_s for coefficient vectors over the basis."""
        return complex(np.vdot(v, real_matvec(self.matrix, u)))

    def norm(self, u: np.ndarray) -> float:
        val = self.inner(u, u)
        return math.sqrt(max(val.real, 0.0))


def charge_exponents(charge: int, max_degree: int) -> list[tuple[int, int]]:
    """Exponents (a, b) with a - b == charge and a + b <= max_degree, in basis order."""
    out = []
    b = max(0, -charge)
    while 2 * b + charge <= max_degree:
        out.append((b + charge, b))
        b += 1
    return out


def gram_block_rows(exps: list[tuple[int, int]], s: int) -> tuple[list[list[int]], int]:
    """Exact <z^a zbar^b, z^c zbar^d>_s / pi over same-charge exponents, closed form,
    as integer rows over one denominator.

    Returns (rows, den) with entry (i, j) equal to rows[i][j] / den, where den
    is the lcm of the entries' reduced denominators: the integer form the
    fraction-free eliminator of the exact solvers takes.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    if len({a - b for a, b in exps}) > 1:
        raise ValueError("a Gram block needs exponents of a single charge")
    weights = [[2**k * math.comb(k, i) for i in range(k + 1)] for k in range(s + 1)]
    # falling factorials (a)_t and (b)_t, t <= s; 0 when the derivative kills the monomial
    falling = [([math.perm(a, t) for t in range(s + 1)],
                [math.perm(b, t) for t in range(s + 1)]) for a, b in exps]
    n = len(exps)
    # entry (i, j) = sum over k of 2 num_k / (a+b+c+d-2k+2), kept as (2 num_k, denominator)
    terms = [[()] * n for _ in range(n)]
    dens = set()
    for i, (fa, fb) in enumerate(falling):
        for j in range(i, n):
            fc, fd = falling[j]
            top = sum(exps[i]) + sum(exps[j]) + 2
            entry = []
            for k, row in enumerate(weights):
                num = sum(w * fa[t] * fc[t] * fb[k - t] * fd[k - t] for t, w in enumerate(row))
                if num:
                    entry.append((2 * num, top - 2 * k))
                    dens.add(top - 2 * k)
            terms[i][j] = entry
    common = math.lcm(*dens)
    scale = {q: common // q for q in dens}
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = sum(num * scale[q] for num, q in terms[i][j])
    g = math.gcd(common, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], common // g


def assemble_gram(basis: MonomialBasis, s: int) -> SobolevGram:
    """The Gram of <. , .>_s on the basis (``cached_gram``), after checking s and the size."""
    if s < 0 or s > MAX_S:
        raise ValueError(f"s must lie in 0..{MAX_S}")
    if basis.dim > MAX_DIM:
        raise ValueError(f"basis dimension {basis.dim} exceeds the cap {MAX_DIM}")
    return cached_gram(basis.degree, s)


def cached_gram(degree: int, s: int) -> SobolevGram:
    """The cached Gram of (degree, s), the store the exact solvers read, created with
    nothing built on first request; the caller has checked degree and s."""
    key = (degree, s)
    if key not in _GRAM_CACHE:
        _GRAM_CACHE[key] = SobolevGram(s, MonomialBasis(degree))
    return _GRAM_CACHE[key]


def leading_subgram(gram: SobolevGram, degree: int) -> SobolevGram:
    """Gram of the degree-``degree`` prefix, sliced from a larger Gram.

    The basis ordering is degree graded, so the leading principal block of
    the degree-d Gram is exactly the Gram of any lower degree; the slice is a
    view of the larger Gram's memory, so it costs no second assembly or copy.
    It becomes the matrix of the cached lower-degree Gram, unless that has one.
    """
    if not 0 <= degree <= gram.basis.degree:
        raise ValueError(f"degree must lie in 0..{gram.basis.degree}")
    sub = cached_gram(degree, gram.s)
    if "matrix" not in vars(sub):  # not built yet
        sub.matrix = gram.matrix[: sub.dim, : sub.dim]
    return sub
