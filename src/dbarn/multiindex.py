"""Multi-index arithmetic and exact combinatorial identities.

A multi-index is a vector of non-negative integer exponents over the 2n real
coordinates of C^n.  Everything in this module is exact: orders are Python
ints, scalar results are ints or Fractions, and the identity checks compare
polynomials coefficient by coefficient.  No floating point enters anywhere.

The central quantity is the polynomial coefficient

    gamma(alpha) = |alpha|! / alpha!

which weights the Sobolev inner product so that the order-k block becomes the
full symmetric-tensor contraction of k-th derivatives (hence rotation
invariant).  The module also verifies, by brute force at bounded sizes, the
two combinatorial identities the rest of the code base leans on: the
multinomial normalization sum and the binomial double sum with its
Pascal-type recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

MAX_ORDER = 32
MAX_ENUMERATION = 10**7


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector over real coordinates; immutable and validated."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) == 0:
            raise ValueError("multi-index needs at least one coordinate")
        if any((not isinstance(e, int)) or e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be non-negative integers, got {self.exponents}")

    @property
    def order(self) -> int:
        """|alpha|, recomputed from the exponents."""
        return sum(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)


def gamma(alpha: MultiIndex | Sequence[int]) -> int:
    """Polynomial coefficient |alpha|!/alpha!, exact.

    Orders above MAX_ORDER are rejected: the bound keeps downstream users
    honest about where the exact tables stop, not because the arithmetic
    would overflow (Python ints do not).
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(alpha))
    k = alpha.order
    if k > MAX_ORDER:
        raise ValueError(f"|alpha| = {k} exceeds the supported bound {MAX_ORDER}")
    out = math.factorial(k)
    for e in alpha:
        out //= math.factorial(e)
    return out


def count_multiindices(order: int, dim: int) -> int:
    """Number of multi-indices of exactly the given order (stars and bars)."""
    return math.comb(order + dim - 1, dim - 1)


def enumerate_multiindices(order: int, dim: int) -> list[MultiIndex]:
    """All multi-indices with |alpha| = order, leading exponent descending.

    The ordering starts from (order, 0, ..., 0) and ends at (0, ..., 0, order);
    it is fixed here once and used as the canonical iteration order by every
    module that assembles sums over |alpha| = s.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    total = count_multiindices(order, dim)
    if total > MAX_ENUMERATION:
        raise ValueError(f"enumeration of {total} multi-indices exceeds the bound {MAX_ENUMERATION}")

    out: list[MultiIndex] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(MultiIndex(prefix + (remaining,)))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), order, dim)
    return out


def binomial_double_sum(k: int, p: int, m: int) -> int:
    """sum_{j=0}^{m} C(k+j, j) * C(p-j, m-j), evaluated term by term.

    The closed form C(p+k+1, m) and the recursion in (p, m) are asserted by
    the tests, never assumed here.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be non-negative")
    if m > p:
        raise ValueError(f"need p >= m, got p={p}, m={m}")
    return sum(math.comb(k + j, j) * math.comb(p - j, m - j) for j in range(m + 1))


# Dense polynomial dict over Fraction coefficients, keyed by exponent tuple.
# Only used by the identity check below; kept private and tiny.
_Poly = dict[tuple[int, ...], Fraction]


def _poly_mul(p: _Poly, q: _Poly) -> _Poly:
    out: _Poly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, Fraction(0)) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def multinomial_power_identity_check(dim: int, s: int) -> bool:
    """Check sum_{|alpha|=s} gamma(alpha) x^(2 alpha) == (sum x_j^2)^s exactly.

    Both sides are expanded as polynomials in commuting symbols x_1..x_dim:
    the left from the gamma table, the right by repeated multiplication.
    """
    if dim < 1 or s < 0:
        raise ValueError("need dim >= 1 and s >= 0")
    lhs: _Poly = {}
    for alpha in enumerate_multiindices(s, dim):
        key = tuple(2 * e for e in alpha)
        lhs[key] = lhs.get(key, Fraction(0)) + gamma(alpha)
    sq: _Poly = {}
    for j in range(dim):
        key = tuple(2 if i == j else 0 for i in range(dim))
        sq[key] = Fraction(1)
    rhs: _Poly = {(0,) * dim: Fraction(1)}
    for _ in range(s):
        rhs = _poly_mul(rhs, sq)
    return lhs == rhs
