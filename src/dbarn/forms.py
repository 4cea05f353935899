"""Exact calculus of (0,q)-forms with polynomial coefficients on C^n.

Coefficients are polynomials in z_1..z_n and their conjugates with exact
complex-rational coefficients, stored sparsely as Gaussian-integer
numerators over one shared, reduced denominator:

    CPolynomial.num : {(a, b): (re, im)},   CPolynomial.den > 0

where a and b are exponent tuples for the holomorphic and anti-holomorphic
variables and the coefficient of z^a zbar^b is (re + i im) / den.  The
public constructor ``CPolynomial(n, terms)`` takes {(a, b): CRational} and
is the only place terms are validated; sums, products, scaling, derivatives
and conjugation run on Python ints and reduce the denominator by one gcd
pass per result, so equal polynomials have equal numerators and
denominators.  ``CPolynomial.terms`` is the read-only {(a, b): CRational}
view of the same coefficients.

A (0,q)-form maps strictly increasing index tuples J (entries in 1..n,
length q) to such polynomials:

    FormPoly.comps : {J: CPolynomial}

Real-coordinate derivatives are defined through the Wirtinger operators:
with z_j = x_j + i*x_{j+n},

    D_j     = d/dz_j + d/dzbar_j          (j <= n)
    D_{j+n} = i * (d/dz_j - d/dzbar_j).

All operators here (dbar, its formal adjoint theta, and the Laplacian
box = dbar theta + theta dbar) are exact, so identities like
dbar(dbar(phi)) == 0 hold bit for bit and are tested that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log10
from operator import add
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

Exponents = tuple[int, ...]
BiExponent = tuple[Exponents, Exponents]
Gaussian = tuple[int, int]
IncreasingIndex = tuple[int, ...]


@dataclass(frozen=True)
class CRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: Fraction | int | str = 0, im: Fraction | int | str = 0) -> "CRational":
        return CRational(Fraction(re), Fraction(im))

    def __add__(self, other: "CRational") -> "CRational":
        return CRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRational") -> "CRational":
        return CRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CRational":
        return CRational(-self.re, -self.im)

    def __mul__(self, other: "CRational") -> "CRational":
        return CRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "CRational") -> "CRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRational")
        return CRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def scale(self, c: Fraction | int) -> "CRational":
        c = Fraction(c)
        return CRational(self.re * c, self.im * c)

    def conjugate(self) -> "CRational":
        return CRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


QC_ZERO = CRational.of(0)
QC_ONE = CRational.of(1)
QC_I = CRational.of(0, 1)


def _zero_exp(n: int) -> Exponents:
    return (0,) * n


def _bump(e: Exponents, k: int, delta: int) -> Exponents:
    return e[:k] + (e[k] + delta,) + e[k + 1:]


def _parts(c: CRational) -> tuple[int, int, int]:
    """(re, im, den) with c = (re + i im) / den and den the lcm of the part denominators."""
    den = lcm(c.re.denominator, c.im.denominator)
    return (c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator), den)


def _add_into(out: dict[BiExponent, Gaussian], key: BiExponent, re: int, im: int) -> None:
    """out[key] += re + i im, keeping no zero and the position of a surviving key."""
    old = out.get(key)
    if old is not None:
        re += old[0]
        im += old[1]
        if not (re or im):
            del out[key]
            return
    out[key] = (re, im)


class CPolynomial:
    """Sparse polynomial in z_1..z_n, zbar_1..zbar_n over CRational.

    ``num`` and ``den`` hold the coefficients (see the module docstring): no
    zero numerator is stored, gcd(den, every re and im) == 1, and the zero
    polynomial is ({}, 1).  Operations build their results through
    ``_reduced``, which neither validates nor makes a Fraction.  Term order
    follows the operations' insertion order, which float evaluation sums in.
    Instances are immutable by convention: operations return new polynomials.
    """

    __slots__ = ("n", "num", "den", "_terms")

    def __init__(self, n: int, terms: Mapping[BiExponent, CRational]) -> None:
        parts = []
        den = 1
        for key, c in terms.items():
            a, b = key
            if len(a) != n or len(b) != n:
                raise ValueError(f"exponent tuples must have length n={n}")
            if any(e < 0 for e in a + b):
                raise ValueError("negative exponent")
            re, im = c.re, c.im
            if not (re or im):
                raise ValueError("zero coefficient stored")
            den = lcm(den, re.denominator, im.denominator)
            parts.append((key, re, im))
        # the lcm of reduced denominators leaves the numerators coprime to it
        self.n = n
        self.num = {key: (re.numerator * (den // re.denominator),
                          im.numerator * (den // im.denominator)) for key, re, im in parts}
        self.den = den
        self._terms = None

    @classmethod
    def _raw(cls, n: int, num: dict[BiExponent, Gaussian], den: int) -> "CPolynomial":
        """From numerators already reduced over den, with no zero stored."""
        p = cls.__new__(cls)
        p.n, p.num, p.den, p._terms = n, num, den, None
        return p

    @classmethod
    def _reduced(cls, n: int, num: dict[BiExponent, Gaussian], den: int) -> "CPolynomial":
        """From numerators over den > 0 with no zero stored: divides out their gcd."""
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                return cls._raw(n, num, den)
        num = {key: (re // g, im // g) for key, (re, im) in num.items()}
        return cls._raw(n, num, den // g)

    @property
    def terms(self) -> Mapping[BiExponent, CRational]:
        """{(a, b): CRational}, read-only, built on first use."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType(
                {key: CRational(Fraction(re, den), Fraction(im, den))
                 for key, (re, im) in self.num.items()})
        return self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CPolynomial(n={self.n}, terms={dict(self.terms)!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CPolynomial":
        return CPolynomial._raw(n, {}, 1)

    @staticmethod
    def const(n: int, c: CRational | Fraction | int) -> "CPolynomial":
        return CPolynomial.monomial(n, _zero_exp(n), _zero_exp(n), c)

    @staticmethod
    def z(n: int, k: int) -> "CPolynomial":
        """The coordinate z_k (1-based)."""
        return CPolynomial(n, {(_bump(_zero_exp(n), k - 1, 1), _zero_exp(n)): QC_ONE})

    @staticmethod
    def zbar(n: int, k: int) -> "CPolynomial":
        return CPolynomial(n, {(_zero_exp(n), _bump(_zero_exp(n), k - 1, 1)): QC_ONE})

    @staticmethod
    def monomial(n: int, a: Sequence[int], b: Sequence[int],
                 c: CRational | Fraction | int = 1) -> "CPolynomial":
        if not isinstance(c, CRational):
            c = CRational.of(c)
        if c.is_zero():
            return CPolynomial.zero(n)
        return CPolynomial(n, {(tuple(a), tuple(b)): c})

    # -- ring operations ---------------------------------------------------

    def _combine(self, other: "CPolynomial", sign: int) -> "CPolynomial":
        """self + sign * other over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        out = dict(self.num) if p == 1 else {
            key: (p * re, p * im) for key, (re, im) in self.num.items()}
        for key, (re, im) in other.num.items():
            _add_into(out, key, q * re, q * im)
        return CPolynomial._reduced(self.n, out, den)

    def __add__(self, other: "CPolynomial") -> "CPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "CPolynomial") -> "CPolynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "CPolynomial":
        num = {key: (-re, -im) for key, (re, im) in self.num.items()}
        return CPolynomial._raw(self.n, num, self.den)

    def __mul__(self, other: "CPolynomial") -> "CPolynomial":
        out: dict[BiExponent, Gaussian] = {}
        for (a1, b1), (x1, y1) in self.num.items():
            for (a2, b2), (x2, y2) in other.num.items():
                key = (tuple(map(add, a1, a2)), tuple(map(add, b1, b2)))
                _add_into(out, key, x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
        return CPolynomial._reduced(self.n, out, self.den * other.den)

    def scale(self, c: CRational | Fraction | int) -> "CPolynomial":
        if isinstance(c, CRational):
            x, y, den = _parts(c)
        else:
            c = Fraction(c)
            x, y, den = c.numerator, 0, c.denominator
        if not (x or y):
            return CPolynomial.zero(self.n)
        # a product of nonzero Gaussian integers is nonzero
        if y:
            out = {key: (re * x - im * y, re * y + im * x) for key, (re, im) in self.num.items()}
        else:
            out = {key: (re * x, im * x) for key, (re, im) in self.num.items()}
        return CPolynomial._reduced(self.n, out, self.den * den)

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Total degree in all variables; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(a) + sum(b) for a, b in self.num)

    # -- derivatives and conjugation ----------------------------------------

    def _diff(self, k: int, zbar: bool, out: dict[BiExponent, Gaussian],
              sign: int = 1) -> dict[BiExponent, Gaussian]:
        """Adds sign * d/dz_k (or d/dzbar_k, k 0-based) of the numerators into out.

        The derivative maps distinct terms to distinct keys, so into an empty
        out nothing needs merging."""
        merge = bool(out)
        for (a, b), (re, im) in self.num.items():
            e = (b if zbar else a)[k]
            if e:
                e *= sign
                key = (a, _bump(b, k, -1)) if zbar else (_bump(a, k, -1), b)
                if merge:
                    _add_into(out, key, e * re, e * im)
                else:
                    out[key] = (e * re, e * im)
        return out

    def diff_z(self, k: int) -> "CPolynomial":
        """d/dz_k (1-based)."""
        return CPolynomial._reduced(self.n, self._diff(k - 1, False, {}), self.den)

    def diff_zbar(self, k: int) -> "CPolynomial":
        return CPolynomial._reduced(self.n, self._diff(k - 1, True, {}), self.den)

    def diff_real(self, j: int) -> "CPolynomial":
        """D_j over the 2n real coordinates, via the Wirtinger operators."""
        n = self.n
        if not 1 <= j <= 2 * n:
            raise ValueError(f"real coordinate index {j} out of range 1..{2 * n}")
        if j <= n:  # d/dz_j + d/dzbar_j
            out = self._diff(j - 1, True, self._diff(j - 1, False, {}))
        else:  # i (d/dz_k - d/dzbar_k); i (re + i im) = -im + i re
            out = self._diff(j - n - 1, True, self._diff(j - n - 1, False, {}), -1)
            out = {key: (-im, re) for key, (re, im) in out.items()}
        return CPolynomial._reduced(n, out, self.den)

    def real_derivatives(self, order: int) -> dict[Exponents, "CPolynomial"]:
        """D^alpha for every multi-index alpha over the 2n real coordinates with
        |alpha| <= order, keyed by alpha.  Each is one D_j of an entry one order
        lower, j the last nonzero coordinate of alpha."""
        m = 2 * self.n
        zero = (0,) * m
        table = {zero: self}
        frontier = [(zero, 0)]
        for _ in range(order):
            grown = []
            for e, last in frontier:
                lower = table[e]
                for j in range(last, m):
                    up = _bump(e, j, 1)
                    table[up] = lower.diff_real(j + 1)
                    grown.append((up, j))
            frontier = grown
        return table

    def conjugate(self) -> "CPolynomial":
        """Complex conjugate: swaps z and zbar exponents, conjugates coefficients."""
        num = {(b, a): (re, -im) for (a, b), (re, im) in self.num.items()}
        return CPolynomial._raw(self.n, num, self.den)

    # -- evaluation ----------------------------------------------------------

    def eval(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate at complex points; zs has shape (n, ...) or (...) when n == 1."""
        import numpy as np  # on first use: the exact algebra never needs it

        zs = np.asarray(zs, dtype=complex)
        if self.n == 1 and zs.ndim >= 0 and (zs.ndim == 0 or zs.shape[0] != 1):
            zs = zs[None, ...]
        if zs.shape[0] != self.n:
            raise ValueError(f"expected leading axis of length n={self.n}")
        out = np.zeros(zs.shape[1:], dtype=complex)
        conj = np.conj(zs)
        den = self.den
        for (a, b), (re, im) in self.num.items():
            # the float of an int quotient is that of the reduced Fraction
            try:
                term = np.full(zs.shape[1:], complex(re / den) + 1j * complex(im / den))
            except OverflowError:
                raise float_range_error(self) from None
            for k in range(self.n):
                if a[k]:
                    term = term * zs[k] ** a[k]
                if b[k]:
                    term = term * conj[k] ** b[k]
            out += term
        return out


def float_range_error(p: CPolynomial) -> ValueError:
    """The refusal of a polynomial whose floats, or float results computed from it,
    leave the float64 range, naming the scale of its largest coefficient part."""
    top = max(abs(x) for pair in p.num.values() for x in pair)
    return ValueError(f"coefficients up to about 1e{log10(top) - log10(p.den):.0f} "
                      "give results outside the float64 range")


def epsilon(k: int, J: IncreasingIndex, K: IncreasingIndex) -> int:
    """Sign of the permutation sorting (k, J_1, .., J_q) into K; 0 if invalid."""
    if len(K) != len(J) + 1:
        raise ValueError("need |K| = |J| + 1")
    if k in J:
        return 0
    merged = tuple(sorted((k,) + tuple(J)))
    if merged != tuple(K):
        return 0
    inversions = sum(1 for j in J if j < k)
    return -1 if inversions % 2 else 1


def _validate_index(J: IncreasingIndex, n: int) -> None:
    if any(not 1 <= j <= n for j in J):
        raise ValueError(f"index entries must lie in 1..{n}: {J}")
    if any(J[i] >= J[i + 1] for i in range(len(J) - 1)):
        raise ValueError(f"index must be strictly increasing: {J}")


@dataclass(frozen=True)
class FormPoly:
    """A (0,q)-form with CPolynomial components over increasing indices.

    q may exceed n, in which case no component keys exist and the form is
    necessarily zero (this keeps dbar total at top degree).
    """

    n: int
    q: int
    comps: Mapping[IncreasingIndex, CPolynomial]

    def __post_init__(self) -> None:
        for J, p in self.comps.items():
            if len(J) != self.q:
                raise ValueError(f"component index {J} has length != q={self.q}")
            _validate_index(J, self.n)
            if p.n != self.n:
                raise ValueError("component polynomial has wrong variable count")
            if p.is_zero():
                raise ValueError("zero component stored")

    @staticmethod
    def zero(n: int, q: int) -> "FormPoly":
        return FormPoly(n, q, {})

    @staticmethod
    def from_components(n: int, q: int,
                        comps: Mapping[IncreasingIndex, CPolynomial]) -> "FormPoly":
        return FormPoly(n, q, {J: p for J, p in comps.items() if not p.is_zero()})

    def component(self, J: IncreasingIndex) -> CPolynomial:
        return self.comps.get(tuple(J), CPolynomial.zero(self.n))

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "FormPoly") -> "FormPoly":
        if (self.n, self.q) != (other.n, other.q):
            raise ValueError("degree/dimension mismatch")
        out = dict(self.comps)
        for J, p in other.comps.items():
            s = out.get(J, CPolynomial.zero(self.n)) + p
            if s.is_zero():
                out.pop(J, None)
            else:
                out[J] = s
        return FormPoly(self.n, self.q, out)


def _accumulate(target: dict[IncreasingIndex, CPolynomial], J: IncreasingIndex,
                p: CPolynomial) -> None:
    if p.is_zero():
        return
    s = target.get(J)
    s = p if s is None else s + p
    if s.is_zero():
        target.pop(J, None)
    else:
        target[J] = s


def dbar(phi: FormPoly) -> FormPoly:
    """The Cauchy-Riemann operator: raises anti-holomorphic degree by one."""
    n = phi.n
    out: dict[IncreasingIndex, CPolynomial] = {}
    for J, p in phi.comps.items():
        for k in range(1, n + 1):
            if k in J:
                continue
            K = tuple(sorted((k,) + J))
            sign = epsilon(k, J, K)
            d = p.diff_zbar(k)
            _accumulate(out, K, d if sign == 1 else -d)
    return FormPoly(n, phi.q + 1, out)


def theta(psi: FormPoly) -> FormPoly:
    """Formal adjoint of dbar: lowers degree by one.

    theta(psi)_I = - sum over i, J of epsilon(i, I -> J) d(psi_J)/dz_i.
    """
    if psi.q < 1:
        raise ValueError("theta needs a form of degree >= 1")
    n = psi.n
    out: dict[IncreasingIndex, CPolynomial] = {}
    for J, p in psi.comps.items():
        for pos, i in enumerate(J):
            I = J[:pos] + J[pos + 1:]
            sign = -1 if pos % 2 else 1  # epsilon(i, I -> J)
            d = p.diff_z(i)
            _accumulate(out, I, -d if sign == 1 else d)
    return FormPoly(n, psi.q - 1, out)


def box(phi: FormPoly) -> FormPoly:
    """Complex Laplacian dbar theta + theta dbar.

    theta on degree 0 and dbar past top degree contribute zero, so box is
    total in every degree.
    """
    n, q = phi.n, phi.q
    part1 = dbar(theta(phi)) if q >= 1 else FormPoly.zero(n, q)
    part2 = theta(dbar(phi))
    return part1 + part2


def laplacian(p: CPolynomial) -> CPolynomial:
    """Real Laplacian sum_j D_j^2 over the 2n real coordinates."""
    out = CPolynomial.zero(p.n)
    for j in range(1, 2 * p.n + 1):
        out = out + p.diff_real(j).diff_real(j)
    return out


# -- random instances (shared by property tests and the verification CLI) ----

def random_cpolynomial(rng: np.random.Generator, n: int, max_deg: int,
                       terms: int = 4, denom: int = 4) -> CPolynomial:
    """Random sparse polynomial with small rational coefficients."""
    out = CPolynomial.zero(n)
    for _ in range(terms):
        a = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(n))
        b = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(n))
        c = CRational.of(
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, denom + 1))),
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, denom + 1))),
        )
        out = out + CPolynomial.monomial(n, a, b, c)
    return out


def random_form(rng: np.random.Generator, n: int, q: int, max_deg: int,
                terms: int = 3) -> FormPoly:
    """Random (0,q)-form with a polynomial in every increasing index slot."""
    from itertools import combinations

    comps: dict[IncreasingIndex, CPolynomial] = {}
    for J in combinations(range(1, n + 1), q):
        p = random_cpolynomial(rng, n, max_deg, terms=terms)
        if not p.is_zero():
            comps[J] = p
    return FormPoly(n, q, comps)


# -- plain-text serialization -------------------------------------------------
#
# Format (whitespace-insensitive s-expressions):
#
#   (form (n 2) (q 1)
#     (comp (1)
#       (term -1/2 0 (z 1 0) (zbar 0 2))))
#
# Each term carries the real part, imaginary part, then the z and zbar
# exponent lists.  Rationals print as Fraction strings ("-1/2", "3").

def form_to_text(phi: FormPoly) -> str:
    lines = [f"(form (n {phi.n}) (q {phi.q})"]
    for J in sorted(phi.comps):
        p = phi.comps[J]
        idx = " ".join(str(j) for j in J)
        lines.append(f"  (comp ({idx})")
        for (a, b) in sorted(p.terms):
            c = p.terms[(a, b)]
            za = " ".join(str(e) for e in a)
            zb = " ".join(str(e) for e in b)
            lines.append(f"    (term {c.re} {c.im} (z {za}) (zbar {zb}))")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines)


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexp(tokens: list[str], pos: int) -> tuple[object, int]:
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    out: list[object] = []
    start, pos = pos, pos + 1
    while pos < len(tokens) and tokens[pos] != ")":
        node, pos = _parse_sexp(tokens, pos)
        out.append(node)
    if pos == len(tokens):  # the text ends inside this node
        raise ValueError(f"the ( number {tokens[:start].count('(') + 1} has no matching )")
    return out, pos + 1


def _text(node: object) -> str:
    """A parsed node written back as text."""
    return f"({' '.join(map(_text, node))})" if isinstance(node, list) else str(node)


def _flat(node: object, head: str | None = None, size: int | None = None) -> bool:
    """Whether node is a list of tokens, led by ``head`` and of ``size`` entries when given."""
    return (isinstance(node, list) and all(isinstance(tok, str) for tok in node)
            and (head is None or node[:1] == [head]) and (size is None or len(node) == size))


def _malformed(node: object, shape: str) -> ValueError:
    text = _text(node)
    text = text if len(text) <= 60 else text[:56] + " ..."
    return ValueError(f"malformed node {text}: expected {shape}")


# far past float64's 1e+-308, so such coefficients still meet ``float_range_error``
MAX_DECIMAL_EXPONENT = 1000


def _number(tok: str) -> Fraction:
    """Fraction(tok), refused before it is built when the decimal exponent of tok lies
    beyond +-MAX_DECIMAL_EXPONENT: Fraction would build 10**exponent, unbounded."""
    try:
        huge = abs(int(tok.lower().partition("e")[2])) > MAX_DECIMAL_EXPONENT
    except ValueError:  # no exponent, or one Fraction refuses too
        huge = False
    if huge:
        raise ValueError(f"the decimal exponent of {tok} lies beyond +-{MAX_DECIMAL_EXPONENT}")
    return Fraction(tok)


def form_from_text(text: str) -> FormPoly:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("the form text is empty")
    tree, end = _parse_sexp(tokens, 0)
    if end != len(tokens):
        raise ValueError("trailing tokens after form expression")
    if not (isinstance(tree, list) and tree and tree[0] == "form"):
        raise ValueError("expected a (form ...) expression")
    n = q = None
    comps: dict[IncreasingIndex, CPolynomial] = {}
    for node in tree[1:]:
        if not isinstance(node, list) or not node:
            raise ValueError(f"unexpected node {node!r}")
        if node[0] in ("n", "q") and not _flat(node, size=2):
            raise _malformed(node, f"({node[0]} <integer>)")
        if node[0] == "n":
            n = int(node[1])
        elif node[0] == "q":
            q = int(node[1])
        elif node[0] == "comp":
            if len(node) < 2 or not _flat(node[1]):
                raise _malformed(node, "(comp (<index> ...) <term> ...)")
            if n is None or q is None:
                raise ValueError("(n ..) and (q ..) must precede components")
            J = tuple(int(tok) for tok in node[1])
            terms: dict[BiExponent, CRational] = {}
            for term in node[2:]:
                if not (isinstance(term, list) and len(term) == 5 and _flat(term[:3], "term")
                        and _flat(term[3], "z") and _flat(term[4], "zbar")):
                    raise _malformed(term, "(term <re> <im> (z ...) (zbar ...))")
                c = CRational(_number(term[1]), _number(term[2]))
                a = tuple(int(tok) for tok in term[3][1:])
                b = tuple(int(tok) for tok in term[4][1:])
                if not c.is_zero():
                    terms[(a, b)] = terms.get((a, b), QC_ZERO) + c
            # a repeated component adds to the first, as a repeated term does
            _accumulate(comps, J, CPolynomial(n, {k: v for k, v in terms.items()
                                                  if not v.is_zero()}))
        else:
            raise ValueError(f"unknown node {node[0]!r}")
    if n is None or q is None:
        raise ValueError("form is missing (n ..) or (q ..)")
    return FormPoly(n, q, comps)
