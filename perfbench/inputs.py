"""Seeded input generators for the benchmark.

Every input is a pure function of a ``numpy.random.Generator``, so one seed
gives byte-identical inputs.  Form files are written in the package's
s-expression format by this module itself, not through the package, so the
inputs stay fixed when the package's serializer changes.

The CLI's ``--f`` form must have total degree at most d - 1 (the form basis
of the Galerkin space).  ``dbarn.forms.random_cpolynomial`` bounds each
exponent separately, so its total degree reaches twice the bound; the
generators here draw the total degree first and split it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

# A term: (real part, imaginary part, z exponents, zbar exponents).
Term = tuple[Fraction, Fraction, tuple[int, ...], tuple[int, ...]]


def _coefficient(rng: np.random.Generator) -> tuple[Fraction, Fraction]:
    while True:
        re = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        im = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        if re or im:
            return re, im


def _split(rng: np.random.Generator, total: int, parts: int) -> tuple[int, ...]:
    """A uniformly random composition of ``total`` into ``parts`` non-negative ints."""
    cuts = np.sort(rng.integers(0, total + 1, size=parts - 1))
    edges = np.concatenate([[0], cuts, [total]])
    return tuple(int(x) for x in np.diff(edges))


def random_terms(rng: np.random.Generator, n: int, max_total_degree: int,
                 terms: int = 4, min_total_degree: int = 0) -> list[Term]:
    """Distinct monomials in n variables with total degree in
    [min_total_degree, max_total_degree], and nonzero rational coefficients.

    Draws until ``terms`` distinct monomials are found (fewer only when the
    degree range has fewer), so no two terms can cancel.
    """
    if not 0 <= min_total_degree <= max_total_degree:
        raise ValueError("need 0 <= min_total_degree <= max_total_degree")
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[Fraction, Fraction]] = {}
    for _ in range(50 * terms):
        if len(out) == terms:
            break
        total = int(rng.integers(min_total_degree, max_total_degree + 1))
        exps = _split(rng, total, 2 * n)
        key = (exps[:n], exps[n:])
        if key not in out:
            out[key] = _coefficient(rng)
    return [(re, im, a, b) for (a, b), (re, im) in sorted(out.items())]


def form_text(n: int, q: int, comps: dict[tuple[int, ...], list[Term]]) -> str:
    """Serialize a (0,q)-form in the package's s-expression format."""
    lines = [f"(form (n {n}) (q {q})"]
    for J in sorted(comps):
        idx = " ".join(str(j) for j in J)
        lines.append(f"  (comp ({idx})")
        for re, im, a, b in comps[J]:
            za = " ".join(str(e) for e in a)
            zb = " ".join(str(e) for e in b)
            lines.append(f"    (term {re} {im} (z {za}) (zbar {zb}))")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def cli_form_text(rng: np.random.Generator, d: int) -> str:
    """A (0,1)-form on the disc with four terms of total degree <= d - 1."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return form_text(1, 1, {(1,): random_terms(rng, 1, d - 1, 4)})


def random_form_terms(rng: np.random.Generator, n: int, q: int,
                      degree: int) -> dict[tuple[int, ...], list[Term]]:
    """Terms of a (0,q)-form on C^n, one three-term polynomial per increasing
    index, every term of total degree exactly ``degree`` (so inputs of one
    shape cost alike)."""
    return {J: random_terms(rng, n, degree, 3, min_total_degree=degree)
            for J in combinations(range(1, n + 1), q)}


def complex_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def form_dim(d: int) -> int:
    """Dimension of the form basis of degree d - 1 (monomials with a + b <= d - 1)."""
    return d * (d + 1) // 2


def function_dim(d: int) -> int:
    """Dimension of the function basis of degree d."""
    return (d + 1) * (d + 2) // 2


def same_charge_pairs(d: int) -> int:
    """Gram entries on or above the diagonal of the degree-d basis, same charge only."""
    total = 0
    for charge in range(-d, d + 1):
        size = (d - abs(charge)) // 2 + 1
        total += size * (size + 1) // 2
    return total
