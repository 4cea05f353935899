"""Half-line model problem and boundary-symbol ellipticity certification.

After flattening the boundary, freezing coefficients at a boundary point and
Fourier transforming tangentially (dual variable xi), the operator defining
the adjoint correction becomes the ODE

    (-d^2/dx^2 + |xi|^2)^s v = 0   on [0, inf)

whose bounded solutions are spanned by x^m exp(-|xi| x), m = 0..s-1.  The s
boundary operators admit two algebraically independent representations:

  * a double sum over tangential/full Laplacian powers,
        sum_j C(j+l, l) (-Lap')^j (-Lap)^(s-1-l-j) d^(l+1),
  * a closed form in powers of d/dx alone,
        sum_k (-1)^k C(s, l+k+1) |xi|^(2(s-1-l-k)) d^(l+2k+1),

and their exact agreement after substituting Lap = d^2 + Lap',
Lap' -> -xi^2 is the binomial identity the combinatorics module verifies.

Ellipticity (only the trivial bounded solution satisfies all boundary
conditions) is certified numerically: the s x s collocation matrix of the
boundary operators on the solution basis must be uniformly nonsingular over
a grid of frequencies.  The associated quadratic form, whose positivity
forces triviality, is evaluated in closed form from half-line moments
integral_0^inf x^k exp(-2 xi x) dx = k! / (2 xi)^(k+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

DET_THRESHOLD = 1e-10
MAX_CERTIFY_S = 6
XI_RANGE = (1e-6, 1e6)  # s <= 6 is warning-free in 1e-8..1e8; at 1e13 det overflows

# Exact symbol in derivative powers: {d_power: {xi^2 power: integer coeff}}.
SymbolPoly = dict[int, dict[int, int]]


def _check_indices(s: int, ell: int) -> None:
    if s < 1:
        raise ValueError("s must be a positive integer")
    if not 0 <= ell <= s - 1:
        raise ValueError(f"ell must lie in 0..{s - 1}, got {ell}")


def symbol_closed_form_exact(s: int, ell: int) -> SymbolPoly:
    """Closed form: sum_k (-1)^k C(s, ell+k+1) xi^(2(s-1-ell-k)) d^(ell+2k+1)."""
    _check_indices(s, ell)
    out: SymbolPoly = {}
    for k in range(s - ell):
        power = ell + 2 * k + 1
        coeff = (-1) ** k * math.comb(s, ell + k + 1)
        out.setdefault(power, {})[s - 1 - ell - k] = coeff
    return out


def symbol_closed_form(s: int, ell: int, xi: float | Fraction) -> list:
    """Coefficient list over derivative powers 0..2s-1 at a numeric xi."""
    exact = symbol_closed_form_exact(s, ell)
    xi2 = xi * xi
    coeffs = [xi * 0 for _ in range(2 * s)]
    for power, poly in exact.items():
        coeffs[power] = sum(c * xi2**t for t, c in poly.items())
    return coeffs


def symbol_double_sum(s: int, ell: int) -> dict[tuple[int, int], int]:
    """Double-sum form as an exact polynomial in the commuting symbols (d^2, Lap').

    Returns {(i, j): coeff} standing for coeff * (d^2)^i (Lap')^j, all times
    an overall factor d^(ell+1) that is left implicit.
    """
    _check_indices(s, ell)
    out: dict[tuple[int, int], int] = {}
    for j in range(s - ell):
        outer = math.comb(j + ell, ell) * (-1) ** j  # (-Lap')^j
        p = s - 1 - ell - j
        # (-Lap)^p with Lap = d^2 + Lap'
        for i in range(p + 1):
            coeff = outer * (-1) ** p * math.comb(p, i)
            key = (i, p - i + j)
            val = out.get(key, 0) + coeff
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def reduce_double_sum(s: int, ell: int) -> SymbolPoly:
    """Substitute Lap' -> -xi^2 in the double-sum form and collect d powers."""
    out: SymbolPoly = {}
    for (i, j), coeff in symbol_double_sum(s, ell).items():
        power = 2 * i + ell + 1
        c = coeff * (-1) ** j
        slot = out.setdefault(power, {})
        val = slot.get(j, 0) + c
        if val:
            slot[j] = val
        elif j in slot:
            del slot[j]
    return {p: poly for p, poly in out.items() if poly}


def _exp_poly_derivative(p: list, xi) -> list:
    """d/dx applied to poly(x) * exp(-xi x), returned as a new poly."""
    out = [c * 0 for c in p] if p else []
    for i in range(len(p)):
        if i + 1 < len(p):
            out[i] = (i + 1) * p[i + 1] - xi * p[i]
        else:
            out[i] = -xi * p[i]
    return out


def apply_symbol(s: int, ell: int, xi, p: Sequence) -> object:
    """Value of the boundary operator on poly(x)*exp(-xi x) at x = 0."""
    coeffs = symbol_closed_form(s, ell, xi)
    derivs = [list(p)]
    for _ in range(2 * s - 1):
        derivs.append(_exp_poly_derivative(derivs[-1], xi))
    total = 0
    for power, c in enumerate(coeffs):
        if c and derivs[power]:
            total = total + c * derivs[power][0]
    return total


def lopatinski_matrix(s: int, xi: float | Fraction) -> np.ndarray:
    """Matrix of the boundary operators on the bounded solution basis.

    Entry (ell, m) applies the ell-th boundary operator to x^m exp(-xi x)
    and evaluates at the origin.  xi must be positive: the frozen symbol is
    only elliptic away from zero frequency.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    mat = np.zeros((s, s))
    for ell in range(s):
        for m in range(s):
            basis_poly = [0] * (m + 1)
            basis_poly[m] = 1
            mat[ell, m] = float(apply_symbol(s, ell, xi, basis_poly))
    return mat


@dataclass(frozen=True)
class LopatinskiSample:
    xi: float
    det: float          # determinant of the raw collocation matrix
    det_scaled: float   # determinant after scaling each row by its max entry
    passed: bool


@dataclass(frozen=True)
class LopatinskiReport:
    s: int
    threshold: float
    samples: tuple[LopatinskiSample, ...]
    passed: bool


def certify_trivial_kernel(s: int, xi_grid: Sequence[float]) -> LopatinskiReport:
    """Check uniform nonsingularity of the boundary collocation over xi_grid.

    The matrix is equilibrated before the determinant test: columns are
    scaled by their largest absolute entry (removing the xi-grading of the
    basis functions x^m exp(-xi x)), then rows likewise (removing the grading
    of the boundary operators).  Row scaling alone is not scale invariant
    here: it leaves a residual factor xi^(s(s-1)/2) that drops below any
    fixed threshold for small xi at s >= 5 even though the matrix is
    uniformly nonsingular.  A near-singular matrix produces a failed sample,
    not an exception; an empty grid, or an xi outside ``XI_RANGE``, is a
    ValueError.
    """
    if not 1 <= s <= MAX_CERTIFY_S:
        raise ValueError(f"certification supports s in 1..{MAX_CERTIFY_S}")
    if len(xi_grid) == 0:
        raise ValueError("the xi grid is empty")
    lo, hi = XI_RANGE
    if not all(lo <= xi <= hi for xi in xi_grid):
        raise ValueError(f"xi values must lie in the certified range {lo:g}..{hi:g}")
    samples = []
    for xi in xi_grid:
        mat = lopatinski_matrix(s, xi)
        raw_det = float(np.linalg.det(mat))
        col_scale = np.max(np.abs(mat), axis=0)
        scaled = mat / col_scale[None, :]
        row_scale = np.max(np.abs(scaled), axis=1)
        scaled = scaled / row_scale[:, None]
        det_scaled = float(np.linalg.det(scaled))
        samples.append(LopatinskiSample(
            xi=float(xi), det=raw_det, det_scaled=det_scaled,
            passed=abs(det_scaled) > DET_THRESHOLD,
        ))
    return LopatinskiReport(
        s=s, threshold=DET_THRESHOLD, samples=tuple(samples),
        passed=all(smp.passed for smp in samples),
    )


def half_line_moment(k: int, xi: float) -> float:
    """integral_0^inf x^k exp(-2 xi x) dx = k! / (2 xi)^(k+1), closed form."""
    return math.factorial(k) / (2.0 * xi) ** (k + 1)


def quadratic_form(s: int, xi: float, v: Sequence[complex]) -> float:
    """sum_j C(s,j) xi^(2(s-j)) integral_0^inf |d^j (v(x) e^(-xi x))|^2 dx.

    v is the polynomial coefficient list of an exponential-polynomial; the
    half-line integrals are exact Gamma-function moments, so the only error
    is float rounding.  The form vanishes iff v does.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    p = [complex(c) for c in v]
    total = 0.0
    for j in range(s + 1):
        moment = 0.0
        for a, ca in enumerate(p):
            for b, cb in enumerate(p):
                if ca and cb:
                    moment += (ca * np.conj(cb)).real * half_line_moment(a + b, xi)
        total += math.comb(s, j) * xi ** (2 * (s - j)) * moment
        p = _exp_poly_derivative(p, xi)
    return total

