"""The closed unit disc as a concrete domain: grids, stencils, integrals.

The defining function is the exact signed distance rho(r) = r - 1, so the
outward normal field is N = d/dr along rays and the unit normal components
nu = (cos theta, sin theta) are independent of r; in particular N(nu_j) = 0
everywhere away from the origin, and N commutes with multiplication by the
boundary phases d(rho)/dz = exp(-i theta)/2 and its conjugate.

The grid is a tensor product of
  * a radial line on [0, 1]: panels geometrically refined toward r = 1
    (ratio 1/2 down to a floor width 2^-refine_depth), each panel subdivided
    uniformly and integrated with composite Simpson weights, and
  * a uniform angular grid of M nodes, integrated with the trapezoidal rule
    (spectrally accurate for periodic integrands).

Radial derivatives use Fornberg finite-difference weights on the nonuniform
node line; angular derivatives are spectral (FFT).  Fields sampled on the
grid carry complex values of shape (n_r, M).

Tangential decomposition on the disc: D_1 = Y_1 + nu_1 N and
D_2 = Y_2 + nu_2 N with Y_1 = -(sin theta / r) d/dtheta and
Y_2 = (cos theta / r) d/dtheta.  The decomposition is meaningless near the
coordinate singularity; nodes with r <= R_EXCLUDE are zeroed and flagged by
``annulus_mask``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

R_EXCLUDE = 0.05  # tangential fields are not formed at or below this radius
DEFAULT_STENCIL_SPACING = 0.012


def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights (Fornberg) for derivatives 0..m at x0.

    Returns an array of shape (m+1, len(x)); row k gives the weights of the
    k-th derivative on the nodes x.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if m >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def plateau_bump(t: np.ndarray | float, deriv: int = 0) -> np.ndarray:
    """Cutoff profile: 1 on |t| <= 1/2, exp(1 - 1/(1-w^2)) flank on 1/2 < |t| < 1.

    Here w = 2|t| - 1.  Derivatives up to 2 are available analytically; the
    profile is C^1 with piecewise-smooth flanks, which is all the quadrature
    and stencil tolerances in this package require.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("derivatives up to order 2 only")
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    sign = np.sign(t)
    out = np.zeros_like(t)
    flank = (at > 0.5) & (at < 1.0)
    if deriv == 0:
        out[at <= 0.5] = 1.0
    if flank.any():
        w = 2.0 * at[flank] - 1.0
        one_m = 1.0 - w * w
        val = np.exp(1.0 - 1.0 / one_m)
        if deriv == 0:
            out[flank] = val
        else:
            g1 = -2.0 * w / one_m**2
            if deriv == 1:
                out[flank] = 2.0 * sign[flank] * val * g1
            else:
                g2 = -2.0 / one_m**2 - 8.0 * w * w / one_m**3
                out[flank] = 4.0 * val * (g1 * g1 + g2)
    return out


@dataclass(frozen=True)
class DiscGeometry:
    """Immutable polar grid of the unit disc with quadrature and stencils."""

    r: np.ndarray        # radial nodes ascending, r[0] = 0, r[-1] = 1
    wr: np.ndarray       # weights with sum(wr * f(r)) ~ integral_0^1 f dr
    theta: np.ndarray    # M uniform angular nodes in [0, 2pi)
    panel_edges: np.ndarray

    @classmethod
    def build(cls, radial_nodes: int = 600, angular_nodes: int = 128,
              refine_depth: int = 8) -> "DiscGeometry":
        if radial_nodes < 16:
            raise ValueError("radial_nodes must be at least 16")
        if angular_nodes < 8 or angular_nodes % 2:
            raise ValueError("angular_nodes must be an even number >= 8")
        if refine_depth < 1 or refine_depth > 24:
            raise ValueError("refine_depth must lie in 1..24")
        edges = [0.0] + [1.0 - 0.5**k for k in range(1, refine_depth + 1)] + [1.0]
        target_h = 1.0 / radial_nodes
        nodes = [0.0]
        weights = [0.0]
        for a, b in zip(edges[:-1], edges[1:]):
            width = b - a
            sub = max(2, int(math.ceil(width / target_h)))
            if sub % 2:
                sub += 1
            h = width / sub
            xs = a + h * np.arange(1, sub + 1)
            w = np.full(sub + 1, 2.0)
            w[1::2] = 4.0
            w[0] = w[-1] = 1.0
            w *= h / 3.0
            weights[-1] += w[0]
            nodes.extend(xs.tolist())
            weights.extend(w[1:].tolist())
        theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
        return cls(r=np.array(nodes), wr=np.array(weights), theta=theta,
                   panel_edges=np.array(edges))

    # -- cached structure ----------------------------------------------------

    @property
    def n_r(self) -> int:
        return len(self.r)

    @property
    def n_theta(self) -> int:
        return len(self.theta)

    @property
    def floor_width(self) -> float:
        return float(self.panel_edges[-1] - self.panel_edges[-2])

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cache", {})

    def _cached(self, key: str, builder):
        cache = self.__dict__["_cache"]
        if key not in cache:
            cache[key] = builder()
        return cache[key]

    @property
    def zgrid(self) -> np.ndarray:
        return self._cached("zgrid", lambda: self.r[:, None] * np.exp(1j * self.theta)[None, :])

    @property
    def nu(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit normal components (nu_1, nu_2) = (cos, sin) theta, shape (M,)."""
        return self._cached("nu", lambda: (np.cos(self.theta), np.sin(self.theta)))

    @property
    def rho(self) -> np.ndarray:
        """Signed distance r - 1 at the radial nodes."""
        return self.r - 1.0

    @property
    def rho_z_phase(self) -> np.ndarray:
        """d(rho)/dz = exp(-i theta)/2 along each ray (r-independent), shape (M,)."""
        return self._cached("rho_z", lambda: 0.5 * np.exp(-1j * self.theta))

    @property
    def annulus_mask(self) -> np.ndarray:
        """Radial mask of nodes with r > R_EXCLUDE (shape (n_r,))."""
        return self.r > R_EXCLUDE

    def radial_derivative_matrix(self, order: int) -> scipy.sparse.csr_matrix:
        """Sparse matrix applying d^order/dr^order along the radial node line."""
        if order not in (1, 2):
            raise ValueError("full-grid radial derivatives support orders 1 and 2")

        def build() -> scipy.sparse.csr_matrix:
            import scipy.sparse  # on first use: the Galerkin commands never load scipy

            n = self.n_r
            width = 5
            rows, cols, vals = [], [], []
            for i in range(n):
                lo = min(max(0, i - width // 2), n - width)
                sel = np.arange(lo, lo + width)
                w = fd_weights(self.r[sel], self.r[i], order)[order]
                rows.extend([i] * width)
                cols.extend(sel.tolist())
                vals.extend(w.tolist())
            return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

        return self._cached(f"dr{order}", build)

    def theta_wavenumbers(self) -> np.ndarray:
        return self._cached(
            "wavenumbers",
            lambda: np.fft.fftfreq(self.n_theta, d=1.0 / self.n_theta),
        )

    # -- integrals -------------------------------------------------------------

    def interior_integral(self, values: np.ndarray) -> complex:
        """Integral over the disc with area element r dr dtheta."""
        dtheta = 2.0 * math.pi / self.n_theta
        return complex(np.sum((self.wr * self.r)[:, None] * values) * dtheta)

    def boundary_integral(self, boundary_values: np.ndarray) -> complex:
        """Trapezoidal integral over the unit circle (arc measure dtheta)."""
        return complex(np.sum(boundary_values) * 2.0 * math.pi / self.n_theta)


@lru_cache(maxsize=8)
def default_geometry(radial_nodes: int = 600, angular_nodes: int = 128,
                     refine_depth: int = 8) -> DiscGeometry:
    return DiscGeometry.build(radial_nodes, angular_nodes, refine_depth)


@dataclass
class SampledField:
    """Complex samples of a scalar field (or one form component) on the grid."""

    geom: DiscGeometry
    values: np.ndarray
    form_degree: int | None = None

    def __post_init__(self) -> None:
        expected = (self.geom.n_r, self.geom.n_theta)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")
        self.values = np.asarray(self.values, dtype=complex)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_function(geom: DiscGeometry, fn) -> "SampledField":
        """Sample fn(z) on the grid of complex nodes."""
        return SampledField(geom, np.asarray(fn(geom.zgrid), dtype=complex))

    @staticmethod
    def from_polar(geom: DiscGeometry, fn) -> "SampledField":
        return SampledField(
            geom, np.asarray(fn(geom.r[:, None], geom.theta[None, :]), dtype=complex)
        )

    @staticmethod
    def from_polynomial(geom: DiscGeometry, p) -> "SampledField":
        return SampledField(geom, p.eval(geom.zgrid[None, :, :]))

    # -- arithmetic -------------------------------------------------------------

    def _wrap(self, values: np.ndarray) -> "SampledField":
        return SampledField(self.geom, values, self.form_degree)

    def __add__(self, other: "SampledField") -> "SampledField":
        return self._wrap(self.values + other.values)

    def __sub__(self, other: "SampledField") -> "SampledField":
        return self._wrap(self.values - other.values)

    def __mul__(self, other) -> "SampledField":
        if isinstance(other, SampledField):
            return self._wrap(self.values * other.values)
        return self._wrap(self.values * other)

    __rmul__ = __mul__

    def conj(self) -> "SampledField":
        return self._wrap(np.conj(self.values))

    # -- derivatives ------------------------------------------------------------

    def radial_derivative(self, order: int = 1) -> "SampledField":
        mat = self.geom.radial_derivative_matrix(order)
        return self._wrap(mat @ self.values)

    def theta_derivative(self, order: int = 1) -> "SampledField":
        k = self.geom.theta_wavenumbers()
        mult = (1j * k) ** order
        if order % 2:
            mult = mult.copy()
            mult[self.geom.n_theta // 2] = 0.0  # odd derivative: drop Nyquist
        vals = np.fft.ifft(np.fft.fft(self.values, axis=1) * mult[None, :], axis=1)
        return self._wrap(vals)

    def boundary_values(self) -> np.ndarray:
        return self.values[-1].copy()

    def to_csv(self, path: str) -> None:
        """Write the samples as rows of (r, theta, Re, Im)."""
        geom = self.geom
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["r", "theta", "re", "im"])
            for i, r in enumerate(geom.r):
                for j, t in enumerate(geom.theta):
                    v = complex(self.values[i, j])
                    writer.writerow([repr(float(r)), repr(float(t)),
                                     repr(v.real), repr(v.imag)])


def normal_derivative(f: SampledField, order: int,
                      spacing: float | None = None) -> np.ndarray:
    """(N^order f) on the boundary nodes, N = d/dr, via one-sided stencils.

    Stencil nodes are subsampled from the radial line so that neighbouring
    stencil nodes are at least ~0.75 * spacing apart; this keeps the
    derivative's rounding amplification (eps / spacing^order) small even on
    strongly refined grids.  Smaller spacing is needed when the field varies
    on a short radial scale near the boundary.
    """
    if order < 0 or order > 4:
        raise ValueError("normal derivatives up to order 4 only")
    if order == 0:
        return f.boundary_values()
    geom = f.geom
    spacing = DEFAULT_STENCIL_SPACING if spacing is None else spacing
    count = order + 6
    idx = [geom.n_r - 1]
    last_r = 1.0
    for i in range(geom.n_r - 2, -1, -1):
        if last_r - geom.r[i] >= 0.75 * spacing:
            idx.append(i)
            last_r = geom.r[i]
            if len(idx) == count:
                break
    if len(idx) < order + 4:
        raise ValueError(
            f"radial grid has only {len(idx)} usable boundary-layer nodes at "
            f"spacing {spacing}; need at least {order + 4}"
        )
    sel = np.array(sorted(idx))
    w = fd_weights(geom.r[sel], 1.0, order)[order]
    return w @ f.values[sel, :]


def tangential_fields(geom: DiscGeometry, f: SampledField, j: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(Y_j f, nu_j * N f) values; rows with r <= R_EXCLUDE zeroed."""
    if j not in (1, 2):
        raise ValueError("coordinate index must be 1 or 2")
    nu1, nu2 = geom.nu
    nu_j = nu1 if j == 1 else nu2
    coef = -nu2 if j == 1 else nu1  # Y_1 = -(sin/r) d_theta, Y_2 = (cos/r) d_theta
    ft = f.theta_derivative().values
    nf = f.radial_derivative().values
    mask = geom.annulus_mask
    with np.errstate(divide="ignore", invalid="ignore"):
        yj = coef[None, :] * ft / geom.r[:, None]
    yj[~mask, :] = 0.0
    normal_part = nu_j[None, :] * nf
    normal_part[~mask, :] = 0.0
    return yj, normal_part


def tangential_decompose(j: int, f: SampledField) -> tuple[SampledField, SampledField]:
    """Split D_j f into tangential and normal parts on the annulus r > R_EXCLUDE."""
    yj, npart = tangential_fields(f.geom, f, j)
    return SampledField(f.geom, yj), SampledField(f.geom, npart)


def _frame_derivatives(f: SampledField, s: int) -> list[np.ndarray]:
    """[f, f_r, f_theta, H_rr, H_rtheta, H_thetatheta] up to order s, each taken once.

    The Hessian components are those of the orthonormal polar frame; rows at
    r = 0 of the 1/r-scaled components are zeroed.
    """
    geom = f.geom
    out = [f.values]
    if s >= 1:
        out += [f.radial_derivative(1).values, f.theta_derivative(1).values]
    if s >= 2:
        fr, ft = out[1], out[2]
        frr = f.radial_derivative(2).values
        ftt = f.theta_derivative(2).values
        frt = SampledField(geom, fr).theta_derivative(1).values
        r = geom.r[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            h_rt = frt / r - ft / r**2
            h_tt = fr / r + ftt / r**2
        zero_row = geom.r == 0.0
        h_rt[zero_row, :] = 0.0
        h_tt[zero_row, :] = 0.0
        out += [frr, h_rt, h_tt]
    return out


def ws_inner_sampled(f: SampledField, g: SampledField, s: int) -> complex:
    """Quadrature W^s inner product of sampled fields, s in {0, 1, 2}.

    Uses the frame identities sum_j D_j f conj(D_j g) = f_r conj(g_r)
    + r^-2 f_theta conj(g_theta) and the analogous Hessian contraction, which
    are exactly the gamma-weighted derivative sums of orders 1 and 2.
    """
    if s not in (0, 1, 2):
        raise ValueError("sampled W^s inner products support s in {0, 1, 2}")
    geom = f.geom
    fd = _frame_derivatives(f, s)
    gd = fd if g is f else _frame_derivatives(g, s)
    total = geom.interior_integral(fd[0] * np.conj(gd[0]))
    if s >= 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            ang = fd[2] * np.conj(gd[2]) / geom.r[:, None]**2
        ang[geom.r == 0.0, :] = 0.0
        total += geom.interior_integral(fd[1] * np.conj(gd[1]) + ang)
    if s >= 2:
        integrand = (fd[3] * np.conj(gd[3]) + 2.0 * fd[4] * np.conj(gd[4])
                     + fd[5] * np.conj(gd[5]))
        total += geom.interior_integral(integrand)
    return total


def ws_norm_sampled(f: SampledField, s: int) -> float:
    val = ws_inner_sampled(f, f, s)
    return math.sqrt(max(val.real, 0.0))


@dataclass(frozen=True)
class RadialFourierSum:
    """Exact finite sum of c * r^p * exp(i m theta) terms.

    This is the polar normal form of a polynomial in z and zbar (the term
    z^a zbar^b has radial power a+b and wavenumber a-b), closed under exact
    radial differentiation and multiplication by boundary phases.  It lets
    the boundary machinery take s-fold normal derivatives without stencils.
    """

    terms: tuple[tuple[complex, int, int], ...]  # (coefficient, power, wavenumber)

    @staticmethod
    def from_cpolynomial(p) -> "RadialFourierSum":
        if p.n != 1:
            raise ValueError("polar normal form needs one complex variable")
        acc: dict[tuple[int, int], complex] = {}
        for (a, b), c in p.terms.items():
            key = (a[0] + b[0], a[0] - b[0])
            acc[key] = acc.get(key, 0.0) + c.to_complex()
        return RadialFourierSum(tuple((c, p_, m) for (p_, m), c in acc.items() if c != 0))

    def phase_shift(self, k: int) -> "RadialFourierSum":
        """Multiply by exp(i k theta)."""
        return RadialFourierSum(tuple((c, p, m + k) for c, p, m in self.terms))

    def scale(self, factor: complex) -> "RadialFourierSum":
        return RadialFourierSum(tuple((c * factor, p, m) for c, p, m in self.terms))

    def radial_derivative(self, times: int = 1) -> "RadialFourierSum":
        terms = self.terms
        for _ in range(times):
            out = []
            for c, p, m in terms:
                if p > 0:
                    out.append((c * p, p - 1, m))
            terms = tuple(out)
        return RadialFourierSum(terms)

    def sample(self, geom: DiscGeometry) -> np.ndarray:
        vals = np.zeros((geom.n_r, geom.n_theta), dtype=complex)
        for c, p, m in self.terms:
            radial = geom.r**p if p else np.ones_like(geom.r)
            vals += c * radial[:, None] * np.exp(1j * m * geom.theta)[None, :]
        return vals

    def boundary_values(self, geom: DiscGeometry) -> np.ndarray:
        vals = np.zeros(geom.n_theta, dtype=complex)
        for c, p, m in self.terms:
            vals += c * np.exp(1j * m * geom.theta)
        return vals
