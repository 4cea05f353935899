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

Sampled W^s inner products are summed per angular Fourier mode: by Parseval
the trapezoidal theta sum of f conj(g) on the uniform grid is 1/M times the
sum of F conj(G) over the DFT modes, so theta derivatives become per-mode
multipliers and no inverse FFT is taken.  This is the same quadrature as the
grid sum; only the rounding differs, by about 1e-15 relative (more only where
the terms cancel, as the r^-2 terms of an s = 2 norm do near the origin).
Each term is built in turn in one reusable workspace of s + 1 complex
(n_r, M) spectra per grid (``DiscGeometry.ws_workspace``), and the radial
stencils act on it in cached blocks of RADIAL_BLOCK_ROWS rows, so a warm sum
allocates nothing the size of the grid.  The workspace serves one caller at
a time per geometry.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

DEFAULT_STENCIL_SPACING = 0.012
MIN_RADIAL_NODES = 16
MIN_ANGULAR_NODES = 8
MAX_REFINE_DEPTH = 24
# a stencil block's product is 64 KiB at M = 128, under glibc's 128 KiB mmap threshold
RADIAL_BLOCK_ROWS = 32


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
        if radial_nodes < MIN_RADIAL_NODES:
            raise ValueError(f"radial_nodes must be at least {MIN_RADIAL_NODES}")
        if angular_nodes < MIN_ANGULAR_NODES or angular_nodes % 2:
            raise ValueError(f"angular_nodes must be an even number >= {MIN_ANGULAR_NODES}")
        if not 1 <= refine_depth <= MAX_REFINE_DEPTH:
            raise ValueError(f"refine_depth must lie in 1..{MAX_REFINE_DEPTH}")
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
    def rho_z_phase(self) -> np.ndarray:
        """d(rho)/dz = exp(-i theta)/2 along each ray (r-independent), shape (M,)."""
        return self._cached("rho_z", lambda: 0.5 * np.exp(-1j * self.theta))

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

    def radial_laplacian_band(self) -> np.ndarray:
        """Read-only (2, 2) banded storage, entry (i, j) at [2 + i - j, j], of the
        mode-independent rows of the disc K operator's radial problem: the interior rows
        carry omega'' + omega' / r on 3-point stencils, the last row the Neumann datum
        omega'(1); the row at r = 0 is left to the mode."""

        def build() -> np.ndarray:
            r, n = self.r, self.n_r
            band = np.zeros((5, n))
            for i in range(1, n - 1):
                w = fd_weights(r[i - 1:i + 2], r[i], 2)
                band[[3, 2, 1], [i - 1, i, i + 1]] = w[2] + w[1] / r[i]
            band[[4, 3, 2], [n - 3, n - 2, n - 1]] = fd_weights(r[n - 3:], 1.0, 1)[1]
            band.flags.writeable = False
            return band

        return self._cached("k_band", build)

    def radial_derivative_blocks(self, order: int) -> list[tuple[int, scipy.sparse.csr_matrix]]:
        """``radial_derivative_matrix`` as (first row, block) pairs of RADIAL_BLOCK_ROWS
        rows each: a block's product with a spectrum is a small temporary, and
        each row sums its stencil in the same order as the full matrix does."""

        def build() -> list[tuple[int, scipy.sparse.csr_matrix]]:
            mat = self.radial_derivative_matrix(order)
            return [(start, mat[start:start + RADIAL_BLOCK_ROWS])
                    for start in range(0, self.n_r, RADIAL_BLOCK_ROWS)]

        return self._cached(f"dr{order}_blocks", build)

    def theta_wavenumbers(self) -> np.ndarray:
        return self._cached(
            "wavenumbers",
            lambda: np.fft.fftfreq(self.n_theta, d=1.0 / self.n_theta),
        )

    def theta_multiplier(self, order: int) -> np.ndarray:
        """Read-only spectral multiplier (ik)^order of d^order/dtheta^order;
        odd orders drop the Nyquist mode, whose derivative is not real."""

        def build() -> np.ndarray:
            mult = (1j * self.theta_wavenumbers()) ** order
            if order % 2:
                mult[self.n_theta // 2] = 0.0
            mult.flags.writeable = False
            return mult

        return self._cached(f"dtheta{order}", build)

    def ws_weights(self) -> "WsWeights":
        """Root weight tables of the per-mode W^s sums (see ``ws_inner_sampled``)."""

        def build() -> WsWeights:
            # trapezoid dtheta = 2 pi / M, and Parseval's 1 / M
            area = (self.wr * self.r * (2.0 * math.pi / self.n_theta**2))[:, None]
            k_odd = np.abs(self.theta_multiplier(1)) ** 2  # k^2, Nyquist dropped
            inv_r = np.zeros((self.n_r, 1))
            np.divide(1.0, self.r[:, None], out=inv_r, where=self.r[:, None] > 0.0)
            root_area = np.sqrt(area)
            return WsWeights(root_area=root_area,
                             root_value_s1=np.sqrt(area * (1.0 + k_odd * inv_r**2)),
                             root_h_rtheta=np.sqrt(2.0 * area * k_odd) * inv_r,
                             root_h_thetatheta=root_area * inv_r,
                             k_even=-self.theta_multiplier(2).real, inv_r=inv_r)

        return self._cached("ws_weights", build)

    def ws_workspace(self, s: int) -> list[np.ndarray]:
        """The s + 1 complex (n_r, M) scratch spectra of one sampled W^s sum.

        Allocated on first use and grown only when a larger s asks, so a warm
        sum allocates nothing the size of the grid; one caller at a time.
        """
        spectra = self._cached("ws_workspace", list)
        while len(spectra) <= s:
            spectra.append(np.empty((self.n_r, self.n_theta), dtype=complex))
        return spectra[:s + 1]

    # -- integrals -------------------------------------------------------------

    def interior_integral(self, values: np.ndarray) -> complex:
        """Integral over the disc with area element r dr dtheta."""
        dtheta = 2.0 * math.pi / self.n_theta
        return complex(np.sum((self.wr * self.r)[:, None] * values) * dtheta)

    def boundary_integral(self, boundary_values: np.ndarray) -> complex:
        """Trapezoidal integral over the unit circle (arc measure dtheta)."""
        return complex(np.sum(boundary_values) * 2.0 * math.pi / self.n_theta)


@dataclass(frozen=True)
class WsWeights:
    """Per-mode weights of the sampled W^s sums on one grid, as square roots
    that scale each spectrum; every entry with a factor 1/r is zero at r = 0."""

    root_area: np.ndarray          # (n_r, 1): sqrt of wr r 2 pi / M^2 ("area")
    root_value_s1: np.ndarray      # (n_r, M): sqrt of area (1 + k^2 / r^2), for F when s >= 1
    root_h_rtheta: np.ndarray      # (n_r, M): sqrt of 2 area k^2, over r, for F_r - F / r
    root_h_thetatheta: np.ndarray  # (n_r, 1): sqrt of area, over r, for F_r - k^2 F / r
    k_even: np.ndarray             # (M,): k^2 with the Nyquist mode kept, -(ik)^2
    inv_r: np.ndarray              # (n_r, 1)


@lru_cache(maxsize=8)
def default_geometry(radial_nodes: int = 600, angular_nodes: int = 128,
                     refine_depth: int = 8) -> DiscGeometry:
    return DiscGeometry.build(radial_nodes, angular_nodes, refine_depth)


@dataclass
class SampledField:
    """Complex samples of a scalar field (or one form component) on the grid."""

    geom: DiscGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.geom.n_r, self.geom.n_theta)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")
        self.values = np.asarray(self.values, dtype=complex)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_polar(geom: DiscGeometry, fn) -> "SampledField":
        return SampledField(
            geom, np.asarray(fn(geom.r[:, None], geom.theta[None, :]), dtype=complex)
        )

    @staticmethod
    def from_polynomial(geom: DiscGeometry, p) -> "SampledField":
        return SampledField(geom, p.eval(geom.zgrid[None, :, :]))

    # -- arithmetic -------------------------------------------------------------

    def __sub__(self, other: "SampledField") -> "SampledField":
        return SampledField(self.geom, self.values - other.values)

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


def _radial_spectrum(geom: DiscGeometry, order: int, spec: np.ndarray,
                     out: np.ndarray) -> None:
    """d^order/dr^order of an angular spectrum into out: the real stencil on its
    real view, one cached row block at a time, so no grid-sized product is made."""
    x, y = spec.view(float), out.view(float)
    for start, block in geom.radial_derivative_blocks(order):
        y[start:start + block.shape[0]] = block @ x


def _ws_terms(f: SampledField, s: int, spectra: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Weighted angular spectra of [f, f_r, H_rr, H_rtheta, H_thetatheta] up to order s.

    The terms come one at a time in spectra[s], which the next term overwrites;
    spectra[0] holds the spectrum F of f (scaled to F / r and k^2 F / r once
    the radial derivatives are taken) and spectra[1] its radial derivative F_r.
    The Hessian components are those of the orthonormal polar frame, per mode
    H_rtheta = ik (F_r - F / r) / r and H_thetatheta = (F_r - k^2 F / r) / r;
    each term is scaled by the root of its quadrature weight, which carries
    the multiplier ik and the outer 1/r, so the squares of the two
    differences are never expanded into cancelling cross terms.
    """
    geom = f.geom
    w = geom.ws_weights()
    spec, f_r, term = spectra[0], spectra[min(s, 1)], spectra[s]
    np.fft.fft(f.values, axis=1, out=spec)
    yield np.multiply(spec, w.root_value_s1 if s else w.root_area, out=term)
    if s >= 1:
        _radial_spectrum(geom, 1, spec, f_r)
        yield np.multiply(f_r, w.root_area, out=term)
    if s >= 2:
        _radial_spectrum(geom, 2, spec, term)
        yield np.multiply(term, w.root_area, out=term)
        spec *= w.inv_r      # F / r
        np.subtract(f_r, spec, out=term)
        yield np.multiply(term, w.root_h_rtheta, out=term)
        spec *= w.k_even     # k^2 F / r
        np.subtract(f_r, spec, out=term)
        yield np.multiply(term, w.root_h_thetatheta, out=term)


def ws_inner_sampled(f: SampledField, g: SampledField, s: int) -> complex:
    """Quadrature W^s inner product of sampled fields, s in {0, 1, 2}.

    Uses the frame identities sum_j D_j f conj(D_j g) = f_r conj(g_r)
    + r^-2 f_theta conj(g_theta) and the analogous Hessian contraction, which
    are exactly the gamma-weighted derivative sums of orders 1 and 2.  The
    trapezoidal theta sum is taken per angular mode (Parseval), so each
    theta derivative is its multiplier folded into a weight table, and each
    term is one dot product of two weighted spectra.  f's terms are built in
    its grid's workspace (``DiscGeometry.ws_workspace``); a g that is not f
    walks its terms in lockstep through buffers of its own.
    """
    if s not in (0, 1, 2):  # ``_ws_terms`` writes out the derivative terms to order 2
        raise ValueError("sampled W^s inner products support s in {0, 1, 2}")
    fs = _ws_terms(f, s, f.geom.ws_workspace(s))
    if g is f:
        pairs = ((term, term) for term in fs)
    else:
        spectra = [np.empty(g.values.shape, dtype=complex) for _ in range(s + 1)]
        pairs = zip(fs, _ws_terms(g, s, spectra))
    return complex(sum(np.vdot(gk, fk) for fk, gk in pairs))


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
