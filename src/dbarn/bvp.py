"""Elliptic boundary value problems behind the Sobolev adjoint correction.

Two solvers live here.

1. A one-dimensional analog on [0, 1] of the interior equation
   sum_{j=0}^s (-Lap)^j u = 0 with s boundary operators per endpoint, each a
   polynomial in the outward normal derivative (leading order s+k-1, leading
   coefficient (-1)^(k-1) for the k-th operator).  The ODE has constant
   coefficients, so the solution space is spanned exactly by exponentials
   exp(lambda x) where -lambda^2 runs over the nontrivial (s+1)-th roots of
   unity; solving is collocation of the boundary operators on that basis.
   A second-order finite-difference path (s <= 2) provides an independent
   check.

2. The adjoint-correction operator K on the unit disc for s = 1.  Its
   component solves

        omega - Lap(omega) = 0  on the disc,
        N(omega) = P2(psi)      on the circle,

   where the order-2 boundary data P2(psi) consists of the contraction
   psi .| dbar(rho) plus the adjoint-tangential corrections
   Y_j^* (D_j psi_1 * drho/dz); on the circle Y_j = c_j(theta) d/dtheta with
   c_1 = -sin, c_2 = cos and the adjoint with respect to arc measure is
   Y_j^* = -d/dtheta (c_j .).  The solve is per Fourier mode: a radial
   two-point problem with a regularized row at r = 0 (L'Hopital for m = 0,
   Dirichlet for m >= 1) and the Neumann datum at r = 1, discretized with
   second-order differences on the geometry's radial line and validated
   against the modified-Bessel power series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    DiscGeometry,
    SampledField,
    fd_weights,
    normal_derivative,
)

# -- 1D interval problem -------------------------------------------------------

# from s = 3 the differences lose to roundoff at n = 128 with any closure tried
MAX_FD_S = 2
FD_CELLS_PER_S = 6  # the boundary stencils need at least 6 s cells
# past these cell counts roundoff takes over: the convergence ratio leaves its
# window from about 10^4 cells at s = 1 and 384 at s = 2
MAX_FD_CELLS = {1: 4096, 2: 256}


def characteristic_roots(s: int) -> np.ndarray:
    """The 2s roots lambda of sum_j (-lambda^2)^j = 0, i.e. -lambda^2 a
    nontrivial (s+1)-th root of unity."""
    if s < 1:
        raise ValueError("s must be positive")
    ks = np.arange(1, s + 1)
    zeta = np.exp(2j * math.pi * ks / (s + 1))
    lam = np.sqrt(-zeta)
    return np.concatenate([lam, -lam])


@dataclass(frozen=True)
class Interval1DProblem:
    """Boundary operators and data for the order-2s interval problem.

    Each operator is a coefficient list over powers 0..2s-1 of the outward
    normal derivative at its endpoint (N = -d/dx at 0, N = +d/dx at 1).
    The k-th operator (k = 1..s) must have leading order s+k-1 with leading
    coefficient (-1)^(k-1).
    """

    s: int
    left_ops: tuple[tuple[complex, ...], ...]
    right_ops: tuple[tuple[complex, ...], ...]
    left_data: tuple[complex, ...]
    right_data: tuple[complex, ...]

    def __post_init__(self) -> None:
        s = self.s
        for name, ops, data in (("left", self.left_ops, self.left_data),
                                ("right", self.right_ops, self.right_data)):
            if len(ops) != s or len(data) != s:
                raise ValueError(f"{name} side needs exactly s={s} operators and data")
            for k, op in enumerate(ops, start=1):
                if len(op) > 2 * s:
                    raise ValueError(f"{name} operator {k} exceeds normal order {2*s - 1}")
                lead = s + k - 1
                padded = tuple(op) + (0,) * (2 * s - len(op))
                if any(abs(c) > 1e-14 for c in padded[lead + 1:]):
                    raise ValueError(
                        f"{name} operator {k} must have leading normal order {lead}")
                if abs(padded[lead] - (-1) ** (k - 1)) > 1e-12:
                    raise ValueError(
                        f"{name} operator {k} must have leading coefficient "
                        f"{(-1) ** (k - 1)}")

    @staticmethod
    def shaped(s: int, left_data: Sequence[complex], right_data: Sequence[complex],
               lower_order: np.ndarray | None = None) -> "Interval1DProblem":
        """Problem with the canonical operator structure.

        lower_order, if given, has shape (2, s, 2s) and adds constant
        lower-order terms below each operator's leading entry.
        """
        ops = []
        for side in range(2):
            side_ops = []
            for k in range(1, s + 1):
                coeffs = np.zeros(2 * s, dtype=complex)
                coeffs[s + k - 1] = (-1) ** (k - 1)
                if lower_order is not None:
                    extra = np.asarray(lower_order[side][k - 1], dtype=complex).copy()
                    extra[s + k - 1:] = 0.0
                    coeffs += extra
                side_ops.append(tuple(coeffs))
            ops.append(tuple(side_ops))
        return Interval1DProblem(s, ops[0], ops[1],
                                 tuple(left_data), tuple(right_data))


def _apply_normal_powers(op: Sequence[complex], lam: complex, endpoint: int) -> complex:
    """Value of sum_t c_t N^t on exp(lambda x) at the endpoint (0 or 1)."""
    normal = -lam if endpoint == 0 else lam
    base = 1.0 if endpoint == 0 else np.exp(lam)
    return sum(c * normal**t for t, c in enumerate(op)) * base


@dataclass
class IntervalSolution:
    problem: Interval1DProblem
    roots: np.ndarray
    coeffs: np.ndarray
    condition: float
    max_boundary_residual: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for lam, c in zip(self.roots, self.coeffs):
            out += c * np.exp(lam * x)
        return out


def solve_interval(problem: Interval1DProblem) -> IntervalSolution:
    """Solve in the exact exponential basis by boundary collocation.

    The ODE residual is identically zero by construction; only the 2s x 2s
    boundary system is solved numerically.  A singular collocation system
    (non-elliptic operator set) raises with the condition number.
    """
    s = problem.s
    roots = characteristic_roots(s)
    rows = []
    rhs = []
    for op, g in zip(problem.left_ops, problem.left_data):
        rows.append([_apply_normal_powers(op, lam, 0) for lam in roots])
        rhs.append(g)
    for op, g in zip(problem.right_ops, problem.right_data):
        rows.append([_apply_normal_powers(op, lam, 1) for lam in roots])
        rhs.append(g)
    mat = np.array(rows, dtype=complex)
    rhs = np.array(rhs, dtype=complex)
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"singular boundary collocation system (cond = {cond:.3e}); "
                         "the operator set is not elliptic")
    coeffs = np.linalg.solve(mat, rhs)
    resid = float(np.max(np.abs(mat @ coeffs - rhs)))
    return IntervalSolution(problem, roots, coeffs, cond, resid)


def _check_fd_grid(s: int, n: int) -> None:
    if not 1 <= s <= MAX_FD_S:
        raise ValueError(f"the finite-difference solve supports s in 1..{MAX_FD_S}: "
                         "from s = 3 its differences lose to roundoff")
    if n < FD_CELLS_PER_S * s:
        raise ValueError(f"a grid of {n} cells is too coarse for the boundary stencils "
                         f"at s = {s}, which need at least {FD_CELLS_PER_S * s}")
    if n > MAX_FD_CELLS[s]:
        raise ValueError(f"a grid of {n} cells is too fine at s = {s}: above "
                         f"{MAX_FD_CELLS[s]} its differences lose to roundoff")


def solve_interval_fd(problem: Interval1DProblem, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Second-order finite-difference solve on n+1 uniform nodes.

    Interior rows discretize sum_j (-1)^j u^(2j) with central differences;
    boundary rows use one-sided stencils of order 2 (t+2 points for the t-th
    derivative).  Returns (grid, values).
    """
    s = problem.s
    _check_fd_grid(s, n)
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n + 1, dtype=complex)
    row = 0

    # boundary rows, s per endpoint
    for endpoint, ops, data in ((0, problem.left_ops, problem.left_data),
                                (1, problem.right_ops, problem.right_data)):
        sign = -1.0 if endpoint == 0 else 1.0
        x0 = 0.0 if endpoint == 0 else 1.0
        for op, g in zip(ops, data):
            acc: dict[int, complex] = {}
            for t, c in enumerate(op):
                if c == 0:
                    continue
                if t == 0:
                    node = 0 if endpoint == 0 else n
                    acc[node] = acc.get(node, 0.0) + c
                    continue
                count = t + 2
                nodes = (np.arange(count) if endpoint == 0
                         else np.arange(n - count + 1, n + 1))
                w = fd_weights(x[nodes], x0, t)[t] * (sign**t)
                for node, wv in zip(nodes, w):
                    acc[node] = acc.get(node, 0.0) + c * wv
            for node, wv in acc.items():
                rows.append(row)
                cols.append(int(node))
                vals.append(wv)
            rhs[row] = g
            row += 1

    # interior rows at nodes s..n-s
    stencils = []
    for j in range(problem.s + 1):
        st = np.zeros(2 * j + 1)
        for l in range(2 * j + 1):
            st[l] = (-1) ** l * math.comb(2 * j, l)
        stencils.append(st * (-1.0) ** j / h ** (2 * j))
    for i in range(s, n - s + 1):
        acc = {}
        for j, st in enumerate(stencils):
            for l, wv in enumerate(st):
                node = i + j - l
                acc[node] = acc.get(node, 0.0) + wv
        for node, wv in acc.items():
            rows.append(row)
            cols.append(int(node))
            vals.append(wv)
        row += 1

    import scipy.sparse  # on first use: the Galerkin commands never load scipy
    import scipy.sparse.linalg

    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))
    sol = scipy.sparse.linalg.spsolve(mat.tocsc(), rhs)
    return x, sol


def manufactured_interval_problem(s: int, rng: np.random.Generator,
                                  with_lower_order: bool = True
                                  ) -> tuple[Interval1DProblem, IntervalSolution]:
    """Random exponential-basis solution and the problem whose data it solves."""
    roots = characteristic_roots(s)
    coeffs = rng.standard_normal(2 * s) + 1j * rng.standard_normal(2 * s)
    lower = None
    if with_lower_order:
        lower = 0.5 * rng.standard_normal((2, s, 2 * s))
    shaped = Interval1DProblem.shaped(s, [0.0] * s, [0.0] * s, lower)

    # evaluate each operator on the manufactured solution
    left_data = []
    for op in shaped.left_ops:
        left_data.append(sum(c * _apply_normal_powers(op, lam, 0)
                             for lam, c in zip(roots, coeffs)))
    right_data = []
    for op in shaped.right_ops:
        right_data.append(sum(c * _apply_normal_powers(op, lam, 1)
                              for lam, c in zip(roots, coeffs)))
    problem = Interval1DProblem(s, shaped.left_ops, shaped.right_ops,
                                tuple(left_data), tuple(right_data))
    exact = IntervalSolution(problem, roots, coeffs, 0.0, 0.0)
    return problem, exact


def interval_manufactured_error(s: int, rng: np.random.Generator
                                ) -> tuple[IntervalSolution, float]:
    """Solve a manufactured problem drawn from rng (``manufactured_interval_problem``)
    in the exponential basis: the solution and its max error on 41 uniform nodes."""
    problem, exact = manufactured_interval_problem(s, rng)
    sol = solve_interval(problem)
    xs = np.linspace(0.0, 1.0, 41)
    return sol, float(np.max(np.abs(sol.evaluate(xs) - exact.evaluate(xs))))


def interval_fd_errors(s: int, rng: np.random.Generator, sizes: Sequence[int]) -> list[float]:
    """Max nodal error of ``solve_interval_fd`` at each grid size, on one manufactured
    problem without lower-order terms drawn from rng."""
    problem, exact = manufactured_interval_problem(s, rng, with_lower_order=False)
    return [float(np.max(np.abs(u - exact.evaluate(x))))
            for x, u in (solve_interval_fd(problem, n) for n in sizes)]


def interval_experiment(s: int, rng: np.random.Generator, sizes: Sequence[int]
                        ) -> tuple[IntervalSolution, float, list[float]]:
    """``interval_manufactured_error`` and then ``interval_fd_errors``, drawn from rng in
    that order; the finite-difference limits are checked before any work."""
    for n in sizes:
        _check_fd_grid(s, n)
    sol, err = interval_manufactured_error(s, rng)
    return sol, err, interval_fd_errors(s, rng, sizes)


# -- the adjoint-correction operator K on the disc (s = 1) ----------------------


def bessel_i_series(m: int, r: np.ndarray) -> np.ndarray:
    """Modified Bessel function I_m by its power series (exact oracle on [0,1])."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for k in range(60):
        c = 1.0 / (math.factorial(k) * math.factorial(k + m))
        out += c * (r / 2.0) ** (2 * k + m)
    return out


def bessel_i_series_derivative(m: int, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for k in range(60):
        p = 2 * k + m
        if p == 0:
            continue
        c = p / (math.factorial(k) * math.factorial(k + m)) / 2.0
        out += c * (r / 2.0) ** (p - 1)
    return out


@dataclass
class DiscKOperator:
    """The s = 1 adjoint-correction operator on the unit disc.

    Solves omega - Lap(omega) = 0 with Neumann datum N(omega) = data per
    angular Fourier mode; unit-response radial profiles are cached per |m|
    and gathered into one (n_r, M) stack, so a solve scales every column by
    its mode amplitude in a single broadcast.  The 3-point stencils do not depend
    on m, so the banded radial operator is built once and each mode only
    adds its diagonal term -m^2/r^2 - 1.
    """

    geom: DiscGeometry
    mode_max: int | None = None
    _band: np.ndarray = field(init=False, repr=False)
    _profiles: dict[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    _stack: np.ndarray = field(init=False, repr=False)
    _stack_done: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        top = self.geom.n_theta // 2
        if self.mode_max is None:
            self.mode_max = top
        elif not 0 <= self.mode_max <= top:
            raise ValueError(f"mode_max={self.mode_max} is outside the range 0..{top} "
                             f"of a {self.geom.n_theta}-node angular grid")
        # Banded storage for (l, u) = (2, 2): entry (i, j) sits at [2 + i - j, j].
        # Interior rows carry omega'' + omega' / r; the last row is the Neumann
        # datum at r = 1; the row at r = 0 depends on the mode.
        r = self.geom.r
        n = len(r)
        band = np.zeros((5, n))
        for i in range(1, n - 1):
            w = fd_weights(r[i - 1:i + 2], r[i], 2)
            band[[3, 2, 1], [i - 1, i, i + 1]] = w[2] + w[1] / r[i]
        band[[4, 3, 2], [n - 3, n - 2, n - 1]] = fd_weights(r[n - 3:], 1.0, 1)[1]
        self._band = band
        # unit profiles as (n_r, M) columns in the FFT's wavenumber order; a
        # column is solved when a mode first carries data, and the columns
        # of modes above mode_max stay zero
        self._stack = np.zeros((n, self.geom.n_theta))
        self._stack_done = np.abs(self.geom.theta_wavenumbers()) > self.mode_max

    # -- radial mode solves -----------------------------------------------------

    def _mode_matrix(self, m: int) -> np.ndarray:
        r = self.geom.r
        ab = self._band.copy()
        ab[2, 1:-1] += -(m * m) / (r[1:-1] * r[1:-1]) - 1.0
        if m == 0:
            # Lap at the origin of a radial mode: 2 * omega'' - omega = 0
            ab[[2, 1, 0], [0, 1, 2]] = 2.0 * fd_weights(r[:3], 0.0, 2)[2]
            ab[2, 0] -= 1.0
        else:
            ab[2, 0] = 1.0
        return ab

    def unit_profile(self, m: int) -> np.ndarray:
        """Radial solution with Neumann datum 1 for angular wavenumber m."""
        m = abs(int(m))
        if m > self.mode_max:
            raise ValueError(f"mode {m} beyond the truncation {self.mode_max}")
        prof = self._profiles.get(m)
        if prof is None:
            import scipy.linalg

            rhs = np.zeros(self.geom.n_r)
            rhs[-1] = 1.0
            prof = scipy.linalg.solve_banded((2, 2), self._mode_matrix(m), rhs)
            self._profiles[m] = prof
        return prof

    def solve_with_boundary_data(self, data: np.ndarray) -> SampledField:
        """Recombine per-mode solves for Neumann data given on the circle."""
        geom = self.geom
        data = np.asarray(data, dtype=complex)
        if data.shape != (geom.n_theta,):
            raise ValueError("data must be sampled on the angular grid")
        hat = np.fft.fft(data) / geom.n_theta
        for idx in np.flatnonzero((hat != 0) & ~self._stack_done):
            self._stack[:, idx] = self.unit_profile(geom.theta_wavenumbers()[idx])
            self._stack_done[idx] = True
        spectrum = hat * self._stack  # the one grid-sized array, transformed in place
        spectrum *= geom.n_theta  # (hat * profile) * M, column by column
        return SampledField(geom, np.fft.ifft(spectrum, axis=1, out=spectrum))

    def bessel_oracle_error(self) -> float:
        """Max error of the solve with unit Neumann datum against its exact radial
        solution I_0(r) / I_0'(1), over the radial nodes."""
        omega = self.solve_with_boundary_data(np.ones(self.geom.n_theta))
        exact = (bessel_i_series(0, self.geom.r)
                 / bessel_i_series_derivative(0, np.array([1.0]))[0])
        return float(np.max(np.abs(omega.values[:, 0] - exact)))

    # -- boundary data of the order-2 operator ----------------------------------

    def boundary_data(self, psi: SampledField) -> np.ndarray:
        """P2(psi) on the circle for a sampled (0,1)-form component psi.

        The zeroth-order part is the contraction psi .| dbar(rho) itself; the
        first-order parts apply the circle adjoints Y_j^* = -d/dtheta (c_j .)
        to D_j(psi_1) * drho/dz, with D_j split into tangential and normal
        pieces on the boundary.
        """
        geom = self.geom
        theta = geom.theta
        rho_z = geom.rho_z_phase  # exp(-i theta) / 2, r-independent
        psi_b = psi.boundary_values()
        data = psi_b * rho_z

        dpsi_dtheta = _circle_theta_derivative(geom, psi_b)
        dpsi_dr = normal_derivative(psi, 1)
        c = (-np.sin(theta), np.cos(theta))
        nu = (np.cos(theta), np.sin(theta))
        for j in (0, 1):
            d_j_psi = c[j] * dpsi_dtheta + nu[j] * dpsi_dr
            t_j = d_j_psi * rho_z
            # Y_j^* t = -d/dtheta (c_j t), spectrally
            data -= _circle_theta_derivative(geom, c[j] * t_j)
        return data

    def apply(self, psi: SampledField) -> SampledField:
        """K psi for s = 1: assemble boundary data, then the Neumann solve."""
        return self.solve_with_boundary_data(self.boundary_data(psi))


def _circle_theta_derivative(geom: DiscGeometry, values: np.ndarray) -> np.ndarray:
    """d/dtheta of M samples on the circle, spectrally (Nyquist mode dropped)."""
    return np.fft.ifft(np.fft.fft(values) * geom.theta_multiplier(1))
