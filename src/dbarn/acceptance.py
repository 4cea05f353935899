"""The acceptance suite: every exit criterion of the package, one runner each.

Each criterion function takes a seed, runs its checks at the pinned
tolerances, and returns a CriterionResult with scalar evidence.  The pytest
acceptance module and the ``verify-all`` CLI subcommand both drive this
table, so the gate is identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bvp, ellipticity, forms, geometry, multiindex, neumann, sobolev

DEFAULT_SEED = 20260314


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        info = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] criterion {self.number:2d} {self.name}: {info}"


def _rng(seed: int, number: int) -> np.random.Generator:
    return np.random.default_rng(seed + 1000 * number)


# -- 1: exact complex identities -------------------------------------------------


def criterion_01(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 1)
    dbar_checked = theta_checked = 0
    ok = True
    while dbar_checked < 100:
        n = int(rng.integers(2, 4))
        q = int(rng.integers(0, n - 1))  # 0..n-2
        phi = forms.random_form(rng, n, q, 4)
        ok &= forms.dbar(forms.dbar(phi)).is_zero()
        dbar_checked += 1
    while theta_checked < 100:
        n = int(rng.integers(2, 4))
        q = int(rng.integers(2, n + 1))
        psi = forms.random_form(rng, n, q, 4)
        ok &= forms.theta(forms.theta(psi)).is_zero()
        theta_checked += 1
    return CriterionResult(1, "dbar^2 = 0 and theta^2 = 0 exactly", ok,
                           {"dbar_forms": dbar_checked, "theta_forms": theta_checked})


# -- 2: box diagonality and the proportionality constant --------------------------


def criterion_02(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 2)
    constant: forms.CRational | None = None
    diagonal_ok = proportional_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(0, n + 1))
        phi = forms.random_form(rng, n, q, 3)
        b = forms.box(phi)
        keys = set(phi.comps) | set(b.comps)
        for K in keys:
            single = forms.FormPoly.from_components(n, q, {K: phi.component(K)})
            if forms.box(single).component(K) != b.component(K):
                diagonal_ok = False
            lap = forms.laplacian(phi.component(K))
            if constant is None and not lap.is_zero():
                key, coeff = next(iter(lap.terms.items()))
                constant = forms.box(single).component(K).terms.get(key,
                                                                    forms.QC_ZERO) / coeff
            if constant is not None:
                if b.component(K) != lap.scale(constant):
                    proportional_ok = False
    measured = f"{constant.re}" if constant is not None and constant.im == 0 else str(constant)
    passed = diagonal_ok and proportional_ok and constant is not None
    return CriterionResult(
        2, "box is diagonal and a single multiple of the Laplacian", passed,
        {"measured_c": measured,
         "note": "often quoted as -4 for the opposite Laplacian normalization"})


# -- 3: combinatorial identities ---------------------------------------------------


def criterion_03(seed: int = DEFAULT_SEED) -> CriterionResult:
    ok = True
    for dim in range(1, 5):
        for s in range(6):
            ok &= multiindex.multinomial_power_identity_check(dim, s)
    closed_ok = recursion_ok = True
    for k in range(13):
        for p in range(13):
            for m in range(min(p, 12) + 1):
                closed_ok &= (multiindex.binomial_double_sum(k, p, m)
                              == math.comb(p + k + 1, m))
                if 1 <= m <= p - 1:
                    recursion_ok &= (
                        multiindex.binomial_double_sum(k, p, m)
                        == multiindex.binomial_double_sum(k, p - 1, m)
                        + multiindex.binomial_double_sum(k, p - 1, m - 1))
    passed = ok and closed_ok and recursion_ok
    return CriterionResult(
        3, "multinomial power identity and the binomial double sum", passed,
        {"power_identity": ok, "closed_form": closed_ok, "recursion": recursion_ok})


# -- 4: the two boundary-symbol representations agree ------------------------------


def criterion_04(seed: int = DEFAULT_SEED) -> CriterionResult:
    ok = True
    checked = 0
    for s in range(1, 7):
        for ell in range(s):
            ok &= (ellipticity.reduce_double_sum(s, ell)
                   == ellipticity.symbol_closed_form_exact(s, ell))
            checked += 1
    return CriterionResult(4, "double-sum symbol reduces to the closed form", ok,
                           {"pairs_checked": checked})


# -- 5: ellipticity certification ---------------------------------------------------


def criterion_05(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 5)
    grid = np.logspace(-1.0, 1.0, 25)
    min_det = math.inf
    lopatinski_ok = True
    positive_ok = True
    for s in range(1, 7):
        report = ellipticity.certify_trivial_kernel(s, grid)
        lopatinski_ok &= report.passed
        min_det = min(min_det, min(abs(smp.det_scaled) for smp in report.samples))
        for xi in grid:
            for _ in range(50):
                v = rng.standard_normal(s) + 1j * rng.standard_normal(s)
                positive_ok &= ellipticity.quadratic_form(s, float(xi), v) > 0.0
    passed = lopatinski_ok and positive_ok
    return CriterionResult(
        5, "trivial kernel certified; quadratic form strictly positive", passed,
        {"min_scaled_det": f"{min_det:.3e}", "threshold": 1e-10,
         "positivity_samples": 6 * 25 * 50})


# -- 6: direct and recursive W^s inner products agree -------------------------------


def criterion_06(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 6)
    worst = 0.0
    for _ in range(200):
        f = forms.random_cpolynomial(rng, 1, 5)
        g = forms.random_cpolynomial(rng, 1, 5)
        for s in (1, 2, 3):
            a = sobolev.inner_s_direct(f, g, s)
            b = sobolev.inner_s_recursive(f, g, s)
            scale = max(abs(a), abs(b), 1e-30)
            worst = max(worst, abs(a - b) / scale)
    return CriterionResult(6, "gamma-weighted sum equals the derivative recursion",
                           worst <= 1e-12,
                           {"max_rel_diff": f"{worst:.2e}", "tolerance": 1e-12})


# -- 7: the integration-by-parts identity -------------------------------------------


def criterion_07(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 7)
    worst = 0.0
    for _ in range(50):
        phi = forms.random_cpolynomial(rng, 1, 4)
        psi = forms.random_cpolynomial(rng, 1, 4)
        for s in (0, 1, 2):
            res = neumann.greens_identity_check(phi, psi, s)
            worst = max(worst, res.residual)
    return CriterionResult(7, "Green identity exact on polynomial pairs",
                           worst <= 1e-10,
                           {"max_residual": f"{worst:.2e}", "tolerance": 1e-10})


# -- 8: the Gram adjoint satisfies its defining property ----------------------------


def criterion_08(seed: int = DEFAULT_SEED) -> CriterionResult:
    # Degree 10: the normalized defect grows with the Gram condition number
    # (eps * cond-ish), and 10 is the largest degree in the test family whose
    # float64 conditioning supports the 1e-12 contract.
    rng = _rng(seed, 8)
    worst = 0.0
    for s in (0, 1, 2):
        cx = neumann.DiscreteComplex.build(10, s)
        a_star = neumann.adjoint(cx.dbar_matrix, cx.gram, cx.form_gram)
        for _ in range(34):
            v = rng.standard_normal(cx.basis.dim) + 1j * rng.standard_normal(cx.basis.dim)
            w = (rng.standard_normal(cx.form_basis.dim)
                 + 1j * rng.standard_normal(cx.form_basis.dim))
            lhs = cx.form_gram.inner(cx.dbar_matrix @ v, w)
            rhs = cx.gram.inner(v, a_star @ w)
            worst = max(worst, abs(lhs - rhs) / (cx.gram.norm(v) * cx.form_gram.norm(w)))
    return CriterionResult(8, "adjoint contract in the W^s geometry",
                           worst <= 1e-12,
                           {"max_normalized_defect": f"{worst:.2e}", "tolerance": 1e-12})


# -- 9: solvability, uniqueness, and stability of the discrete Neumann operator -----


def criterion_09(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 9)
    worst_resid = 0.0
    for s in (0, 1, 2):
        cx = neumann.DiscreteComplex.build(12, s)
        for _ in range(20):
            f = (rng.standard_normal(cx.form_basis.dim)
                 + 1j * rng.standard_normal(cx.form_basis.dim))
            sol = neumann.neumann_solve(f, cx=cx)
            worst_resid = max(worst_resid, sol.residual)
    unique_ok = all(neumann.verify_gram_positive_definite_exact(12, s)
                    for s in (0, 1, 2))
    variation = {}
    proxy_ok = True
    for s in (0, 1, 2):
        vals = [neumann.neumann_operator_norm_proxy_exact(d, s) for d in (10, 20, 40)]
        variation[s] = max(vals) / min(vals)
        proxy_ok &= variation[s] < 2.0
    passed = worst_resid <= 1e-8 and unique_ok and proxy_ok
    return CriterionResult(
        9, "Neumann solve: residual, uniqueness, stable operator norm", passed,
        {"max_residual": f"{worst_resid:.2e}",
         "exact_positive_definite": unique_ok,
         "norm_variation": {k: f"{v:.4f}" for k, v in variation.items()}})


# -- 10: canonical solutions match analytic oracles ---------------------------------


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 10)
    f_const = forms.FormPoly(1, 1, {(1,): forms.CPolynomial.const(1, 1)})
    worst_zbar = 0.0
    for s in (0, 1, 2):
        cx = neumann.DiscreteComplex.build(12, s)
        sol = neumann.canonical_solve_dbar(f_const, cx=cx)
        expect = np.zeros(cx.basis.dim, dtype=complex)
        expect[cx.basis.index_of(0, 1)] = 1.0
        worst_zbar = max(worst_zbar, float(np.max(np.abs(sol.coeffs - expect))))
    cx0 = neumann.DiscreteComplex.build(12, 0)
    fz = forms.FormPoly(1, 1, {(1,): forms.CPolynomial.z(1, 1)})
    sol = neumann.canonical_solve_dbar(fz, cx=cx0)
    expect = np.zeros(cx0.basis.dim, dtype=complex)
    expect[cx0.basis.index_of(1, 1)] = 1.0
    expect[cx0.basis.index_of(0, 0)] = -0.5
    err_zzbar = float(np.max(np.abs(sol.coeffs - expect)))
    worst_match = 0.0
    for s in (0, 1, 2):
        cx = neumann.DiscreteComplex.build(12, s)
        for _ in range(10):
            f = (rng.standard_normal(cx.form_basis.dim)
                 + 1j * rng.standard_normal(cx.form_basis.dim))
            ns = neumann.neumann_solve(f, cx=cx)
            worst_match = max(worst_match, ns.canonical_match)
    passed = worst_zbar <= 1e-8 and err_zzbar <= 1e-8 and worst_match <= 1e-8
    return CriterionResult(
        10, "canonical solutions: dzbar -> zbar, z dzbar -> z zbar - 1/2", passed,
        {"zbar_error": f"{worst_zbar:.2e}", "zzbar_error": f"{err_zzbar:.2e}",
         "adjoint_of_neumann_match": f"{worst_match:.2e}"})


# -- 11: the boundary blow-up family -------------------------------------------------


def criterion_11(seed: int = DEFAULT_SEED) -> CriterionResult:
    eps_list = [2.0 ** (-k) for k in range(3, 11)]
    details = {}
    passed = True
    for s in (1, 2):
        rep = neumann.blowup_experiment(s, eps_list)
        slope_ok = -0.35 <= rep.slope <= -0.15
        norm_ok = rep.norm_ratio <= 1.5
        passed &= slope_ok and norm_ok
        details[f"s={s}"] = (f"slope {rep.slope:.4f}, norm ratio {rep.norm_ratio:.3f}")
    return CriterionResult(11, "boundary pairing blows up like eps^(-1/4), norms stay bounded",
                           passed, details)


# -- 12: the cutoff projection lands in the adjoint domain ----------------------------


def criterion_12(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 12)
    geom = geometry.default_geometry()
    eps = 0.1
    worst = 0.0
    for _ in range(10):
        comp = forms.random_cpolynomial(rng, 1, 5)
        if comp.is_zero():
            comp = forms.CPolynomial.z(1, 1)
        phi = forms.FormPoly(1, 1, {(1,): comp})
        phi_field = geometry.SampledField.from_polynomial(geom, comp)
        for s in (1, 2):
            psi = neumann.domain_projection(phi, s, eps, geom)
            resid = neumann.check_domain_condition(phi_field - psi, s,
                                                   spacing=eps / 16.0)
            worst = max(worst, resid)
    return CriterionResult(12, "projected forms satisfy the boundary domain condition",
                           worst <= 1e-5,
                           {"max_residual": f"{worst:.2e}", "tolerance": 1e-5})


# -- 13: the adjoint-correction operator on the disc ----------------------------------


def criterion_13(seed: int = DEFAULT_SEED) -> CriterionResult:
    geom = geometry.default_geometry(radial_nodes=1200, angular_nodes=128,
                                     refine_depth=8)
    op = bvp.DiscKOperator(geom)
    interior = geometry.SampledField.from_polar(
        geom, lambda r, t: geometry.plateau_bump(r / 0.5) * np.exp(1j * t))
    k_interior = float(np.max(np.abs(op.apply(interior).values)))

    omega = op.solve_with_boundary_data(np.ones(geom.n_theta))
    exact = (bvp.bessel_i_series(0, geom.r)
             / bvp.bessel_i_series_derivative(0, np.array([1.0]))[0])
    bessel_err = float(np.max(np.abs(omega.values[:, 0] - exact)))

    # Oscillatory boundary family: e^{i m theta} times a fixed radial plateau
    # (1 for r >= 0.55, 0 for r <= 0.1).  The localization is what makes the
    # W^2 norms finite: the bare phases are not twice differentiable at the
    # origin.
    ratios = []
    for m in range(1, 33):
        psi = geometry.SampledField.from_polar(
            geom, lambda r, t, m=m: geometry.plateau_bump((1 - r) / 0.9)
            * np.exp(1j * m * t))
        k_psi = op.apply(psi)
        ratios.append(geometry.ws_norm_sampled(k_psi, 1)
                      / geometry.ws_norm_sampled(psi, 2))
    ratio_spread = max(ratios) / min(ratios)
    passed = k_interior <= 1e-10 and bessel_err <= 1e-6 and ratio_spread <= 4.0
    return CriterionResult(
        13, "adjoint correction: locality, Bessel oracle, order-1 boundedness", passed,
        {"interior_K": f"{k_interior:.2e}", "bessel_error": f"{bessel_err:.2e}",
         "ratio_spread_m=1..32": f"{ratio_spread:.3f}"})


# -- 14: the one-dimensional boundary value problem ------------------------------------


def criterion_14(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = _rng(seed, 14)
    worst = 0.0
    for s in (1, 2, 3):
        for _ in range(5):
            prob, exact = bvp.manufactured_interval_problem(s, rng)
            sol = bvp.solve_interval(prob)
            xs = np.linspace(0.0, 1.0, 41)
            worst = max(worst, float(np.max(np.abs(sol.evaluate(xs)
                                                   - exact.evaluate(xs)))))
    ratios_ok = True
    ratio_info = {}
    for s in (1, 2):
        prob, exact = bvp.manufactured_interval_problem(s, rng, with_lower_order=False)
        errs = []
        for n in (64, 128, 256):
            x, u = bvp.solve_interval_fd(prob, n)
            errs.append(float(np.max(np.abs(u - exact.evaluate(x)))))
        pair_ratios = [errs[i] / errs[i + 1] for i in range(2)]
        ratio_info[f"s={s}"] = [f"{r:.2f}" for r in pair_ratios]
        ratios_ok &= all(3.5 <= r <= 4.5 for r in pair_ratios)
    passed = worst <= 1e-10 and ratios_ok
    return CriterionResult(
        14, "interval problem: exact basis recovery and second-order FD", passed,
        {"max_manufactured_error": f"{worst:.2e}", "fd_ratios": ratio_info})


CRITERIA = [
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05,
    criterion_06, criterion_07, criterion_08, criterion_09, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14,
]


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number must lie in 1..{len(CRITERIA)}")
    return CRITERIA[number - 1](seed)

