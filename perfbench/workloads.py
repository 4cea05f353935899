"""The four benchmark workloads.

A workload is set up from a seed, then serves rounds of requests.  Every
round of a workload has the same request mix; the seed draws the inputs and
the order within a round.  The runner serves a fixed number of whole rounds,
set by the measuring time and the workload's nominal round time ``round_s``
(``run.rounds_for``), so a seed always gets the same requests.

Each request is a ``Request``: ``call`` is the timed call into the program and
``check`` turns its result into an ``Outcome`` (checks are not timed).  Only
``galerkin_session`` declares an exception a known defect; in ``galerkin_cli``
the breakdown is a nonzero exit of the child process.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.special

import checks
import inputs
from checks import Outcome
from dbarn import bvp, ellipticity, forms, geometry, neumann, sobolev

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"
WORKER = HERE / "cli_worker.py"
CHILD_TIMEOUT_S = 120.0


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


class Workload:
    """A named request mix: ``setup(rng)``, then ``round(i)`` any number of times,
    then ``close()``."""

    name = ""
    criteria: tuple[int, ...] = ()   # acceptance criteria the traced run times
    tracer = None                    # set for the traced round (used by galerkin_cli)
    requests_in_children = False     # peak memory is then the largest child's
    prepared_rounds = 2              # rounds of distinct seeded inputs; later rounds reuse them
    round_s: float                   # nominal seconds of one round on a 2-core x86-64 host
    # Exceptions that are a known defect of the program: a request that raises
    # one has failed.  Any other exception from a request is a wrong answer.
    known_exceptions: tuple[type[BaseException], ...] = ()

    def close(self) -> None:
        """Remove whatever the workload wrote."""


def reset_gram_cache() -> None:
    """Empty the program's Gram cache so that a repeated set-up starts cold."""
    cache = getattr(sobolev, "_GRAM_CACHE", None)
    if cache is None:
        raise checks.HarnessError("dbarn.sobolev has no _GRAM_CACHE to reset; "
                                  "update reset_gram_cache for the new cache")
    cache.clear()


# -- exact_certify -----------------------------------------------------------------


def _cpoly(n: int, terms: list[inputs.Term]):
    return forms.CPolynomial(n, {(a, b): forms.CRational(re, im) for re, im, a, b in terms})


def _formpoly(n: int, q: int, comps: dict[tuple[int, ...], list[inputs.Term]]):
    return forms.FormPoly(n, q, {J: _cpoly(n, t) for J, t in comps.items()})


class ExactCertify(Workload):
    """Exact rational certification: heavy proxy / positive-definiteness requests
    among light exact form identities (criteria 1, 2, 6, 7)."""

    name = "exact_certify"
    criteria = (1, 2, 3, 4, 6, 7, 9)
    round_s = 9.0
    # Heavy requests per round, slowest first.  d = 40 requests take up to 28 s
    # each, d = 30 at s >= 1 up to 9 s and the d = 20, s = 2 proxy 3 s; they
    # would not fit a run, so they are timed in the traced criterion-9 probe.
    # Three requests of 1.3-2 s lead, then five copies of one 0.5 s request: in
    # a run of two rounds the tail (the 11th slowest request) is the median of
    # those ten copies, not a step between two costs.
    HEAVY = ([("proxy", 30, 0), ("pd", 20, 2), ("proxy", 20, 1)]
             + [("proxy", 20, 0)] * 5
             + [("pd", 20, 1), ("proxy", 10, 2), ("pd", 30, 0), ("pd", 10, 2),
                ("proxy", 10, 1), ("pd", 20, 0), ("pd", 10, 1), ("proxy", 10, 0),
                ("pd", 10, 0)])
    # Light requests per round (criteria 1, 2, 6 and 7).  The median request
    # is one of the 48 dbar2 (q = 1) and theta2 (q = 2) requests of about
    # 0.3 ms, so p50 sits inside a group of like costs.
    LIGHT_MIX = {"dbar2": 48, "theta2": 48, "box": 24, "inner_s": 24, "greens": 24}

    def setup(self, rng: np.random.Generator) -> None:
        refs = checks.load_references()["neumann_operator_norm_proxy_exact"]
        self.references = {tuple(int(x) for x in key.split(",")): value
                           for key, value in refs.items()}
        self.box_constant = forms.CRational(Fraction(-1, 4), Fraction(0))
        self.rounds = []
        for _ in range(self.prepared_rounds):
            light = [(kind, self._light_input(rng, kind, i))
                     for kind, count in self.LIGHT_MIX.items() for i in range(count)]
            items = light + [(kind, (d, s)) for kind, d, s in self.HEAVY]
            self.rounds.append([items[i] for i in rng.permutation(len(items))])

    @staticmethod
    def _light_input(rng: np.random.Generator, kind: str, i: int):
        """Seeded input of the i-th light request of a kind (criteria 1, 2, 6, 7).

        Every term has a fixed total degree, so the light requests' cost does
        not swing with the seed."""
        if kind == "dbar2":
            return _formpoly(3, i % 2, inputs.random_form_terms(rng, 3, i % 2, 4))
        if kind == "theta2":
            return _formpoly(3, 2 + i % 2, inputs.random_form_terms(rng, 3, 2 + i % 2, 4))
        if kind == "box":
            return _formpoly(3, i % 4, inputs.random_form_terms(rng, 3, i % 4, 3))
        degree, s = (4, 1 + i % 3) if kind == "inner_s" else (3, i % 3)
        return tuple(_cpoly(1, inputs.random_terms(rng, 1, degree, min_total_degree=degree))
                     for _ in range(2)) + (s,)

    def round(self, index: int) -> list[Request]:
        return [self._request(kind, arg)
                for kind, arg in self.rounds[index % self.prepared_rounds]]

    def _request(self, kind: str, arg) -> Request:
        if kind == "dbar2":
            return Request(kind, lambda: forms.dbar(forms.dbar(arg)),
                           lambda out: checks.exact(out.is_zero(), "dbar dbar phi != 0"))
        if kind == "theta2":
            return Request(kind, lambda: forms.theta(forms.theta(arg)),
                           lambda out: checks.exact(out.is_zero(), "theta theta psi != 0"))
        if kind == "box":
            return Request(kind, lambda: forms.box(arg), lambda out: self._check_box(arg, out))
        if kind == "inner_s":
            f, g, s = arg
            return Request(kind, lambda: (sobolev.inner_s_direct(f, g, s),
                                          sobolev.inner_s_recursive(f, g, s)),
                           self._check_inner)
        if kind == "greens":
            phi, psi, s = arg
            return Request(kind, lambda: neumann.greens_identity_check(phi, psi, s),
                           lambda out: checks.exact(out.residual <= checks.GREENS_TOL,
                                                    f"Green residual {out.residual:.3g}"))
        d, s = arg
        if kind == "proxy":
            ref = self.references[(d, s)]
            return Request(f"proxy d={d}", lambda: neumann.neumann_operator_norm_proxy_exact(d, s),
                           lambda out: checks.check_proxy(out, ref))
        return Request(f"pd d={d}", lambda: neumann.verify_gram_positive_definite_exact(d, s),
                       lambda out: checks.exact(out is True, f"Gram d={d} s={s} not certified"))

    def _check_box(self, phi, out) -> Outcome:
        for J in set(phi.comps) | set(out.comps):
            expect = forms.laplacian(phi.component(J)).scale(self.box_constant)
            if out.component(J) != expect:
                return checks.exact(False, f"box component {J} is not -1/4 Laplacian")
        return Outcome(True)

    @staticmethod
    def _check_inner(out) -> Outcome:
        a, b = out
        rel = abs(a - b) / max(abs(a), abs(b), 1e-30)
        return checks.exact(rel <= checks.INNER_REL_TOL, f"direct vs recursive {rel:.3g}")


# -- galerkin_session ------------------------------------------------------------


class GalerkinSession(Workload):
    """One long-lived process: warm Gram cache, float solves through s=, d=."""

    name = "galerkin_session"
    criteria = (8, 10)
    round_s = 0.6
    # The float breakdown (ROADMAP item 3): a Gram that is not numerically
    # positive definite or a singular dbar normal matrix raises ValueError.
    known_exceptions = (ValueError,)
    # Whether the adjoint contract meets 1e-12 at d = 12-16 depends on the
    # random pairs; more distinct inputs per run steady the solved share.
    prepared_rounds = 8
    DEGREES = (4, 8, 12, 16, 20, 24)
    ORDERS = (0, 1, 2)

    def setup(self, rng: np.random.Generator) -> None:
        reset_gram_cache()
        self.complexes = {(d, s): neumann.DiscreteComplex.build(d, s)
                          for d in self.DEGREES for s in self.ORDERS}
        # Warm-up: factor every Gram once, as the first solve would.  Where the
        # float factorization breaks down it raises on every call, warm or not.
        for cx in self.complexes.values():
            for gram in (cx.gram, cx.form_gram):
                try:
                    gram.cholesky()
                except ValueError:
                    pass
        self.rounds = []
        for _ in range(self.prepared_rounds):
            items = []
            for d in self.DEGREES:
                for s in self.ORDERS:
                    nf, nu = inputs.form_dim(d), inputs.function_dim(d)
                    items.append(("neumann", d, s, inputs.complex_vector(rng, nf)))
                    items.append(("canonical", d, s, inputs.complex_vector(rng, nf)))
                    items.append(("hodge", d, s, inputs.complex_vector(rng, nu)))
                    items.append(("adjoint", d, s, [(inputs.complex_vector(rng, nu),
                                                     inputs.complex_vector(rng, nf))
                                                    for _ in range(2)]))
            self.rounds.append([items[i] for i in rng.permutation(len(items))])

    def round(self, index: int) -> list[Request]:
        return [self._request(*item) for item in self.rounds[index % self.prepared_rounds]]

    def _request(self, kind: str, d: int, s: int, arg) -> Request:
        cx = self.complexes[(d, s)]
        label = f"{kind} d={d} s={s}"
        if kind == "neumann":
            def check(sol) -> Outcome:
                return checks.check_neumann(sol.residual, sol.canonical_match,
                                            bool(np.all(np.isfinite(sol.coeffs))))
            return Request(label, lambda: neumann.neumann_solve(arg, s=s, d=d), check)
        if kind == "canonical":
            def check(sol) -> Outcome:
                fg = cx.form_gram.matrix
                recomputed = (checks.gram_norm(fg, cx.dbar_matrix @ sol.coeffs - arg)
                              / checks.gram_norm(fg, arg))
                return checks.check_canonical(sol.residual, sol.kernel_orthogonality,
                                              recomputed)
            return Request(label, lambda: neumann.canonical_solve_dbar(arg, s=s, d=d), check)
        if kind == "hodge":
            def check(parts) -> Outcome:
                f1, f2 = parts
                split = checks.relative_max_diff(f1 + f2, arg)
                return checks.check_hodge(checks.hodge_defect(cx.gram.matrix, f1, f2), split)
            return Request(label, lambda: neumann.hodge_decompose(arg, s=s, d=d), check)

        def call():
            built = neumann.DiscreteComplex.build(d, s)
            return neumann.adjoint(built.dbar_matrix, built.gram, built.form_gram)

        def check(a_star) -> Outcome:
            g, fg = cx.gram.matrix, cx.form_gram.matrix
            worst = 0.0
            for v, w in arg:
                lhs = complex(np.conj(w) @ (fg @ (cx.dbar_matrix @ v)))
                rhs = complex(np.conj(a_star @ w) @ (g @ v))
                worst = max(worst, abs(lhs - rhs) / (checks.gram_norm(g, v)
                                                     * checks.gram_norm(fg, w)))
            return checks.check_adjoint(worst)
        return Request(label, call, check)


# -- galerkin_cli ------------------------------------------------------------------


class GalerkinCli(Workload):
    """One ``python -m dbarn.cli`` process per request: the Gram cache is always cold.

    The cap grid (d 1..40, s 0..2) is stratified: each round holds one request
    per (d stratum, s), with d at the midpoint of its stratum of width 10 and
    the subcommand rotating with the cell, so every round has the same cost
    and failure mix.  The seed draws the forms and the order.
    """

    name = "galerkin_cli"
    requests_in_children = True
    round_s = 12.0
    DEGREES = (5, 15, 25, 35)
    ORDERS = (0, 1, 2)
    COMMANDS = ("canonical", "neumann", "hodge")

    def __init__(self) -> None:
        self.import_times: list[float] = []
        self.workdir = WORK_DIR / f"cli-{os.getpid()}"

    def setup(self, rng: np.random.Generator) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        # run.py pinned BLAS to one thread in os.environ; children inherit it.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.rounds = []
        for r in range(self.prepared_rounds):
            items = []
            for i, d in enumerate(self.DEGREES):
                for s in self.ORDERS:
                    path = self.workdir / f"r{r}-d{d}-s{s}.form"
                    path.write_text(inputs.cli_form_text(rng, d))
                    items.append((self.COMMANDS[(i + s) % 3], s, d, path))
            self.rounds.append([items[i] for i in rng.permutation(len(items))])
        warm = self.workdir / "warmup.form"
        warm.write_text(inputs.cli_form_text(rng, 2))
        # One process start as warm-up, so the first timed request does not
        # pay for cold interpreter and library files.
        self._run_cli(["hodge", "--s", "0", "--d", "2", "--f", str(warm)])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _run_cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "dbarn.cli", *argv], env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)

    def _run_worker(self, argv: list[str], request: str) -> tuple[int, str, str]:
        out = self.workdir / f"spans-{request}.json"
        spawned = time.time()
        proc = subprocess.run([sys.executable, str(WORKER), repr(spawned), str(out), *argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0 or not out.exists():
            raise checks.HarnessError(f"trace worker failed: {proc.stderr[-2000:]}")
        report = json.loads(out.read_text())
        out.unlink()
        self.tracer.absorb(report["spans"], report["counters"], request)
        self.import_times.append(report["import_s"])
        return report["exit"], report["stdout"], report["error"] or ""

    def round(self, index: int) -> list[Request]:
        return [self._request(*item) for item in self.rounds[index % self.prepared_rounds]]

    def _request(self, command: str, s: int, d: int, path: Path) -> Request:
        argv = [command, "--s", str(s), "--d", str(d), "--f", str(path)]
        label = f"{command} d={d} s={s}"

        def call():
            if self.tracer is not None:
                return self._run_worker(argv, self.tracer.request)
            proc = self._run_cli(argv)
            lines = proc.stderr.strip().splitlines()
            return proc.returncode, proc.stdout, lines[-1] if lines else ""

        return Request(label, call, lambda out: checks.check_cli_record(command, *out))


# -- boundary_analysis ---------------------------------------------------------------


def _bessel_oracle(r: np.ndarray) -> np.ndarray:
    """omega - Lap omega = 0 with unit Neumann datum, radial mode: I0(r) / I1(1)."""
    return scipy.special.i0(r) / scipy.special.i1(1.0)


class BoundaryAnalysis(Workload):
    """The sampled-grid side: disc K operator, blow-up, domain projection,
    ellipticity certification and the interval problem.

    The warm K requests are most of a round, and the cheap kinds come as few
    requests (ellipticity for s = 1..6 in one, the interval problems in one
    each), so the median request sits near the middle of the warm K requests
    rather than among their fastest.
    """

    name = "boundary_analysis"
    criteria = (5, 11, 12, 13, 14)
    round_s = 9.0
    XI_GRID = tuple(np.logspace(-1.0, 1.0, 25))

    def setup(self, rng: np.random.Generator) -> None:
        clear = getattr(geometry.default_geometry, "cache_clear", None)
        if clear is not None:
            clear()
        # Criterion 13's grid and a warm operator on it (every mode solved once).
        self.geom = geometry.DiscGeometry.build(radial_nodes=1200, angular_nodes=128,
                                                refine_depth=8)
        self.op = bvp.DiscKOperator(self.geom)
        for m in range(self.op.mode_max + 1):
            self.op.unit_profile(m)
        self.geom_default = geometry.default_geometry()
        self.ratios: list[float] = []
        self.rounds = []
        for _ in range(self.prepared_rounds):
            items = [("cold_k", self._cold_field(rng)) for _ in range(2)]
            items += [("warm_k", (m, complex(*rng.standard_normal(2)))) for m in range(1, 33)]
            items += [("blowup", s) for s in (1, 2)]
            items += [("domain", (s, inputs.random_terms(rng, 1, 5))) for s in (1, 2)]
            certify = []
            for s in range(1, 7):
                xis = rng.choice(self.XI_GRID, size=8)
                vs = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for _ in xis]
                certify.append((s, list(zip(xis, vs))))
            items.append(("certify", certify))
            items.append(("interval", [bvp.manufactured_interval_problem(s, rng)
                                       for s in (1, 2, 3)]))
            items.append(("interval_fd", [bvp.manufactured_interval_problem(
                s, rng, with_lower_order=False) for s in (1, 2)]))
            self.rounds.append([items[i] for i in rng.permutation(len(items))])
        # Warm-up: one warm request fills the grid's derivative-matrix cache and
        # one blow-up run builds its cached geometry.
        warm = self._request("warm_k", (1, 1.0))
        warm.check(warm.call())
        self.ratios.clear()
        neumann.blowup_experiment(1)

    def _cold_field(self, rng: np.random.Generator):
        modes = rng.choice(np.arange(1, 33), size=3, replace=False)
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        def fn(r, t):
            return geometry.plateau_bump((1 - r) / 0.9) * sum(
                a * np.exp(1j * m * t) for a, m in zip(amps, modes))
        return geometry.SampledField.from_polar(self.geom, fn)

    def round(self, index: int) -> list[Request]:
        return [self._request(kind, arg)
                for kind, arg in self.rounds[index % self.prepared_rounds]]

    def _request(self, kind: str, arg) -> Request:
        if kind == "cold_k":
            def call():
                op = bvp.DiscKOperator(self.geom)
                return op.apply(arg), op.solve_with_boundary_data(np.ones(self.geom.n_theta))
            return Request(kind, call, lambda out: self._check_cold(arg, *out))
        if kind == "warm_k":
            m, amp = arg

            def call():
                psi = geometry.SampledField.from_polar(
                    self.geom, lambda r, t: amp * geometry.plateau_bump((1 - r) / 0.9)
                    * np.exp(1j * m * t))
                k_psi = self.op.apply(psi)
                return geometry.ws_norm_sampled(k_psi, 1) / geometry.ws_norm_sampled(psi, 2)
            return Request(kind, call, self._check_ratio)
        if kind == "blowup":
            return Request(kind, lambda: neumann.blowup_experiment(arg), self._check_blowup)
        if kind == "domain":
            s, terms = arg
            comp = _cpoly(1, terms)

            def call():
                phi = forms.FormPoly(1, 1, {(1,): comp})
                field = geometry.SampledField.from_polynomial(self.geom_default, comp)
                psi = neumann.domain_projection(phi, s, 0.1, self.geom_default)
                return neumann.check_domain_condition(field - psi, s, spacing=0.1 / 16.0)

            def check(resid) -> Outcome:
                evidence = {"neumann.check_domain_condition.max_residual": resid}
                if checks.within(resid, checks.DOMAIN_TOL):
                    return Outcome(True, evidence=evidence)
                return checks.failed(f"domain residual {resid:.3g}", **evidence)
            return Request(kind, call, check)
        if kind == "certify":
            def call():
                return [(s, ellipticity.certify_trivial_kernel(s, self.XI_GRID),
                         [ellipticity.quadratic_form(s, float(xi), v) for xi, v in samples])
                        for s, samples in arg]

            def check(out) -> Outcome:
                for s, report, values in out:
                    if not (report.passed and all(v > 0.0 for v in values)):
                        return checks.exact(False, f"ellipticity s={s} not certified")
                return Outcome(True)
            return Request(kind, call, check)
        if kind == "interval":
            xs = np.linspace(0.0, 1.0, 41)

            def check(solutions) -> Outcome:
                for sol, (_, exact) in zip(solutions, arg):
                    err = float(np.max(np.abs(sol.evaluate(xs) - exact.evaluate(xs))))
                    if not checks.within(err, checks.INTERVAL_TOL):
                        return checks.failed(f"interval error {err:.3g}")
                return Outcome(True)
            return Request(kind, lambda: [bvp.solve_interval(problem) for problem, _ in arg],
                           check)

        def call():
            return [[bvp.solve_interval_fd(problem, n) for n in (64, 128, 256)]
                    for problem, _ in arg]

        def check(runs) -> Outcome:
            lo, hi = checks.FD_RATIO
            for solutions, (_, exact) in zip(runs, arg):
                errs = [float(np.max(np.abs(u - exact.evaluate(x)))) for x, u in solutions]
                ratios = [errs[i] / errs[i + 1] for i in range(2)]
                if not all(lo <= r <= hi for r in ratios):
                    return checks.failed(f"FD convergence ratios {ratios}")
            return Outcome(True)
        return Request(kind, call, check)

    def _check_cold(self, field, k_field, omega) -> Outcome:
        bessel = float(np.max(np.abs(omega.values[:, 0] - _bessel_oracle(self.geom.r))))
        agree = checks.relative_max_diff(k_field.values, self.op.apply(field).values)
        evidence = {"bvp.bessel_error": bessel}
        if not checks.within(bessel, checks.BESSEL_TOL):
            return checks.failed(f"Bessel oracle error {bessel:.3g}", **evidence)
        if not checks.within(agree, checks.COLD_WARM_REL_TOL):
            return checks.failed(f"cold K differs from warm K by {agree:.3g}", wrong=True,
                                 **evidence)
        return Outcome(True, evidence=evidence)

    def _check_ratio(self, ratio: float) -> Outcome:
        if not (math.isfinite(ratio) and ratio > 0.0):
            return checks.failed(f"K ratio {ratio!r}")
        self.ratios.append(ratio)
        spread = max(self.ratios) / min(self.ratios)
        if spread <= checks.K_RATIO_SPREAD:
            return Outcome(True)
        return checks.failed(f"K ratio spread {spread:.3f} over the family")

    @staticmethod
    def _check_blowup(report) -> Outcome:
        lo, hi = checks.BLOWUP_SLOPE
        if lo <= report.slope <= hi and report.norm_ratio <= checks.BLOWUP_NORM_RATIO:
            return Outcome(True)
        return checks.failed(f"blow-up slope {report.slope:.4f}, "
                             f"norm ratio {report.norm_ratio:.3f}")


WORKLOADS = {cls.name: cls for cls in (ExactCertify, GalerkinCli, GalerkinSession,
                                       BoundaryAnalysis)}
