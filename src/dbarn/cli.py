"""Command-line front end: one experiment per invocation, JSON/CSV artifacts.

Subcommands: identities | ellipticity | bvp1d | kop | canonical | neumann |
hodge | greens | blowup | verify-all.  A plain-text config file (key = value)
can pre-set any flag of the chosen subcommand; explicit flags win.  Every run
records its seed and every emitted check carries its tolerance next to the
value.  The exit code is 0 exactly when all internal checks pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance, bvp, ellipticity, forms, geometry, neumann
from .acceptance import DEFAULT_SEED
from .sobolev import MonomialBasis

SCHEMA_VERSION = 1

CAPS = {
    "s_ellipticity": (1, 6),
    "s_sobolev": (0, 4),
    "s_neumann": (0, 2),
    "s_bvp": (1, 3),
    "d": (1, 40),
    # kop grid: the lower ends are DiscGeometry's; at the upper ends a kop
    # --input run peaks near 0.8 GB
    "radial_nodes": (16, 4800),
    "angular_nodes": (8, 1024),
}


@dataclass
class RunConfig:
    subcommand: str
    seed: int = DEFAULT_SEED
    s: int | None = None
    d: int = 12
    radial_nodes: int = 1200
    angular_nodes: int = 128
    boundary_refine_depth: int = 8
    xi_min: float = 0.1
    xi_max: float = 10.0
    points: int | None = None
    eps_min: float = 2.0**-10
    eps_max: float = 2.0**-3
    delta: float = 0.5
    trials: int = 20
    mode_max: int | None = None
    fd_nodes: int = 128
    input: str | None = None
    out: str | None = None
    csv_out: str | None = None
    criteria: str | None = None


def _check_cap(name: str, value: int, cap_key: str) -> None:
    lo, hi = CAPS[cap_key]
    if not lo <= value <= hi:
        raise SystemExit(f"error: {name}={value} is outside the supported "
                         f"range {lo}..{hi}")


def _check_count(name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise SystemExit(f"error: {name}={value} must be at least {minimum}")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"error: cannot read {what} {path}: {exc}") from None


def _read_config_file(path: str) -> dict:
    out = {}
    for line_no, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"error: {path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _load_form(config: RunConfig, max_degree: int | None = None) -> forms.FormPoly:
    if not config.input:
        raise SystemExit("error: this subcommand needs --f/--input pointing at a "
                         "form file (see README for the format)")
    text = _read_text(config.input, "form file")
    try:
        phi = forms.form_from_text(text)
    except (ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: {config.input} is not a valid form file: {exc}") from None
    if phi.n != 1 or phi.q != 1:
        raise SystemExit("error: disc experiments expect a (0,1)-form in one "
                         "complex variable")
    degree = phi.component((1,)).degree()
    if max_degree is not None and degree > max_degree:
        raise SystemExit(f"error: the input form has degree {degree}; {config.subcommand} "
                         f"at --d {config.d} takes forms of degree at most {max_degree}")
    return phi


def _emit(config: RunConfig, payload: dict, rows: list[dict] | None = None,
          columns: tuple[str, ...] | None = None) -> int:
    """Print (and with --out write) the JSON record; with --csv write the rows.

    A table that can be empty passes its columns, so it writes only a header."""
    payload = {"schema": SCHEMA_VERSION, "subcommand": config.subcommand,
               "seed": config.seed, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2, default=str)
    if config.out:
        Path(config.out).write_text(text + "\n")
    print(text)
    if rows is not None and config.csv_out:
        with open(config.csv_out, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns or list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    ok = payload.get("pass", True)
    print(f"{config.subcommand}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- subcommand handlers ---------------------------------------------------------


def _cmd_identities(config: RunConfig) -> int:
    results = [acceptance.run_criterion(k, config.seed) for k in (1, 2, 3, 4)]
    payload = {
        "pass": all(r.passed for r in results),
        "results": [{"criterion": r.number, "name": r.name, "pass": r.passed,
                     "details": r.details} for r in results],
    }
    return _emit(config, payload)


def _cmd_ellipticity(config: RunConfig) -> int:
    s = config.s if config.s is not None else 2
    _check_cap("--s", s, "s_ellipticity")
    points = config.points if config.points is not None else 25
    _check_count("--points", points, 1)
    if not 0.0 < config.xi_min <= config.xi_max:
        raise SystemExit("error: the frequency range needs 0 < --xi-min <= --xi-max")
    grid = np.logspace(math.log10(config.xi_min), math.log10(config.xi_max), points)
    report = ellipticity.certify_trivial_kernel(s, grid)
    rows = [{"xi": smp.xi, "det": smp.det, "det_scaled": smp.det_scaled,
             "pass": smp.passed} for smp in report.samples]
    payload = {
        "s": s,
        "threshold": report.threshold,
        "pass": report.passed,
        "samples": rows,
    }
    return _emit(config, payload, rows)


def _cmd_bvp1d(config: RunConfig) -> int:
    s = config.s if config.s is not None else 1
    _check_cap("--s", s, "s_bvp")
    _check_count("--fd-nodes", config.fd_nodes, 6 * s)
    rng = np.random.default_rng(config.seed)
    problem, exact = bvp.manufactured_interval_problem(s, rng)
    sol = bvp.solve_interval(problem)
    xs = np.linspace(0.0, 1.0, 41)
    err = float(np.max(np.abs(sol.evaluate(xs) - exact.evaluate(xs))))
    fd_prob, fd_exact = bvp.manufactured_interval_problem(s, rng,
                                                          with_lower_order=False)
    errs = []
    for n in (config.fd_nodes, 2 * config.fd_nodes):
        x, u = bvp.solve_interval_fd(fd_prob, n)
        errs.append(float(np.max(np.abs(u - fd_exact.evaluate(x)))))
    ratio = errs[0] / errs[1]
    payload = {
        "s": s,
        "manufactured_error": {"value": err, "tolerance": 1e-10},
        "boundary_residual": {"value": sol.max_boundary_residual, "tolerance": 1e-10},
        "collocation_condition": sol.condition,
        "fd_convergence_ratio": {"value": ratio, "window": [3.5, 4.5]},
        "pass": err <= 1e-10 and sol.max_boundary_residual <= 1e-10
                and 3.5 <= ratio <= 4.5,
    }
    return _emit(config, payload)


def _cmd_kop(config: RunConfig) -> int:
    _check_cap("--radial-nodes", config.radial_nodes, "radial_nodes")
    _check_cap("--angular-nodes", config.angular_nodes, "angular_nodes")
    top = config.angular_nodes // 2
    if config.mode_max is not None and not 0 <= config.mode_max <= top:
        raise SystemExit(f"error: --mode-max={config.mode_max} is outside the range "
                         f"0..{top} of a {config.angular_nodes}-node angular grid")
    try:
        geom = geometry.default_geometry(config.radial_nodes, config.angular_nodes,
                                         config.boundary_refine_depth)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    op = bvp.DiscKOperator(geom, mode_max=config.mode_max)
    omega = op.solve_with_boundary_data(np.ones(geom.n_theta))
    exact = (bvp.bessel_i_series(0, geom.r)
             / bvp.bessel_i_series_derivative(0, np.array([1.0]))[0])
    bessel_err = float(np.max(np.abs(omega.values[:, 0] - exact)))
    payload = {
        "mode_max": op.mode_max,
        "bessel_oracle_error": {"value": bessel_err, "tolerance": 1e-6},
        "pass": bessel_err <= 1e-6,
    }
    if config.input:
        psi = _load_form(config)
        field = geometry.SampledField.from_polynomial(geom, psi.component((1,)))
        result = op.apply(field)
        data = op.boundary_data(field)
        hat = np.abs(np.fft.fft(data) / geom.n_theta)
        wavenumbers = geom.theta_wavenumbers().astype(int)
        payload["input"] = config.input
        payload["solution_w1_norm"] = geometry.ws_norm_sampled(result, 1)
        payload["modes"] = [{"mode": int(m), "data_amplitude": float(hat[i])}
                            for i, m in enumerate(wavenumbers) if hat[i] > 1e-14]
        if config.csv_out:
            result.to_csv(config.csv_out)  # columns r, theta, re, im
    return _emit(config, payload)


FORM_COLUMNS = ("z_power", "zbar_power", "re", "im")


def _form_rows(basis, coeffs: np.ndarray) -> list[dict]:
    """Every nonzero coefficient, since the certificates are exact on all of
    them: at high degree the ones below 1e-13 carry enough W^s norm to move the
    residual of a Neumann solution from 1e-15 to 1e-10."""
    rows = []
    for i, (a, b) in enumerate(basis.exponents):
        c = complex(coeffs[i])
        if c:
            rows.append(dict(zip(FORM_COLUMNS, (a, b, c.real, c.imag))))
    return rows


# canonical, neumann and hodge take an exact form, so they solve exactly, one
# charge block at a time, and certify the float64 coefficients they print
# exactly (see neumann's exact per-charge solves).


def _cmd_canonical(config: RunConfig) -> int:
    s = config.s if config.s is not None else 1
    _check_cap("--s", s, "s_neumann")
    _check_cap("--d", config.d, "d")
    phi = _load_form(config, max_degree=config.d - 1)
    sol = neumann.canonical_solve_dbar(phi, s=s, d=config.d)
    rows = _form_rows(MonomialBasis(config.d), sol.coeffs)
    payload = {
        "s": s, "d": config.d,
        "residual": {"value": sol.residual, "tolerance": 1e-10},
        "kernel_orthogonality": {"value": sol.kernel_orthogonality, "tolerance": 1e-10},
        "pass": sol.residual <= 1e-10 and sol.kernel_orthogonality <= 1e-10,
        "solution": rows,
    }
    return _emit(config, payload, rows, columns=FORM_COLUMNS)


def _cmd_neumann(config: RunConfig) -> int:
    s = config.s if config.s is not None else 1
    _check_cap("--s", s, "s_neumann")
    _check_cap("--d", config.d, "d")
    phi = _load_form(config, max_degree=config.d - 1)
    sol = neumann.neumann_solve(phi, s=s, d=config.d)
    rows = _form_rows(MonomialBasis(config.d - 1), sol.coeffs)
    payload = {
        "s": s, "d": config.d,
        "residual": {"value": sol.residual, "tolerance": 1e-8},
        "norm_ratio": sol.norm_ratio,
        "canonical_match": {"value": sol.canonical_match, "tolerance": 1e-8},
        "pass": sol.residual <= 1e-8 and sol.canonical_match <= 1e-8,
        "solution": rows,
    }
    return _emit(config, payload, rows, columns=FORM_COLUMNS)


def _cmd_hodge(config: RunConfig) -> int:
    s = config.s if config.s is not None else 1
    _check_cap("--s", s, "s_neumann")
    _check_cap("--d", config.d, "d")
    phi = _load_form(config, max_degree=config.d)
    f1, f2 = neumann.hodge_decompose(phi, s=s, d=config.d)
    (g11, g12), (_, g22) = neumann.coefficient_gram_exact([f1, f2], config.d, s)
    n1, n2 = math.sqrt(math.pi * g11.re), math.sqrt(math.pi * g22.re)
    # |<f1, f2>_s| / (|f1|_s |f1 + f2|_s): the printed range part's component
    # along the remainder, relative to the input.  Dividing by |f2|_s instead
    # would measure the float64 rounding of f1 against a remainder that can be
    # 1e-8 of f at the top degree, and fail correctly rounded splits.
    total = g11.re + 2 * g12.re + g22.re
    ortho = math.sqrt((g12.re**2 + g12.im**2) / (g11.re * total)) if g11.re else 0.0
    basis = MonomialBasis(config.d)
    parts = {"range": _form_rows(basis, f1), "orthogonal": _form_rows(basis, f2)}
    payload = {
        "s": s, "d": config.d,
        "range_part_norm": n1,
        "orthogonal_part_norm": n2,
        "orthogonality_defect": {"value": ortho, "tolerance": 1e-10},
        "pass": ortho <= 1e-10,
        "range_part": parts["range"],
        "orthogonal_part": parts["orthogonal"],
    }
    rows = [{"part": part, **row} for part, part_rows in parts.items() for row in part_rows]
    return _emit(config, payload, rows, columns=("part",) + FORM_COLUMNS)


def _cmd_greens(config: RunConfig) -> int:
    s = config.s if config.s is not None else 1
    if not 0 <= s <= 2:
        raise SystemExit("error: --s must lie in 0..2 for the exact identity check")
    _check_count("--trials", config.trials, 1)
    rng = np.random.default_rng(config.seed)
    rows = []
    worst = 0.0
    for trial in range(config.trials):
        phi = forms.random_cpolynomial(rng, 1, 4)
        psi = forms.random_cpolynomial(rng, 1, 4)
        res = neumann.greens_identity_check(phi, psi, s)
        worst = max(worst, res.residual)
        rows.append({"trial": trial, "lhs_re": res.lhs.real,
                     "boundary_re": res.boundary.real, "residual": res.residual})
    payload = {
        "s": s, "trials": config.trials,
        "max_residual": {"value": worst, "tolerance": 1e-10},
        "pass": worst <= 1e-10,
    }
    return _emit(config, payload, rows)


def _cmd_blowup(config: RunConfig) -> int:
    s = config.s if config.s is not None else 1
    if s not in (1, 2):
        raise SystemExit("error: --s must be 1 or 2 for the blow-up experiment")
    if not 2.0**-12 <= config.eps_min <= config.eps_max <= 2.0**-3:
        raise SystemExit("error: eps range must lie inside [2^-12, 2^-3]")
    count = config.points if config.points is not None else 8
    _check_count("--points", count, 2)  # the slope needs two points
    eps_list = list(np.geomspace(config.eps_max, config.eps_min, count))
    rep = neumann.blowup_experiment(s, eps_list, delta=config.delta)
    rows = [{"eps": row.eps, "norm": row.norm, "pairing": row.pairing}
            for row in rep.rows]
    payload = {
        "s": s, "delta": config.delta, "test_form": rep.test_form,
        "slope": {"value": rep.slope, "window": [-0.35, -0.15]},
        "norm_ratio": {"value": rep.norm_ratio, "tolerance": 1.5},
        "pairing_monotone": rep.pairing_monotone,
        "rows": rows,
        "pass": -0.35 <= rep.slope <= -0.15 and rep.norm_ratio <= 1.5,
    }
    return _emit(config, payload, rows)


def _cmd_verify_all(config: RunConfig) -> int:
    if config.criteria:
        try:
            numbers = sorted({int(tok) for tok in config.criteria.split(",")})
        except ValueError:
            raise SystemExit(f"error: --criteria {config.criteria!r} is not a "
                             "comma-separated list of numbers") from None
        bad = [k for k in numbers if not 1 <= k <= len(acceptance.CRITERIA)]
        if bad:
            raise SystemExit(f"error: --criteria {bad[0]} is outside "
                             f"1..{len(acceptance.CRITERIA)}")
    else:
        numbers = list(range(1, len(acceptance.CRITERIA) + 1))
    results = []
    for k in numbers:
        res = acceptance.run_criterion(k, config.seed)
        print(res.summary())
        results.append(res)
    payload = {
        "pass": all(r.passed for r in results),
        "results": [{"criterion": r.number, "name": r.name, "pass": r.passed,
                     "details": r.details} for r in results],
    }
    text = json.dumps({"schema": SCHEMA_VERSION, "subcommand": "verify-all",
                       "seed": config.seed, **payload},
                      sort_keys=True, indent=2, default=str)
    if config.out:
        Path(config.out).write_text(text + "\n")
    ok = payload["pass"]
    print(f"verify-all: {'pass' if ok else 'FAIL'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria)")
    return 0 if ok else 1


HANDLERS = {
    "identities": _cmd_identities,
    "ellipticity": _cmd_ellipticity,
    "bvp1d": _cmd_bvp1d,
    "kop": _cmd_kop,
    "canonical": _cmd_canonical,
    "neumann": _cmd_neumann,
    "hodge": _cmd_hodge,
    "greens": _cmd_greens,
    "blowup": _cmd_blowup,
    "verify-all": _cmd_verify_all,
}


CSV_HELP = """\
CSV columns by subcommand:
  ellipticity:        xi, det, det_scaled, pass
  canonical/neumann:  z_power, zbar_power, re, im   (solution coefficients)
  hodge:              part, z_power, zbar_power, re, im
                      (part is range or orthogonal)
  greens:             trial, lhs_re, boundary_re, residual
  blowup:             eps, norm, pairing
  kop (with --input): r, theta, re, im              (the solved field)

Thread count: the sampled-grid work is BLAS-level linear algebra; set
OMP_NUM_THREADS / OPENBLAS_NUM_THREADS to control it.  canonical, neumann
and hodge solve exactly on Python integers, in one thread.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbarn",
        description="Weighted-Sobolev dbar-Neumann workbench on the unit disc.",
        epilog=CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key = value file pre-setting any flag "
                                         "(explicit flags win)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, help="random seed (recorded in output)")
        p.add_argument("--out", help="write the JSON record here")
        p.add_argument("--csv", dest="csv_out",
                       help="write the tabular rows as CSV (columns as in JSON rows)")

    p = sub.add_parser("identities", help="exact combinatorial and form identities")
    add_common(p)

    p = sub.add_parser("ellipticity", help="boundary-symbol nonsingularity sweep")
    add_common(p)
    p.add_argument("--s", type=int)
    p.add_argument("--xi-min", type=float, dest="xi_min")
    p.add_argument("--xi-max", type=float, dest="xi_max")
    p.add_argument("--points", type=int)

    p = sub.add_parser("bvp1d", help="interval problem: manufactured + FD check")
    add_common(p)
    p.add_argument("--s", type=int)
    p.add_argument("--fd-nodes", type=int, dest="fd_nodes")

    p = sub.add_parser("kop", help="adjoint-correction operator on the disc (s=1)")
    add_common(p)
    p.add_argument("--radial-nodes", type=int, dest="radial_nodes",
                   help="radial grid resolution (default 1200)")
    p.add_argument("--angular-nodes", type=int, dest="angular_nodes")
    p.add_argument("--boundary-refine-depth", type=int, dest="boundary_refine_depth")
    p.add_argument("--mode-max", type=int, dest="mode_max")
    p.add_argument("--input", "--f", dest="input", help="form file to apply K to")

    for name, blurb in (("canonical", "least-norm solution of dbar u = f"),
                        ("neumann", "solve the weighted form Laplacian"),
                        ("hodge", "range / orthogonal splitting of a form")):
        p = sub.add_parser(name, help=blurb)
        add_common(p)
        p.add_argument("--s", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--f", "--input", dest="input", help="form file")

    p = sub.add_parser("greens", help="exact integration-by-parts residuals")
    add_common(p)
    p.add_argument("--s", type=int)
    p.add_argument("--trials", type=int)

    p = sub.add_parser("blowup", help="boundary pairing blow-up experiment")
    add_common(p)
    p.add_argument("--s", type=int)
    p.add_argument("--eps-min", type=float, dest="eps_min")
    p.add_argument("--eps-max", type=float, dest="eps_max")
    p.add_argument("--points", type=int)
    p.add_argument("--delta", type=float)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    add_common(p)
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def _subcommand_flags(parser: argparse.ArgumentParser, name: str) -> dict:
    """The optional arguments of one subcommand, by destination."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[name]._actions
            if a.option_strings and a.dest != "help"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    values = {k: v for k, v in vars(args).items() if v is not None}
    config_path = values.pop("config", None)
    if config_path:
        flags = _subcommand_flags(parser, args.subcommand)
        for key, raw in _read_config_file(config_path).items():
            if key not in flags:
                raise SystemExit(f"error: unknown config key {key!r} for "
                                 f"{args.subcommand}")
            if key in values:
                continue  # explicit flag wins
            convert = flags[key].type or str
            try:
                values[key] = convert(raw)
            except ValueError:
                raise SystemExit(f"error: {config_path}: {key} = {raw!r} is not "
                                 f"a valid {convert.__name__}") from None
    config = RunConfig(**values)
    try:
        code = HANDLERS[config.subcommand](config)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``dbarn ... | head``): send what is still
        # buffered to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
