"""Command-line front end: one experiment per invocation, JSON/CSV artifacts.

Subcommands: identities | ellipticity | bvp1d | kop | canonical | neumann |
hodge | greens | blowup | verify-all.  ``build_parser`` declares every flag
once, with its default, and the handlers read the parsed namespace.  A
plain-text config file (key = value) can pre-set any flag of the chosen
subcommand: its values become that subcommand's defaults and the argv is
parsed again, so explicit flags win.  Every run records its seed and every
emitted check carries its tolerance next to the value; the handlers only
format the certificates the library computes.  The exit code is 0 exactly
when all internal checks pass.

Each input limit is the library function's own: ``main`` turns a ValueError
into one ``error:`` line with exit 1 and nothing on stdout (handlers print only
at the end).  The CLI checks only its flags: a non-negative ``--seed`` and
``--points``, ordered ranges, ``--trials``, ``--criteria``, the form and config
files and the kop memory caps (``CAPS``).  A log-spaced grid's ``--points``
meets the library's sample limit before the grid is allocated.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance, bvp, ellipticity, forms, geometry, neumann
from .acceptance import DEFAULT_SEED
from .sobolev import MonomialBasis

SCHEMA_VERSION = 1

# the kop grid's memory caps: at both a kop --input run peaks near 0.5 GB (max RSS)
CAPS = {"radial_nodes": 4800, "angular_nodes": 1024}
MAX_GREENS_TRIALS = 200  # random pairs of one greens run, about 1 ms each


def _check_cap(flag: str, value: int, cap_key: str) -> None:
    if value > CAPS[cap_key]:
        raise ValueError(f"{flag}={value} is above its memory cap {CAPS[cap_key]}")


def _check_log_range(lo_flag: str, lo: float, hi_flag: str, hi: float,
                     points: int, max_points: int) -> None:
    # the grid's own need; which values the computation takes is the library's,
    # but its sample limit is read here too, before the grid is allocated
    if not 0 < lo <= hi < math.inf:
        raise ValueError(f"a log-spaced grid needs 0 < {lo_flag} <= {hi_flag} < inf")
    if points > max_points:
        raise ValueError(f"--points={points} is above its limit {max_points}")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from None


def _read_config_file(path: str) -> dict:
    out = {}
    for line_no, raw in enumerate(_read_text(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _load_form(args: argparse.Namespace) -> forms.FormPoly:
    if not args.input:
        raise ValueError("this subcommand needs --f/--input pointing at a "
                         "form file (see README for the format)")
    text = _read_text(args.input, "form file")
    try:
        phi = forms.form_from_text(text)
    except (ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{args.input} is not a valid form file: {exc}") from None
    if phi.n != 1 or phi.q != 1:
        raise ValueError("disc experiments expect a (0,1)-form in one complex variable")
    return phi


def _record(args: argparse.Namespace, payload: dict) -> str:
    """The JSON record of a run, written to --out when one is given."""
    text = json.dumps({"schema": SCHEMA_VERSION, "subcommand": args.subcommand,
                       "seed": args.seed, **payload},
                      sort_keys=True, indent=2, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return text


def _emit(args: argparse.Namespace, payload: dict, rows: list[dict] | None = None,
          columns: tuple[str, ...] | None = None) -> int:
    """Print (and with --out write) the JSON record; with --csv write the rows.

    A table that can be empty passes its columns, so it writes only a header."""
    print(_record(args, payload))
    if rows is not None and args.csv_out:
        with open(args.csv_out, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns or list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    ok = payload.get("pass", True)
    print(f"{args.subcommand}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- subcommand handlers ---------------------------------------------------------


def _cmd_identities(args: argparse.Namespace) -> int:
    results = [acceptance.run_criterion(k, args.seed) for k in (1, 2, 3, 4)]
    return _emit(args, acceptance.results_payload(results))


def _cmd_ellipticity(args: argparse.Namespace) -> int:
    _check_log_range("--xi-min", args.xi_min, "--xi-max", args.xi_max,
                     args.points, ellipticity.MAX_XI_SAMPLES)
    grid = np.logspace(math.log10(args.xi_min), math.log10(args.xi_max), args.points)
    report = ellipticity.certify_trivial_kernel(args.s, grid)
    rows = [{"xi": smp.xi, "det": smp.det, "det_scaled": smp.det_scaled,
             "pass": smp.passed} for smp in report.samples]
    payload = {
        "s": args.s,
        "threshold": report.threshold,
        "pass": report.passed,
        "samples": rows,
    }
    return _emit(args, payload, rows)


def _cmd_bvp1d(args: argparse.Namespace) -> int:
    sol, err, errs = bvp.interval_experiment(args.s, np.random.default_rng(args.seed),
                                             (args.fd_nodes, 2 * args.fd_nodes))
    ratio = errs[0] / errs[1]
    tol, (lo, hi) = acceptance.INTERVAL_TOL, acceptance.FD_RATIO
    payload = {
        "s": args.s,
        "manufactured_error": {"value": err, "tolerance": tol},
        "boundary_residual": {"value": sol.max_boundary_residual, "tolerance": tol},
        "collocation_condition": sol.condition,
        "fd_convergence_ratio": {"value": ratio, "window": acceptance.FD_RATIO},
        "pass": err <= tol and sol.max_boundary_residual <= tol and lo <= ratio <= hi,
    }
    return _emit(args, payload)


def _cmd_kop(args: argparse.Namespace) -> int:
    _check_cap("--radial-nodes", args.radial_nodes, "radial_nodes")
    _check_cap("--angular-nodes", args.angular_nodes, "angular_nodes")
    geom = geometry.default_geometry(args.radial_nodes, args.angular_nodes,
                                     args.boundary_refine_depth)
    op = bvp.DiscKOperator(geom, mode_max=args.mode_max)
    bessel_err, tol = op.bessel_oracle_error(), acceptance.BESSEL_TOL
    payload = {
        "mode_max": op.mode_max,
        "bessel_oracle_error": {"value": bessel_err, "tolerance": tol},
        "pass": bessel_err <= tol,
    }
    if args.input:
        psi = _load_form(args)
        # K psi as op.apply takes it, with the sampled psi freed before the solve
        data = op.boundary_data(geometry.SampledField.from_polynomial(geom, psi.component((1,))))
        result = op.solve_with_boundary_data(data)
        hat = np.abs(np.fft.fft(data) / geom.n_theta)
        wavenumbers = geom.theta_wavenumbers().astype(int)
        payload["input"] = args.input
        payload["solution_w1_norm"] = geometry.ws_norm_sampled(result, 1)
        payload["modes"] = [{"mode": int(m), "data_amplitude": float(hat[i])}
                            for i, m in enumerate(wavenumbers) if hat[i] > 1e-14]
        if args.csv_out:
            result.to_csv(args.csv_out)  # columns r, theta, re, im
    return _emit(args, payload)


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


def _cmd_canonical(args: argparse.Namespace) -> int:
    sol = neumann.canonical_solve_dbar(_load_form(args), s=args.s, d=args.d)
    rows, tol = _form_rows(MonomialBasis(args.d), sol.coeffs), acceptance.CANONICAL_TOL
    payload = {
        "s": args.s, "d": args.d,
        "residual": {"value": sol.residual, "tolerance": tol},
        "kernel_orthogonality": {"value": sol.kernel_orthogonality, "tolerance": tol},
        "pass": sol.residual <= tol and sol.kernel_orthogonality <= tol,
        "solution": rows,
    }
    return _emit(args, payload, rows, columns=FORM_COLUMNS)


def _cmd_neumann(args: argparse.Namespace) -> int:
    sol = neumann.neumann_solve(_load_form(args), s=args.s, d=args.d)
    rows, tol = _form_rows(MonomialBasis(args.d - 1), sol.coeffs), acceptance.NEUMANN_TOL
    payload = {
        "s": args.s, "d": args.d,
        "residual": {"value": sol.residual, "tolerance": tol},
        "norm_ratio": sol.norm_ratio,
        "canonical_match": {"value": sol.canonical_match, "tolerance": tol},
        "pass": sol.residual <= tol and sol.canonical_match <= tol,
        "solution": rows,
    }
    return _emit(args, payload, rows, columns=FORM_COLUMNS)


def _cmd_hodge(args: argparse.Namespace) -> int:
    split = neumann.hodge_split(_load_form(args), s=args.s, d=args.d)
    basis, tol = MonomialBasis(args.d), acceptance.HODGE_TOL
    parts = {"range": _form_rows(basis, split.range_part),
             "orthogonal": _form_rows(basis, split.orthogonal_part)}
    payload = {
        "s": args.s, "d": args.d,
        "range_part_norm": split.range_norm,
        "orthogonal_part_norm": split.orthogonal_norm,
        "orthogonality_defect": {"value": split.orthogonality_defect, "tolerance": tol},
        "pass": split.orthogonality_defect <= tol,
        "range_part": parts["range"],
        "orthogonal_part": parts["orthogonal"],
    }
    rows = [{"part": part, **row} for part, part_rows in parts.items() for row in part_rows]
    return _emit(args, payload, rows, columns=("part",) + FORM_COLUMNS)


def _cmd_greens(args: argparse.Namespace) -> int:
    if not 1 <= args.trials <= MAX_GREENS_TRIALS:
        raise ValueError(f"--trials={args.trials} must lie in 1..{MAX_GREENS_TRIALS}")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for trial in range(args.trials):
        phi = forms.random_cpolynomial(rng, 1, 4)
        psi = forms.random_cpolynomial(rng, 1, 4)
        res = neumann.greens_identity_check(phi, psi, args.s)
        worst = max(worst, res.residual)
        rows.append({"trial": trial, "lhs_re": res.lhs.real,
                     "boundary_re": res.boundary.real, "residual": res.residual})
    payload = {
        "s": args.s, "trials": args.trials,
        "max_residual": {"value": worst, "tolerance": acceptance.GREENS_TOL},
        "pass": worst <= acceptance.GREENS_TOL,
    }
    return _emit(args, payload, rows)


def _cmd_blowup(args: argparse.Namespace) -> int:
    _check_log_range("--eps-min", args.eps_min, "--eps-max", args.eps_max,
                     args.points, neumann.MAX_BLOWUP_POINTS)
    eps_list = list(np.geomspace(args.eps_max, args.eps_min, args.points))
    rep = neumann.blowup_experiment(args.s, eps_list, delta=args.delta)
    rows = [{"eps": row.eps, "norm": row.norm, "pairing": row.pairing}
            for row in rep.rows]
    (lo, hi), tol = acceptance.BLOWUP_SLOPE, acceptance.BLOWUP_NORM_RATIO
    payload = {
        "s": args.s, "delta": args.delta, "test_form": rep.test_form,
        "slope": {"value": rep.slope, "window": acceptance.BLOWUP_SLOPE},
        "norm_ratio": {"value": rep.norm_ratio, "tolerance": tol},
        "pairing_monotone": rep.pairing_monotone,
        "rows": rows,
        "pass": lo <= rep.slope <= hi and rep.norm_ratio <= tol,
    }
    return _emit(args, payload, rows)


def _cmd_verify_all(args: argparse.Namespace) -> int:
    if args.criteria:
        try:
            numbers = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError:
            raise ValueError(f"--criteria {args.criteria!r} is not a "
                             "comma-separated list of numbers") from None
        bad = [k for k in numbers if not 1 <= k <= len(acceptance.CRITERIA)]
        if bad:
            raise ValueError(f"--criteria {bad[0]} is outside 1..{len(acceptance.CRITERIA)}")
    else:
        numbers = list(range(1, len(acceptance.CRITERIA) + 1))
    results = []
    for k in numbers:
        res = acceptance.run_criterion(k, args.seed)
        print(res.summary())
        results.append(res)
    payload = acceptance.results_payload(results)
    _record(args, payload)
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


class _DefaultsHelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends "(default: ...)" to the help of each flag that has a default."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbarn",
        description="Weighted-Sobolev dbar-Neumann workbench on the unit disc.",
        epilog=CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key = value file pre-setting any flag "
                                         "(explicit flags win)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name: str, blurb: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=blurb, formatter_class=_DefaultsHelpFormatter)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="random seed, non-negative (recorded in output)")
        p.add_argument("--out", help="write the JSON record here")
        p.add_argument("--csv", dest="csv_out",
                       help="write the tabular rows as CSV (columns as in JSON rows)")

    p = add_parser("identities", "exact combinatorial and form identities")
    add_common(p)

    p = add_parser("ellipticity", "boundary-symbol nonsingularity sweep")
    add_common(p)
    p.add_argument("--s", type=int, default=2, help="Sobolev order")
    p.add_argument("--xi-min", type=float, dest="xi_min", default=0.1,
                   help="smallest tangential frequency |xi|")
    p.add_argument("--xi-max", type=float, dest="xi_max", default=10.0,
                   help="largest tangential frequency |xi|")
    p.add_argument("--points", type=int, default=25, help="log-spaced |xi| samples")

    p = add_parser("bvp1d", "interval problem: manufactured + FD check")
    add_common(p)
    p.add_argument("--s", type=int, default=1, help="Sobolev order")
    p.add_argument("--fd-nodes", type=int, dest="fd_nodes", default=128,
                   help="finite-difference nodes of the coarse grid (the fine one has twice)")

    p = add_parser("kop", "adjoint-correction operator on the disc (s=1)")
    add_common(p)
    p.add_argument("--radial-nodes", type=int, dest="radial_nodes", default=1200,
                   help="radial grid resolution")
    p.add_argument("--angular-nodes", type=int, dest="angular_nodes", default=128,
                   help="angular grid resolution")
    p.add_argument("--boundary-refine-depth", type=int, dest="boundary_refine_depth",
                   default=8, help="radial refinement levels toward the boundary")
    p.add_argument("--mode-max", type=int, dest="mode_max",
                   help="highest Fourier mode solved (default: half the angular nodes)")
    p.add_argument("--input", "--f", dest="input", help="form file to apply K to")

    for name, blurb in (("canonical", "least-norm solution of dbar u = f"),
                        ("neumann", "solve the weighted form Laplacian"),
                        ("hodge", "range / orthogonal splitting of a form")):
        p = add_parser(name, blurb)
        add_common(p)
        p.add_argument("--s", type=int, default=1, help="Sobolev order")
        p.add_argument("--d", type=int, default=12, help="basis degree")
        p.add_argument("--f", "--input", dest="input", help="form file")

    p = add_parser("greens", "exact integration-by-parts residuals")
    add_common(p)
    p.add_argument("--s", type=int, default=1, help="Sobolev order")
    p.add_argument("--trials", type=int, default=20, help="random polynomial pairs")

    p = add_parser("blowup", "boundary pairing blow-up experiment")
    add_common(p)
    p.add_argument("--s", type=int, default=1, help="Sobolev order")
    p.add_argument("--eps-min", type=float, dest="eps_min", default=2.0**-10,
                   help="smallest eps of the cap family")
    p.add_argument("--eps-max", type=float, dest="eps_max", default=2.0**-3,
                   help="largest eps of the cap family")
    p.add_argument("--points", type=int, default=8, help="geometrically spaced eps values")
    p.add_argument("--delta", type=float, default=0.5, help="cutoff width of the cap")

    p = add_parser("verify-all", "run the full acceptance suite")
    add_common(p)
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def _set_config_defaults(parser: argparse.ArgumentParser, name: str, path: str) -> None:
    """Make the config file's values defaults of subcommand ``name``, each converted
    by its flag's type, so a flag given on the command line still wins."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = sub.choices[name]
    flags = {a.dest: a for a in subparser._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, raw in _read_config_file(path).items():
        if key not in flags:
            raise ValueError(f"unknown config key {key!r} for {name}")
        convert = flags[key].type or str
        try:
            defaults[key] = convert(raw)
        except ValueError:
            raise ValueError(f"{path}: {key} = {raw!r} is not "
                             f"a valid {convert.__name__}") from None
    subparser.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _set_config_defaults(parser, args.subcommand, args.config)
            args = parser.parse_args(argv)
        for flag in ("seed", "points"):  # numpy refuses negatives without naming the flag
            if getattr(args, flag, 0) < 0:
                raise ValueError(f"--{flag}={getattr(args, flag)} must be non-negative")
        code = HANDLERS[args.subcommand](args)
        sys.stdout.flush()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    except BrokenPipeError:
        # the reader went away (``dbarn ... | head``): send what is still
        # buffered to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
