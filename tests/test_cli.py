import argparse
import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dbarn
from dbarn.bvp import (
    FD_CELLS_PER_S,
    MAX_FD_CELLS,
    MAX_FD_S,
    DiscKOperator,
    bessel_i_series,
    bessel_i_series_derivative,
)
from dbarn.cli import CAPS, MAX_GREENS_TRIALS, _set_config_defaults, build_parser, main
from dbarn.ellipticity import MAX_CERTIFY_S, MAX_XI_SAMPLES, XI_RANGE
from dbarn.exact import MAX_NEUMANN_D
from dbarn.forms import CPolynomial, CRational, FormPoly, form_to_text
from dbarn.geometry import (
    MAX_REFINE_DEPTH,
    MIN_ANGULAR_NODES,
    MIN_RADIAL_NODES,
    SampledField,
    default_geometry,
)
from dbarn.neumann import (
    BLOWUP_DELTA,
    BLOWUP_EPS,
    BLOWUP_S,
    MAX_BLOWUP_POINTS,
)
from dbarn.sobolev import MAX_S, MonomialBasis
from oracles import (
    exact_galerkin_solutions,
    exact_hodge_split,
    k_boundary_data_full_field,
    k_solve_per_mode,
)


@pytest.fixture
def form_file(tmp_path):
    phi = FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)})
    path = tmp_path / "z_dzbar.form"
    path.write_text(form_to_text(phi))
    return path


def test_ellipticity_subcommand(tmp_path, capsys):
    out = tmp_path / "ell.json"
    code = main(["ellipticity", "--s", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["pass"] is True
    assert len(payload["samples"]) == 25
    assert {"xi", "det", "det_scaled", "pass"} <= set(payload["samples"][0])


def test_ellipticity_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["ellipticity", "--s", "2", "--points", "7", "--out", str(out1)])
    main(["ellipticity", "--s", "2", "--points", "7", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_invalid_s_names_cap(capsys):
    with pytest.raises(SystemExit) as err:
        main(["ellipticity", "--s", "9"])
    assert "1..6" in str(err.value)


def test_canonical_subcommand(tmp_path, form_file, capsys):
    out = tmp_path / "canonical.json"
    csv_out = tmp_path / "canonical.csv"
    code = main(["canonical", "--s", "0", "--d", "10", "--f", str(form_file),
                 "--out", str(out), "--csv", str(csv_out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    # solution z zbar - 1/2: both monomials present
    entries = {(row["z_power"], row["zbar_power"]): row["re"]
               for row in payload["solution"]}
    assert abs(entries[(1, 1)] - 1.0) < 1e-8
    assert abs(entries[(0, 0)] + 0.5) < 1e-8
    assert csv_out.exists() and "z_power" in csv_out.read_text().splitlines()[0]


def test_neumann_and_hodge_subcommands(tmp_path, form_file):
    assert main(["neumann", "--s", "1", "--d", "10", "--f", str(form_file)]) == 0
    assert main(["hodge", "--s", "1", "--d", "10", "--f", str(form_file)]) == 0


@pytest.mark.parametrize("command", ["canonical", "neumann", "hodge"])
def test_a_split_component_gives_the_merged_record(tmp_path, command):
    split = tmp_path / "split.form"
    split.write_text("(form (n 1) (q 1)\n  (comp (1) (term 1 0 (z 1) (zbar 0)))\n"
                     "  (comp (1) (term 0 -1/4 (z 0) (zbar 2))))\n")
    merged = tmp_path / "merged.form"
    merged.write_text("(form (n 1) (q 1)\n  (comp (1) (term 1 0 (z 1) (zbar 0))"
                      " (term 0 -1/4 (z 0) (zbar 2))))\n")
    records = []
    for path in (split, merged):
        out = tmp_path / f"{path.stem}.json"
        assert main([command, "--s", "1", "--d", "8", "--f", str(path), "--out", str(out)]) == 0
        records.append(json.loads(out.read_text()))
    assert records[0] == records[1] and records[0]["pass"] is True


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 20, 40])
def test_canonical_passes_across_the_degree_cap(tmp_path, s, d):
    # closed form, no Gram factorization: valid up to the cap d = 40, where the
    # float Cholesky of the Gram has long broken down
    comp = CPolynomial.z(1, 1) if d > 1 else CPolynomial.const(1, 1)
    path = tmp_path / "f.form"
    path.write_text(form_to_text(FormPoly(1, 1, {(1,): comp})))
    out = tmp_path / "canonical.json"
    code = main(["canonical", "--s", str(s), "--d", str(d), "--f", str(path),
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pass"] is True


def seeded_form(rng, max_degree: int, terms: int, dyadic: bool) -> FormPoly:
    """A (0,1)-form with up to ``terms`` monomials of degree <= max_degree and
    small rational coefficients (denominators 2^k when ``dyadic``, else 1..4)."""
    out = {}
    for _ in range(terms):
        total = int(rng.integers(0, max_degree + 1))
        b = int(rng.integers(0, total + 1))
        den = [2 ** int(rng.integers(0, 4)) if dyadic else int(rng.integers(1, 5))
               for _ in range(2)]
        c = CRational(Fraction(int(rng.integers(-6, 7)), den[0]),
                      Fraction(int(rng.integers(-6, 7)), den[1]))
        if not c.is_zero():
            out[((total - b,), (b,))] = c
    return FormPoly(1, 1, {(1,): CPolynomial(1, out)})


def run_record(tmp_path, command: str, s: int, d: int, phi: FormPoly) -> dict:
    path = tmp_path / "f.form"
    path.write_text(form_to_text(phi))
    out = tmp_path / "record.json"
    code = main([command, "--s", str(s), "--d", str(d), "--f", str(path), "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == 0 and payload["pass"] is True, payload
    return payload


@pytest.mark.parametrize("d", [1, 2, 20, 24, 30, MAX_NEUMANN_D])
@pytest.mark.parametrize("command", ["canonical", "neumann", "hodge"])
def test_galerkin_commands_pass_across_the_cap_grid(tmp_path, capsys, command, d):
    # exact per-charge solves: every s and d the library accepts gives a passing record
    top = d if command == "hodge" else d - 1  # highest form degree the command takes
    rng = np.random.default_rng(1000 + d)
    readme = CPolynomial.z(1, 1) if top >= 1 else CPolynomial.const(1, 1)  # z dzbar
    for s in range(MAX_S + 1):
        for phi in (seeded_form(rng, top, 4, dyadic=False), FormPoly(1, 1, {(1,): readme})):
            payload = run_record(tmp_path, command, s, d, phi)
            for key in ("residual", "kernel_orthogonality", "canonical_match",
                        "orthogonality_defect"):
                if key in payload:
                    assert payload[key]["value"] <= payload[key]["tolerance"]


def printed(rows: list[dict]) -> dict:
    return {(r["z_power"], r["zbar_power"]): complex(r["re"], r["im"]) for r in rows}


def expected(basis: MonomialBasis, coeffs: np.ndarray) -> dict:
    return {e: complex(c) for e, c in zip(basis.exponents, coeffs) if c}


@pytest.mark.parametrize("s", [0, 1, 2])
def test_printed_coefficients_are_the_exact_solution_rounded(tmp_path, capsys, s):
    # dyadic coefficients are exact floats, so the oracle solves the same problem
    d = 12
    rng = np.random.default_rng(s)
    phi = seeded_form(rng, d - 1, 8, dyadic=True)
    fvec = MonomialBasis(d - 1).coefficients_of(phi.component((1,)))
    canonical, neumann = exact_galerkin_solutions(fvec, d, s)
    payload = run_record(tmp_path, "canonical", s, d, phi)
    assert printed(payload["solution"]) == expected(MonomialBasis(d), canonical)
    payload = run_record(tmp_path, "neumann", s, d, phi)
    assert printed(payload["solution"]) == expected(MonomialBasis(d - 1), neumann)
    phi = seeded_form(rng, d, 8, dyadic=True)  # top-degree terms leave a remainder
    f1, f2 = exact_hodge_split(MonomialBasis(d).coefficients_of(phi.component((1,))), d, s)
    payload = run_record(tmp_path, "hodge", s, d, phi)
    assert printed(payload["range_part"]) == expected(MonomialBasis(d), f1)
    assert printed(payload["orthogonal_part"]) == expected(MonomialBasis(d), f2)


def fresh_interpreter_env() -> dict:
    src_dir = str(Path(dbarn.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}


# what the exact Galerkin commands do not run: numpy, scipy (each with its
# submodules) and the float, sampled-grid and acceptance modules
NOT_RUN = ("numpy", "scipy", "dbarn.neumann", "dbarn.geometry", "dbarn.bvp",
           "dbarn.ellipticity", "dbarn.acceptance")


@pytest.mark.parametrize("command", ["canonical", "neumann", "hodge"])
def test_galerkin_commands_load_no_numpy(form_file, command):
    code = ("import sys\n"
            "from dbarn.cli import main\n"
            f"code = main([{command!r}, '--s', '2', '--d', '40', '--f', {str(form_file)!r}])\n"
            f"loaded = sorted(m for m in sys.modules if m in {NOT_RUN!r}\n"
            f"                or m.partition('.')[0] in {NOT_RUN!r})\n"
            "assert code == 0 and not loaded, loaded\n")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_importing_the_package_loads_no_submodule():
    code = "import sys, dbarn; print(sorted(m for m in sys.modules if m.startswith('dbarn.')))"
    done = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout == "[]\n", done.stdout + done.stderr


def test_closed_pipe_ends_without_a_traceback():
    # `dbarn verify-all --criteria 3,9 | head -1`: the reader leaves while
    # criterion 9 is still running
    proc = subprocess.Popen([sys.executable, "-m", "dbarn.cli", "verify-all",
                             "--criteria", "3,9"], env=fresh_interpreter_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert "criterion  3" in proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("subcommand,degree", [("canonical", 4), ("neumann", 4),
                                               ("hodge", 5)])
def test_over_degree_form_is_a_clean_error(tmp_path, subcommand, degree):
    # at --d 4 the form basis stops at degree 3 (canonical, neumann) or 4 (hodge)
    phi = FormPoly(1, 1, {(1,): CPolynomial.monomial(1, (degree,), (0,))})
    path = tmp_path / "high.form"
    path.write_text(form_to_text(phi))
    with pytest.raises(SystemExit) as err:
        main([subcommand, "--d", "4", "--f", str(path)])
    assert str(err.value).startswith("error:")
    assert f"degree {degree}" in str(err.value)


def test_greens_subcommand(tmp_path):
    out = tmp_path / "greens.json"
    code = main(["greens", "--s", "2", "--trials", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_residual"]["value"] <= payload["max_residual"]["tolerance"]


def test_bvp1d_subcommand(tmp_path):
    out = tmp_path / "bvp.json"
    assert main(["bvp1d", "--s", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 3.5 <= payload["fd_convergence_ratio"]["value"] <= 4.5


def test_blowup_subcommand(tmp_path):
    out = tmp_path / "blowup.json"
    code = main(["blowup", "--s", "1", "--eps-min", "0.00390625",
                 "--eps-max", "0.125", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert -0.35 <= payload["slope"]["value"] <= -0.15
    assert len(payload["rows"]) == 8
    code = main(["blowup", "--s", "1", "--eps-min", "0.00390625",
                 "--eps-max", "0.125", "--points", "25", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())["rows"]) == 25


def test_help_shows_every_default():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        # one entry per flag: its invocation, then its (wrapped) help
        help_text = subparser.format_help()
        entries = [" ".join(e.split()) for e in re.split(r"\n  (?=-)", help_text)]
        for action in subparser._actions:
            if action.default in (None, argparse.SUPPRESS):
                continue
            flag = action.option_strings[0]
            entry = next(e for e in entries if e.startswith((flag + " ", flag + ",")))
            assert f"(default: {action.default})" in entry, (name, flag, entry)


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 5\nxi-min = 0.5  # comment\n")
    out = tmp_path / "out.json"
    main(["--config", str(cfg), "ellipticity", "--s", "1", "--points", "3",
          "--out", str(out)])
    payload = json.loads(out.read_text())
    assert len(payload["samples"]) == 3          # flag beats config
    assert payload["samples"][0]["xi"] == 0.5    # config fills the rest


def test_config_sets_only_the_chosen_subcommands_defaults(tmp_path):
    # blowup's --points defaults to 8 and ellipticity's to 25: the config
    # replaces blowup's default, a flag replaces the config, and ellipticity
    # keeps its own
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 4\n")
    out = tmp_path / "out.json"
    for argv, rows in ((["blowup"], 8), (["--config", str(cfg), "blowup"], 4),
                       (["--config", str(cfg), "blowup", "--points", "3"], 3)):
        assert main(argv + ["--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["rows"]) == rows
    parser = build_parser()
    _set_config_defaults(parser, "blowup", str(cfg))
    assert parser.parse_args(["blowup"]).points == 4
    assert parser.parse_args(["ellipticity"]).points == 25


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor = 9\n")
    with pytest.raises(SystemExit, match="unknown config key"):
        main(["--config", str(cfg), "identities"])


def test_kop_subcommand_with_input(tmp_path, form_file):
    out = tmp_path / "kop.json"
    csv_out = tmp_path / "field.csv"
    code = main(["kop", "--input", str(form_file), "--out", str(out),
                 "--csv", str(csv_out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bessel_oracle_error"]["value"] <= 1e-6
    assert payload["solution_w1_norm"] > 0
    assert csv_out.read_text().splitlines()[0] == "r,theta,re,im"


def test_kop_field_csv_is_the_per_mode_solve_of_full_field_data(tmp_path, form_file):
    # the stacked recombination and the boundary-row derivative change no bit
    # of the field kop writes
    argv = ["kop", "--radial-nodes", "600", "--angular-nodes", "32",
            "--input", str(form_file)]
    csv_out = tmp_path / "field.csv"
    assert main(argv + ["--csv", str(csv_out)]) == 0
    geom = default_geometry(600, 32, 8)
    op = DiscKOperator(geom)
    psi = SampledField.from_polynomial(geom, CPolynomial.z(1, 1))
    values = k_solve_per_mode(op, k_boundary_data_full_field(op, psi))
    expected = tmp_path / "expected.csv"
    SampledField(geom, values).to_csv(str(expected))
    assert csv_out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["canonical", "neumann", "hodge"])
def test_zero_form_writes_an_empty_table(tmp_path, capsys, command):
    zero = tmp_path / "zero.form"
    zero.write_text("(form (n 1) (q 1))\n")
    csv_out = tmp_path / "out.csv"
    code = main([command, "--s", "1", "--d", "5", "--f", str(zero),
                 "--csv", str(csv_out)])
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith(f"{command}: pass")
    header = "part,z_power,zbar_power,re,im" if command == "hodge" else "z_power,zbar_power,re,im"
    assert csv_out.read_text().splitlines() == [header]


def test_hodge_csv_rows_are_the_record_parts(tmp_path):
    form = tmp_path / "f.form"
    form.write_text("(form (n 1) (q 1) (comp (1)"
                    " (term 1/3 -2/7 (z 3) (zbar 1)) (term 5/6 1/4 (z 0) (zbar 2))"
                    " (term 0 9/8 (z 1) (zbar 4))))\n")
    out, csv_out = tmp_path / "hodge.json", tmp_path / "hodge.csv"
    assert main(["hodge", "--s", "1", "--d", "5", "--f", str(form), "--out", str(out),
                 "--csv", str(csv_out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["range_part"] and payload["orthogonal_part"]
    expected = [(part, row["z_power"], row["zbar_power"], row["re"], row["im"])
                for part in ("range", "orthogonal") for row in payload[f"{part}_part"]]
    with open(csv_out, newline="") as handle:
        rows = [(r["part"], int(r["z_power"]), int(r["zbar_power"]), float(r["re"]),
                 float(r["im"])) for r in csv.DictReader(handle)]
    assert rows == expected


def test_kop_honours_radial_nodes(tmp_path):
    # a coarser grid than the 1200-node default gives its own, larger oracle error
    errors = {}
    for nodes in (600, 1200):
        out = tmp_path / f"kop{nodes}.json"
        assert main(["kop", "--radial-nodes", str(nodes), "--out", str(out)]) == 0
        errors[nodes] = json.loads(out.read_text())["bessel_oracle_error"]["value"]
    geom = default_geometry(600, 128, 8)
    omega = DiscKOperator(geom).solve_with_boundary_data(np.ones(geom.n_theta))
    exact = bessel_i_series(0, geom.r) / bessel_i_series_derivative(0, np.array([1.0]))[0]
    assert errors[600] == float(np.max(np.abs(omega.values[:, 0] - exact)))
    assert errors[600] > errors[1200]


TRUNCATED_FORM = "(form (n 1) (q 1)\n  (comp (1)\n    (term 1 0 (z 1)"
# a coefficient whose exact results, or whose float, leave the float64 range, and
# one below the smallest normal float64, whose rounded results lose their digits;
# a decimal exponent past the parser's limit is refused before 10**exponent is built
HUGE_FORMS = {f"f{c}.form": f"(form (n 1) (q 1) (comp (1) (term {c} 0 (z 1) (zbar 0))))"
              for c in ("1e200", "1e400", "1e-320", "1e999999999", "1e-999999999")}


def test_a_huge_coefficient_the_results_hold_is_solved(tmp_path):
    # the canonical solution of 1e200 z dzbar stays in the float64 range: no refusal
    (tmp_path / "f.form").write_text(HUGE_FORMS["f1e200.form"])
    out = tmp_path / "canonical.json"
    assert main(["canonical", "--s", "1", "--d", "12", "--f", str(tmp_path / "f.form"),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert max(abs(row["re"]) for row in payload["solution"]) == 1e200


@pytest.mark.parametrize("argv,files", [
    pytest.param(["ellipticity", "--points", "0"], {}, id="ellipticity-points-0"),
    pytest.param(["ellipticity", "--xi-min", "0"], {}, id="ellipticity-xi-min-0"),
    pytest.param(["ellipticity", "--xi-min", "5", "--xi-max", "1"], {},
                 id="ellipticity-xi-range-reversed"),
    pytest.param(["greens", "--trials", "0"], {}, id="greens-trials-0"),
    pytest.param(["blowup", "--points", "1"], {}, id="blowup-points-1"),
    pytest.param(["blowup", "--points", "0"], {}, id="blowup-points-0"),
    pytest.param(["bvp1d", "--fd-nodes", "2"], {}, id="bvp1d-fd-nodes-2"),
    pytest.param(["bvp1d", "--s", "2", "--fd-nodes", "11"], {}, id="bvp1d-s2-fd-nodes-11"),
    pytest.param(["ellipticity", "--points", str(MAX_XI_SAMPLES + 1)], {},
                 id="ellipticity-points-above-limit"),
    pytest.param(["blowup", "--points", str(MAX_BLOWUP_POINTS + 1)], {},
                 id="blowup-points-above-limit"),
    pytest.param(["greens", "--trials", str(MAX_GREENS_TRIALS + 1)], {},
                 id="greens-trials-above-limit"),
    pytest.param(["bvp1d", "--fd-nodes", str(MAX_FD_CELLS[1] // 2 + 1)], {},
                 id="bvp1d-fd-nodes-above-limit"),
    pytest.param(["bvp1d", "--s", "2", "--fd-nodes", str(MAX_FD_CELLS[2] // 2 + 1)], {},
                 id="bvp1d-s2-fd-nodes-above-limit"),
    pytest.param(["kop", "--input", "{tmp}/missing.form"], {}, id="missing-form-file"),
    pytest.param(["canonical", "--f", "{tmp}/cut.form"], {"cut.form": TRUNCATED_FORM},
                 id="truncated-form-canonical"),
    pytest.param(["kop", "--input", "{tmp}/cut.form"], {"cut.form": TRUNCATED_FORM},
                 id="truncated-form-kop"),
    pytest.param(["neumann", "--s", "1", "--d", "12", "--f", "{tmp}/f1e200.form"], HUGE_FORMS,
                 id="neumann-coefficient-1e200"),
    pytest.param(["hodge", "--s", "1", "--d", "12", "--f", "{tmp}/f1e200.form"], HUGE_FORMS,
                 id="hodge-coefficient-1e200"),
    pytest.param(["canonical", "--s", "1", "--d", "12", "--f", "{tmp}/f1e400.form"], HUGE_FORMS,
                 id="canonical-coefficient-1e400"),
    pytest.param(["neumann", "--s", "1", "--d", "12", "--f", "{tmp}/f1e400.form"], HUGE_FORMS,
                 id="neumann-coefficient-1e400"),
    pytest.param(["hodge", "--s", "1", "--d", "12", "--f", "{tmp}/f1e400.form"], HUGE_FORMS,
                 id="hodge-coefficient-1e400"),
    pytest.param(["kop", "--input", "{tmp}/f1e400.form"], HUGE_FORMS,
                 id="kop-coefficient-1e400"),
    pytest.param(["canonical", "--s", "1", "--d", "12", "--f", "{tmp}/f1e-320.form"],
                 HUGE_FORMS, id="canonical-coefficient-1e-320"),
    pytest.param(["neumann", "--s", "1", "--d", "12", "--f", "{tmp}/f1e-320.form"], HUGE_FORMS,
                 id="neumann-coefficient-1e-320"),
    pytest.param(["hodge", "--s", "1", "--d", "12", "--f", "{tmp}/f1e-320.form"], HUGE_FORMS,
                 id="hodge-coefficient-1e-320"),
    pytest.param(["canonical", "--s", "1", "--d", "12", "--f", "{tmp}/f1e999999999.form"],
                 HUGE_FORMS, id="canonical-exponent-999999999"),
    pytest.param(["neumann", "--s", "1", "--d", "12", "--f", "{tmp}/f1e999999999.form"],
                 HUGE_FORMS, id="neumann-exponent-999999999"),
    pytest.param(["hodge", "--s", "1", "--d", "12", "--f", "{tmp}/f1e999999999.form"],
                 HUGE_FORMS, id="hodge-exponent-999999999"),
    pytest.param(["neumann", "--s", "1", "--d", "12", "--f", "{tmp}/f1e-999999999.form"],
                 HUGE_FORMS, id="neumann-exponent-minus-999999999"),
    pytest.param(["kop", "--input", "{tmp}/f1e999999999.form"], HUGE_FORMS,
                 id="kop-exponent-999999999"),
    pytest.param(["canonical", "--f", "{tmp}/n.form"], {"n.form": "(form (n) (q 1))"},
                 id="form-n-without-value"),
    pytest.param(["neumann", "--f", "{tmp}/term.form"],
                 {"term.form": "(form (n 1) (q 1) (comp (1) (term 1)))"},
                 id="form-term-without-parts"),
    pytest.param(["hodge", "--f", "{tmp}/comp.form"],
                 {"comp.form": "(form (n 1) (q 1) (comp 1 (term 1 0 (z 1) (zbar 0))))"},
                 id="form-index-not-a-list"),
    pytest.param(["canonical", "--s", "1", "--d", "12"], {}, id="canonical-no-form-file"),
    pytest.param(["canonical", "--f", "{tmp}/n2.form"],
                 {"n2.form": "(form (n 2) (q 1) (comp (1) (term 1 0 (z 1 0) (zbar 0 0))))"},
                 id="form-in-two-variables"),
    pytest.param(["neumann", "--f", "{tmp}/empty.form"], {"empty.form": "\n"}, id="form-file-empty"),
    pytest.param(["hodge", "--f", "{tmp}/open.form"], {"open.form": "(form (n 1) (q 1)"},
                 id="form-file-unbalanced"),
    pytest.param(["--config", "{tmp}/missing.cfg", "identities"], {}, id="missing-config-file"),
    pytest.param(["--config", "{tmp}/run.cfg", "ellipticity"], {"run.cfg": "points = abc\n"},
                 id="config-value-not-int"),
    pytest.param(["--config", "{tmp}/run.cfg", "ellipticity"], {"run.cfg": "points 5\n"},
                 id="config-line-without-equals"),
    pytest.param(["--config", "{tmp}/run.cfg", "identities"],
                 {"run.cfg": "subcommand = greens\n"}, id="config-sets-subcommand"),
    pytest.param(["--config", "{tmp}/run.cfg", "greens"], {"run.cfg": "radial_nodes = 600\n"},
                 id="config-kop-only-key"),
    pytest.param(["verify-all", "--criteria", "99"], {}, id="criteria-out-of-range"),
    pytest.param(["verify-all", "--criteria", "x"], {}, id="criteria-not-a-number"),
    pytest.param(["kop", "--angular-nodes", "7"], {}, id="kop-odd-angular-nodes"),
    pytest.param(["kop", "--radial-nodes", "4801"], {}, id="kop-radial-nodes-above-cap"),
    pytest.param(["kop", "--radial-nodes", "100000000000"], {}, id="kop-radial-nodes-huge"),
    pytest.param(["kop", "--angular-nodes", "1026"], {}, id="kop-angular-nodes-above-cap"),
    pytest.param(["kop", "--mode-max", "-1"], {}, id="kop-mode-max-negative"),
    pytest.param(["kop", "--mode-max", "5000"], {}, id="kop-mode-max-beyond-grid"),
    pytest.param(["kop", "--angular-nodes", "16", "--mode-max", "9"], {},
                 id="kop-mode-max-beyond-coarse-grid"),
    pytest.param(["blowup", "--delta", "0"], {}, id="blowup-delta-0"),
    pytest.param(["blowup", "--delta", "-0.5"], {}, id="blowup-delta-negative"),
    pytest.param(["blowup", "--delta", "1e300"], {}, id="blowup-delta-huge"),
    pytest.param(["blowup", "--eps-min", "0.125"], {}, id="blowup-eps-range-empty"),
    pytest.param(["ellipticity", "--s", "6", "--xi-min", "1e13", "--xi-max", "1e13",
                  "--points", "1"], {}, id="ellipticity-xi-1e13"),
    pytest.param(["ellipticity", "--s", "6", "--xi-min", "1e30", "--xi-max", "1e30",
                  "--points", "1"], {}, id="ellipticity-xi-1e30"),
    pytest.param(["ellipticity", "--xi-max", "1e300"], {}, id="ellipticity-xi-max-huge"),
    pytest.param(["bvp1d", "--s", "3"], {}, id="bvp1d-s-3"),
    pytest.param(["ellipticity", "--points", "-1"], {}, id="ellipticity-points-negative"),
    pytest.param(["blowup", "--points", "-3"], {}, id="blowup-points-negative"),
    pytest.param(["greens", "--seed", "-1"], {}, id="greens-seed-negative"),
    pytest.param(["bvp1d", "--seed", "-1"], {}, id="bvp1d-seed-negative"),
    pytest.param(["verify-all", "--criteria", "1", "--seed", "-5000"], {},
                 id="verify-all-seed-negative"),
    pytest.param(["identities", "--seed", "-1"], {}, id="identities-seed-negative"),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(SystemExit) as err:
        main([arg.format(tmp=tmp_path) for arg in argv])
    message = str(err.value)
    assert message.startswith("error:") and "\n" not in message
    assert capsys.readouterr().out == ""  # refused before any work ran
    for flag in ("--seed", "--points"):  # a negative one is named in the line
        if flag in argv and int(argv[argv.index(flag) + 1]) < 0:
            assert flag in message


# Each limited flag at its lower limit, one interior value and its upper limit,
# as the library (and, for the kop grid's upper ends, the CLI's CAPS, and for
# --trials, MAX_GREENS_TRIALS) defines them, the other flags at their defaults;
# --fd-nodes tops out where the twice finer grid reaches MAX_FD_CELLS at s = 1.
# bvp1d --s also runs one past the finite-difference limit, and greens --s every
# order the exact identity takes and one past it, to an error line.
CAP_GRID = {
    "ellipticity": {"--s": (1, 3, MAX_CERTIFY_S), "--xi-min": (XI_RANGE[0], 1.0, XI_RANGE[1]),
                    "--xi-max": (XI_RANGE[0], 1.0, XI_RANGE[1]),
                    "--points": (1, 7, MAX_XI_SAMPLES)},
    "greens": {"--s": tuple(range(MAX_S + 2)), "--trials": (1, 3, MAX_GREENS_TRIALS)},
    "blowup": {"--s": BLOWUP_S, "--eps-min": (BLOWUP_EPS[0], 2.0**-6, BLOWUP_EPS[1]),
               "--eps-max": (BLOWUP_EPS[0], 2.0**-6, BLOWUP_EPS[1]),
               "--points": (2, 5, MAX_BLOWUP_POINTS),
               "--delta": (BLOWUP_DELTA[0], 0.25, BLOWUP_DELTA[1])},
    "bvp1d": {"--s": (1, MAX_FD_S, MAX_FD_S + 1),
              "--fd-nodes": (FD_CELLS_PER_S, 64, MAX_FD_CELLS[1] // 2)},
    "kop": {"--radial-nodes": (MIN_RADIAL_NODES, 600, CAPS["radial_nodes"]),
            "--angular-nodes": (MIN_ANGULAR_NODES, 64, CAPS["angular_nodes"]),
            "--mode-max": (0, 32, 64), "--boundary-refine-depth": (1, 8, MAX_REFINE_DEPTH)},
}
# records that may report FAIL: the coarsest radial grid misses the Bessel
# oracle, and a cutoff narrower than the eps range breaks the bounded-norm family
MAY_FAIL = {("kop", "--radial-nodes", str(MIN_RADIAL_NODES)),
            ("blowup", "--delta", str(BLOWUP_DELTA[0]))}


def reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    pytest.param([command, flag, str(value)], id=f"{command}{flag}={value}")
    for command, flags in CAP_GRID.items() for flag, values in flags.items()
    for value in values])
def test_cap_grid_gives_a_json_record_or_one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as err:
        message = str(err)
        assert message.startswith("error:") and "\n" not in message
        return
    text, status = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)
    record = json.loads(text, parse_constant=reject_constant)
    assert (code, status) == ((0, f"{argv[0]}: pass") if record["pass"]
                              else (1, f"{argv[0]}: FAIL"))
    assert record["pass"] or tuple(argv) in MAY_FAIL, record


@pytest.mark.parametrize("argv", [
    pytest.param(["bvp1d", "--manufactured"], id="bvp1d-manufactured"),
    pytest.param(["greens", "--radial-nodes", "600"], id="grid-flag-outside-kop"),
])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_subset(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify-all", "--criteria", "3,4", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "criterion  3" in captured and "criterion  4" in captured
    payload = json.loads(out.read_text())
    assert [r["criterion"] for r in payload["results"]] == [3, 4]


def test_verify_all_verdicts_are_json_booleans(tmp_path):
    # criterion 5's verdict was a numpy bool, which the record wrote as "True"
    out = tmp_path / "verify.json"
    assert main(["verify-all", "--criteria", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert [type(r["pass"]) for r in payload["results"]] == [bool]
