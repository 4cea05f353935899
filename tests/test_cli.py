import json

import pytest

from dbarn.cli import main
from dbarn.forms import CPolynomial, FormPoly, form_to_text


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


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 5\nxi-min = 0.5  # comment\n")
    out = tmp_path / "out.json"
    main(["--config", str(cfg), "ellipticity", "--s", "1", "--points", "3",
          "--out", str(out)])
    payload = json.loads(out.read_text())
    assert len(payload["samples"]) == 3          # flag beats config
    assert payload["samples"][0]["xi"] == 0.5    # config fills the rest


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


def test_verify_all_subset(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify-all", "--criteria", "3,4", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "criterion  3" in captured and "criterion  4" in captured
    payload = json.loads(out.read_text())
    assert [r["criterion"] for r in payload["results"]] == [3, 4]
