"""Output checks: real outputs pass, corrupted outputs count as failed."""

import contextlib
import io
import itertools
import json
import numpy as np
import pytest

import benchpath
import checks
import inputs
import layers
import run
import workloads
from dbarn import cli, neumann


def cli_stdout(tmp_path, command, d, s):
    path = tmp_path / "f.form"
    path.write_text(inputs.cli_form_text(np.random.default_rng(3), d))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([command, "--s", str(s), "--d", str(d), "--f", str(path)])
    return code, buffer.getvalue()


@pytest.mark.parametrize("command", ["canonical", "neumann", "hodge"])
def test_cli_record_passes_then_corrupted_record_fails(tmp_path, command):
    code, stdout = cli_stdout(tmp_path, command, 6, 1)
    assert checks.check_cli_record(command, code, stdout).ok
    record = checks.parse_cli_record(stdout)
    key = next(iter(checks.CLI_TOLERANCES[command]))
    record[key]["value"] = 1e-3          # still claims pass: true
    outcome = checks.check_cli_record(command, code, json.dumps(record))
    assert not outcome.ok and outcome.wrong


def test_cli_reported_failure_is_failed_not_wrong():
    record = {"pass": False,
              "residual": {"value": 2.2e-5, "tolerance": 1e-8},
              "canonical_match": {"value": 3e-6, "tolerance": 1e-8}}
    outcome = checks.check_cli_record("neumann", 1, json.dumps(record))
    assert not outcome.ok and not outcome.wrong
    assert not checks.check_cli_record("neumann", 1, "Traceback ...").wrong
    assert checks.check_cli_record("neumann", 0, "").wrong


def test_a_raising_request_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(workloads.ExactCertify, "HEAVY", [("proxy", 10, 1)])
    monkeypatch.setattr(workloads.ExactCertify, "LIGHT_MIX", {"dbar2": 1})

    def broken(d, s):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(neumann, "neumann_operator_norm_proxy_exact", broken)
    result = run.timed_run(workloads.ExactCertify(), 1, 0.0)
    assert result["attempted"] == 2 * run.MIN_ROUNDS
    assert result["failed"] == run.MIN_ROUNDS and not result["correct"]


def test_a_known_exception_is_failed_not_wrong():
    def breakdown():
        raise ValueError("Gram matrix is not numerically positive definite")

    class Session(workloads.GalerkinSession):
        def round(self, index):
            return [workloads.Request("neumann", breakdown, checks.check_adjoint)]

    outcomes = []
    run.run_round(Session(), 0, [], outcomes)
    [(_, outcome)] = outcomes
    assert not outcome.ok and not outcome.wrong


def test_corrupted_proxy_value_is_wrong():
    ref = checks.load_references()["neumann_operator_norm_proxy_exact"]["10,1"]
    assert checks.check_proxy(neumann.neumann_operator_norm_proxy_exact(10, 1), ref).ok
    outcome = checks.check_proxy(ref * (1 + 1e-9), ref)
    assert not outcome.ok and outcome.wrong


def test_corrupted_canonical_solution_fails_the_recomputed_residual():
    cx = neumann.DiscreteComplex.build(6, 1)
    f = inputs.complex_vector(np.random.default_rng(1), cx.form_basis.dim)
    sol = neumann.canonical_solve_dbar(f, cx=cx)
    fg = cx.form_gram.matrix

    def recomputed(u):
        return checks.gram_norm(fg, cx.dbar_matrix @ u - f) / checks.gram_norm(fg, f)

    good = checks.check_canonical(sol.residual, sol.kernel_orthogonality,
                                  recomputed(sol.coeffs))
    assert good.ok
    bad = sol.coeffs.copy()
    bad[-1] += 1e-3
    outcome = checks.check_canonical(sol.residual, sol.kernel_orthogonality, recomputed(bad))
    assert not outcome.ok and outcome.wrong


def test_hodge_parts_that_do_not_sum_to_f_are_wrong():
    assert checks.check_hodge(1e-14, 0.0).ok
    assert checks.check_hodge(1e-14, 1e-6).wrong
    assert not checks.check_hodge(1e-6, 0.0).ok


def test_corrupted_exact_identity_outputs_are_wrong():
    bench = workloads.ExactCertify()
    bench.setup(np.random.default_rng(4))
    requests = bench.round(0)
    box, out = next((r, out) for r in requests if r.kind == "box"
                    for out in [r.call()] if out.comps)
    assert box.check(out).ok
    key = next(iter(out.comps))
    corrupted = type(out)(out.n, out.q, {**out.comps, key: out.comps[key] + out.comps[key]})
    outcome = box.check(corrupted)
    assert not outcome.ok and outcome.wrong
    dbar2 = next(r for r in requests if r.kind == "dbar2")
    assert dbar2.check(dbar2.call()).ok
    assert dbar2.check(out).wrong       # a nonzero form in place of dbar(dbar(phi))


def test_k_ratio_family_outside_criterion_13_window_fails():
    bench = workloads.BoundaryAnalysis()
    bench.ratios = []
    assert bench._check_ratio(0.05).ok
    assert bench._check_ratio(0.1).ok
    assert not bench._check_ratio(0.25).ok          # spread 5 > 4
    assert not bench._check_ratio(float("nan")).ok


def test_blowup_slope_outside_window_fails():
    report = neumann.blowup_experiment(1)
    assert workloads.BoundaryAnalysis._check_blowup(report).ok
    report.slope = -0.5
    assert not workloads.BoundaryAnalysis._check_blowup(report).ok


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == pytest.approx(90.0)


def test_run_length_is_a_round_count_set_by_seconds_not_by_the_clock(monkeypatch):
    served = []

    class Counted(workloads.Workload):
        name = "counted"
        round_s = 2.0

        def setup(self, rng):
            pass

        def round(self, index):
            served.append(index)
            return [workloads.Request("noop", lambda: None, lambda out: checks.Outcome(True))]

    # A clock that jumps an hour per reading: a run that watched it would stop early.
    ticks = itertools.count(0, 3600)
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(ticks)))
    result = run.timed_run(Counted(), 1, 9.0)
    assert served == [0, 1, 2, 3]                   # round(9 / 2) rounds
    assert result["attempted"] == 4
    assert run.rounds_for(Counted(), 0.0) == run.MIN_ROUNDS


def test_exact_certify_tail_falls_inside_the_half_second_group():
    bench = workloads.ExactCertify()
    rounds = run.rounds_for(bench, 20)
    # HEAVY lists the slowest first: three leaders, then copies of one 0.5 s request.
    leaders, group = bench.HEAVY[:3], bench.HEAVY[3:8]
    assert set(group) == {("proxy", 20, 0)}
    # The tail is the 11th slowest request of the run: past every leader and
    # at least five places before the group ends.
    assert rounds * len(leaders) + 5 <= 11 <= rounds * (len(leaders) + len(group)) - 5


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((benchpath.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
