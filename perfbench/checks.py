"""Output checks with the tolerances pinned by the CLI records and acceptance criteria.

Every request ends in an ``Outcome``.  ``ok`` says whether the output met its
pinned tolerance.  ``wrong`` marks an answer that is refuted rather than
merely inaccurate: an exact identity or exact reference that does not hold,
a record that claims a pass its own numbers do not support, or an exception
from a request whose workload declares no such exception a known defect
(``run.run_round``).  A float solve that reports a residual over its
tolerance is a failure, not a wrong answer, because the program said so
itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerances pinned by the CLI records (dbarn/cli.py) and the acceptance
# criteria (dbarn/acceptance.py); the benchmark never loosens them.
CLI_TOLERANCES = {
    "canonical": {"residual": 1e-10, "kernel_orthogonality": 1e-10},
    "neumann": {"residual": 1e-8, "canonical_match": 1e-8},
    "hodge": {"orthogonality_defect": 1e-10},
}
PROXY_REL_TOL = 1e-12          # exact proxy against its recorded reference
INNER_REL_TOL = 1e-12          # criterion 6
GREENS_TOL = 1e-10             # criterion 7
ADJOINT_TOL = 1e-12            # criterion 8
NEUMANN_TOL = 1e-8             # criteria 9 and 10, neumann CLI record
CANONICAL_TOL = 1e-10          # canonical CLI record
HODGE_TOL = 1e-10              # hodge CLI record
BLOWUP_SLOPE = (-0.35, -0.15)  # criterion 11
BLOWUP_NORM_RATIO = 1.5        # criterion 11
DOMAIN_TOL = 1e-5              # criterion 12
BESSEL_TOL = 1e-6              # criterion 13
K_RATIO_SPREAD = 4.0           # criterion 13
INTERVAL_TOL = 1e-10           # criterion 14
FD_RATIO = (3.5, 4.5)          # criterion 14
COLD_WARM_REL_TOL = 1e-10      # a cold K operator must reproduce the warm one

REFERENCES_PATH = Path(__file__).with_name("references.json")


class HarnessError(RuntimeError):
    """A fault of the benchmark itself; it stops the run instead of counting
    as a failed request."""


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    note: str = ""
    evidence: dict[str, float] = field(default_factory=dict)


def failed(note: str, wrong: bool = False, **evidence: float) -> Outcome:
    return Outcome(False, wrong, note, dict(evidence))


def exact(ok: bool, note: str, **evidence: float) -> Outcome:
    """An exact claim: a miss is a wrong answer."""
    return Outcome(ok, not ok, "" if ok else note, dict(evidence))


def within(value: float, tol: float) -> bool:
    return math.isfinite(value) and value <= tol


def load_references() -> dict[str, dict[str, float]]:
    return json.loads(REFERENCES_PATH.read_text())


def check_proxy(value: float, reference: float) -> Outcome:
    rel = abs(value - reference) / abs(reference)
    return exact(rel <= PROXY_REL_TOL, f"proxy {value!r} != reference {reference!r}",
                 proxy_rel_error=rel)


def parse_cli_record(stdout: str) -> dict | None:
    """The JSON record at the start of a CLI run's standard output, or None."""
    start = stdout.find("{")
    if start < 0:
        return None
    try:
        record, _ = json.JSONDecoder().raw_decode(stdout, start)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def check_cli_record(command: str, returncode: int, stdout: str, error: str = "") -> Outcome:
    """Pass iff the process exits 0 with ``pass: true`` and every gated value
    lies within the tolerance pinned for its subcommand.  ``error`` is the last
    line the process wrote to standard error, kept in the failure note."""
    record = parse_cli_record(stdout)
    if record is None:
        # Exit 0 without a record is a broken output; any other exit is a
        # reported failure (a traceback or an error line).
        return failed(f"exit {returncode}, no JSON record: {error}", wrong=returncode == 0)
    claimed = returncode == 0 and record.get("pass") is True
    evidence = {}
    met = True
    for key, tol in CLI_TOLERANCES[command].items():
        entry = record.get(key)
        if not isinstance(entry, dict):
            return failed(f"record lacks {key}", wrong=claimed)
        value = float(entry.get("value", math.nan))
        evidence[key] = value
        met &= within(value, tol) and float(entry.get("tolerance", math.inf)) <= tol
    if claimed and met:
        return Outcome(True, evidence=evidence)
    note = f"exit {returncode}, pass={record.get('pass')}, " + ", ".join(
        f"{k}={v:.3g}" for k, v in evidence.items())
    return failed(note, wrong=claimed, **evidence)


def relative_max_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def gram_norm(matrix: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(max(float(np.real(np.conj(v) @ (matrix @ v))), 0.0))


def check_canonical(residual: float, orthogonality: float,
                    recomputed: float) -> Outcome:
    """The reported numbers must meet the canonical record's tolerance and the
    residual recomputed from the returned coefficients must agree."""
    evidence = {"neumann.canonical_solve_dbar.max_residual": recomputed}
    reported_ok = within(residual, CANONICAL_TOL) and within(orthogonality, CANONICAL_TOL)
    if reported_ok and within(recomputed, CANONICAL_TOL):
        return Outcome(True, evidence=evidence)
    return failed(f"residual {residual:.3g} (recomputed {recomputed:.3g}), "
                  f"kernel orthogonality {orthogonality:.3g}",
                  wrong=reported_ok, **evidence)


def check_neumann(residual: float, canonical_match: float, finite: bool) -> Outcome:
    evidence = {"neumann.neumann_solve.max_residual": residual}
    reported_ok = within(residual, NEUMANN_TOL) and within(canonical_match, NEUMANN_TOL)
    if reported_ok and finite:
        return Outcome(True, evidence=evidence)
    return failed(f"residual {residual:.3g}, canonical match {canonical_match:.3g}",
                  wrong=reported_ok, **evidence)


def hodge_defect(gram: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> float:
    """The hodge CLI record's normalized orthogonality defect."""
    n1, n2 = gram_norm(gram, f1), gram_norm(gram, f2)
    cross = abs(complex(np.conj(f2) @ (gram @ f1)))
    if min(n1, n2) > 1e-12 * max(n1, n2, 1.0):
        return cross / (n1 * n2)
    return 0.0


def check_hodge(defect: float, split_error: float) -> Outcome:
    evidence = {"neumann.hodge_decompose.max_defect": defect}
    if split_error > 1e-12:
        return failed(f"parts do not sum to f ({split_error:.3g})", wrong=True, **evidence)
    if within(defect, HODGE_TOL):
        return Outcome(True, evidence=evidence)
    return failed(f"orthogonality defect {defect:.3g}", **evidence)


def check_adjoint(defect: float) -> Outcome:
    evidence = {"neumann.adjoint.max_defect": defect}
    if within(defect, ADJOINT_TOL):
        return Outcome(True, evidence=evidence)
    return failed(f"adjoint defect {defect:.3g}", **evidence)
