"""The acceptance gate: one test per exit criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (or ``dbarn verify-all``); each
criterion prints its one-line pass/fail summary with the measured evidence.
"""

import ast
from pathlib import Path

import pytest

from dbarn import tolerances
from dbarn.acceptance import CRITERIA, DEFAULT_SEED, run_criterion


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(number):
    result = run_criterion(number, DEFAULT_SEED)
    print(result.summary())
    assert result.passed, result.summary()


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
SHARED = ["INNER_REL_TOL", "GREENS_TOL", "ADJOINT_TOL", "NEUMANN_TOL", "CANONICAL_TOL",
          "HODGE_TOL", "BLOWUP_SLOPE", "BLOWUP_NORM_RATIO", "DOMAIN_TOL", "BESSEL_TOL",
          "K_RATIO_SPREAD", "INTERVAL_TOL", "FD_RATIO"]


def test_pinned_tolerances_equal_the_benchmark_copies():
    # the benchmark's output checks keep their own literal copies; read them as text
    values = {node.targets[0].id: node.value for node in ast.parse(CHECKS.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    for name in SHARED:
        assert getattr(tolerances, name) == ast.literal_eval(values[name]), name
    assert ast.literal_eval(values["CLI_TOLERANCES"]) == {
        "canonical": {"residual": tolerances.CANONICAL_TOL,
                      "kernel_orthogonality": tolerances.CANONICAL_TOL},
        "neumann": {"residual": tolerances.NEUMANN_TOL,
                    "canonical_match": tolerances.NEUMANN_TOL},
        "hodge": {"orthogonality_defect": tolerances.HODGE_TOL},
    }
