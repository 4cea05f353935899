"""The seeded input generator: degree bound and byte-identical output per seed."""

import numpy as np
import pytest

import benchpath  # noqa: F401
import inputs
from dbarn import forms
from dbarn.sobolev import MonomialBasis


@pytest.mark.parametrize("d", [1, 2, 5, 15, 25, 40])
def test_cli_form_total_degree_is_at_most_d_minus_1(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        phi = forms.form_from_text(inputs.cli_form_text(rng, d))
        assert (phi.n, phi.q) == (1, 1)
        comp = phi.component((1,))
        assert not comp.is_zero()
        assert comp.degree() <= d - 1
        # the form lies in the CLI's form basis, so coefficient extraction works
        MonomialBasis(d - 1).coefficients_of(comp)


def test_cli_form_is_byte_identical_for_a_seed():
    texts = [inputs.cli_form_text(np.random.default_rng(77), 30) for _ in range(2)]
    assert texts[0] == texts[1]
    assert texts[0] != inputs.cli_form_text(np.random.default_rng(78), 30)


def test_random_form_terms_respect_degree_and_index_layout():
    rng = np.random.default_rng(5)
    comps = inputs.random_form_terms(rng, 3, 2, 6)
    assert sorted(comps) == [(1, 2), (1, 3), (2, 3)]
    for terms in comps.values():
        for _, _, a, b in terms:
            assert len(a) == len(b) == 3
            assert sum(a) + sum(b) <= 6


@pytest.mark.parametrize("d", [0, 1, 4, 9, 24])
def test_same_charge_pairs_matches_brute_force(d):
    exps = MonomialBasis(d).exponents
    brute = sum(1 for i, (a, b) in enumerate(exps) for (c, e) in exps[i:] if a - b == c - e)
    assert inputs.same_charge_pairs(d) == brute
