from fractions import Fraction

import numpy as np
import pytest

from dbarn import neumann, sobolev
from dbarn.exact import (
    _factor,
    _integer_rows,
    _lu,
    _normal_solution,
    _Scaled,
    _setup,
    _substitute,
    canonical_exact,
    hodge_split,
    neumann_exact,
    neumann_operator_norm_proxy_exact,
    verify_gram_positive_definite_exact,
)
from dbarn.forms import CPolynomial, CRational, FormPoly, random_cpolynomial
from dbarn.geometry import SampledField, default_geometry, ws_norm_sampled
from dbarn.neumann import (
    MAX_BLOWUP_POINTS,
    DiscreteComplex,
    _kernel_cosine,
    _operators,
    adjoint,
    blowup_experiment,
    canonical_solve_dbar,
    check_domain_condition,
    domain_projection,
    greens_identity_check,
    hodge_decompose,
    neumann_solve,
)
from dbarn.sobolev import MAX_S, MonomialBasis, SobolevGram, cached_gram, charge_exponents
from oracles import (
    bareiss_gauss_jordan,
    cauchy_minor,
    exact_adjoint,
    exact_galerkin_solutions,
    exact_hodge_certificate,
    exact_hodge_split,
    fraction_solve,
    gram_block,
    gram_positive_definite_exact,
    positive_definite_exact,
)

DZBAR = FormPoly(1, 1, {(1,): CPolynomial.const(1, 1)})


@pytest.fixture(scope="module")
def cx1():
    return DiscreteComplex.build(12, 1)


# -- the discrete complex -----------------------------------------------------------


def test_dbar_matrix_entries(cx1):
    # dbar(z^a zbar^b) = b z^a zbar^(b-1), exactly
    for j, (a, b) in enumerate(cx1.basis.exponents):
        col = cx1.dbar_matrix[:, j]
        if b == 0:
            assert not col.any()
        else:
            i = cx1.form_basis.index_of(a, b - 1)
            assert col[i] == b and np.count_nonzero(col) == 1


def test_degree_caps():
    with pytest.raises(ValueError, match=f"0..{MAX_S}"):
        DiscreteComplex.build(10, MAX_S + 1)
    with pytest.raises(ValueError, match="1..40"):
        DiscreteComplex.build(50, 1)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: verify_gram_positive_definite_exact(-3, 0), "1..40", id="pd-d-negative"),
    pytest.param(lambda: neumann_operator_norm_proxy_exact(0, 1), "1..40", id="proxy-d-0"),
    pytest.param(lambda: neumann_operator_norm_proxy_exact(-2, 1), "1..40", id="proxy-d-negative"),
    pytest.param(lambda: neumann_operator_norm_proxy_exact(41, 1), "1..40", id="proxy-d-41"),
    pytest.param(lambda: neumann_solve(np.ones(3)), "missing s", id="neumann-no-size"),
    pytest.param(lambda: neumann_solve(np.ones(3), s=1), "missing d", id="neumann-no-d"),
    pytest.param(lambda: canonical_exact(DZBAR, d=4), "missing s", id="canonical-form-no-s"),
    pytest.param(lambda: hodge_decompose(np.ones(15), d=4), "missing s", id="hodge-no-s"),
])
def test_exact_entry_points_check_their_size(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def gram_with_matrix(s, basis, matrix):
    gram = SobolevGram(s, basis)
    gram.matrix = matrix
    return gram


def test_adjoint_rejects_a_foreign_operator_or_gram():
    cx = DiscreteComplex.build(6, 1)
    eye = gram_with_matrix(1, cx.basis, np.eye(cx.basis.dim))
    other = DiscreteComplex.build(6, 2)
    off_pattern = cx.dbar_matrix.copy()  # every dbar entry, and one more off the pattern
    off_pattern[0, 0] = 1.0
    for args in [(2 * cx.dbar_matrix, cx.gram, cx.form_gram),
                 (cx.dbar_matrix[:, :-1], cx.gram, cx.form_gram),
                 (cx.dbar_matrix, eye, cx.form_gram),
                 (cx.dbar_matrix, cx.gram, other.form_gram),
                 (cx.dbar_matrix, cx.gram, cx.gram),
                 (off_pattern, cx.gram, cx.form_gram)]:
        with pytest.raises(ValueError, match="DiscreteComplex"):
            adjoint(*args)
    # a Gram pair equal to the complex's, though not the cached objects, is accepted
    copies = [gram_with_matrix(1, g.basis, g.matrix.copy()) for g in (cx.gram, cx.form_gram)]
    assert (adjoint(cx.dbar_matrix, *copies) != adjoint(cx.dbar_matrix, cx.gram,
                                                        cx.form_gram)).nnz == 0


def test_adjoint_defining_property(rng):
    for s in (0, 1, 2):
        cx = DiscreteComplex.build(10, s)
        a_star = adjoint(cx.dbar_matrix, cx.gram, cx.form_gram)
        for _ in range(20):
            v = rng.standard_normal(cx.basis.dim) + 1j * rng.standard_normal(cx.basis.dim)
            w = (rng.standard_normal(cx.form_basis.dim)
                 + 1j * rng.standard_normal(cx.form_basis.dim))
            lhs = cx.form_gram.inner(cx.dbar_matrix @ v, w)
            rhs = cx.gram.inner(v, a_star @ w)
            assert abs(lhs - rhs) <= 1e-12 * cx.gram.norm(v) * cx.form_gram.norm(w)


def test_the_dense_dbar_is_shared_per_degree_and_read_only():
    cx = DiscreteComplex.build(9, 0)
    assert DiscreteComplex.build(9, 2).dbar_matrix is cx.dbar_matrix
    with pytest.raises(ValueError, match="read-only"):
        cx.dbar_matrix[0, 1] = 5.0


def test_adjoint_hands_out_the_stores_read_only_operator():
    cx = DiscreteComplex.build(8, 1)
    a_star = adjoint(cx.dbar_matrix, cx.gram, cx.form_gram)
    assert adjoint(cx.dbar_matrix, cx.gram, cx.form_gram) is a_star
    # a copy of the dbar is not the shared one, and is accepted by its pattern
    assert adjoint(cx.dbar_matrix.copy(), cx.gram, cx.form_gram) is a_star
    for op in _operators(cx):
        for part in (op.data, op.indices, op.indptr):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0


def test_a_warm_round_builds_no_per_degree_structure(rng):
    per_degree = (sobolev._graded_exponents, neumann._dbar_pattern, neumann._dense_dbar)

    def one_round():
        for d in (4, 8, 12):
            for s in (0, 1, 2):
                cx = DiscreteComplex.build(d, s)
                adjoint(cx.dbar_matrix, cx.gram, cx.form_gram)
                f = rng.standard_normal(cx.form_basis.dim)
                neumann_solve(f, s=s, d=d)
                canonical_solve_dbar(f, s=s, d=d)
                hodge_decompose(rng.standard_normal(cx.basis.dim), s=s, d=d)

    one_round()
    misses = [cached.cache_info().misses for cached in per_degree]
    one_round()
    assert [cached.cache_info().misses for cached in per_degree] == misses


# -- canonical solutions --------------------------------------------------------------


def test_canonical_zero(cx1):
    sol = canonical_solve_dbar(np.zeros(cx1.form_basis.dim), cx=cx1)
    assert not sol.coeffs.any()


@pytest.mark.parametrize("s", range(MAX_S + 1))
def test_canonical_dzbar_is_zbar(s):
    cx = DiscreteComplex.build(12, s)
    sol = canonical_exact(DZBAR, s=s, d=12)
    expect = np.zeros(cx.basis.dim, dtype=complex)
    expect[cx.basis.index_of(0, 1)] = 1.0
    assert np.max(np.abs(sol.coeffs - expect)) < 1e-8
    assert sol.residual < 1e-10
    assert sol.kernel_orthogonality < 1e-10


def test_canonical_z_dzbar():
    cx = DiscreteComplex.build(12, 0)
    f = FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)})
    sol = canonical_exact(f, s=0, d=12)
    expect = np.zeros(cx.basis.dim, dtype=complex)
    expect[cx.basis.index_of(1, 1)] = 1.0
    expect[cx.basis.index_of(0, 0)] = -0.5
    assert np.max(np.abs(sol.coeffs - expect)) < 1e-8


def test_canonical_orthogonality_random(cx1, rng):
    for _ in range(10):
        f = (rng.standard_normal(cx1.form_basis.dim)
             + 1j * rng.standard_normal(cx1.form_basis.dim))
        sol = canonical_solve_dbar(f, cx=cx1)
        assert sol.residual < 1e-10
        assert sol.kernel_orthogonality < 1e-10 * cx1.form_gram.norm(f)


@pytest.mark.parametrize("s", range(MAX_S + 1))
def test_canonical_at_the_degree_cap_needs_no_factorization(s, rng):
    cx = DiscreteComplex.build(40, s)
    with pytest.raises(ValueError, match="not numerically positive definite"):
        cx.gram.cholesky()
    for f in (DZBAR, FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)}),
              FormPoly.from_components(1, 1, {(1,): random_cpolynomial(rng, 1, 6)})):
        sol = canonical_exact(f, s=s, d=40)
        assert sol.residual < 1e-10
        assert sol.kernel_orthogonality < 1e-10


@pytest.mark.parametrize("s", range(MAX_S + 1))
def test_canonical_solution_does_not_depend_on_the_degree(s):
    # problem (3, s) on the disc, in closed form: per charge the canonical solution is
    # f / b projected off the one holomorphic monomial of its charge, and every basis
    # that holds f holds both, so each degree d > deg f gives the same coefficients
    rng = np.random.default_rng(1800 + s)
    for _ in range(3):
        terms = {}
        for _ in range(4):
            b = int(rng.integers(0, 4))
            terms[((int(rng.integers(0, 4 - b)),), (b,))] = CRational(
                Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
        f = FormPoly(1, 1, {(1,): CPolynomial(1, terms)})
        solutions = set()
        for d in range(f.component((1,)).degree() + 1, 41):
            coeffs = canonical_exact(f, s=s, d=d).coeffs
            solutions.add(frozenset((e, c) for e, c in zip(MonomialBasis(d).exponents, coeffs)
                                    if c))
        assert len(solutions) == 1, solutions


@pytest.mark.parametrize("d", [24, 32, 40])
def test_float_kernel_orthogonality_is_a_cosine(d):
    # normalized by |u|_s |z^k|_s it stays at rounding level as |u|_s grows
    cx = DiscreteComplex.build(d, 2)
    f = np.random.default_rng(d).standard_normal(cx.form_basis.dim)
    sol = canonical_solve_dbar(f, cx=cx)
    assert sol.residual < 1e-12
    assert sol.kernel_orthogonality <= 1e-12


def test_float_kernel_orthogonality_sees_a_holomorphic_part(cx1):
    # dbar kills z^2, so the canonical solution of dbar (z^2 + zbar) = 1 is
    # zbar; measured on u = zbar + z^2 the cosine is |z^2|_s / |u|_s
    f = np.zeros(cx1.form_basis.dim)
    f[cx1.form_basis.index_of(0, 0)] = 1.0
    sol = canonical_solve_dbar(f, cx=cx1)
    u = sol.coeffs.copy()
    u[cx1.basis.index_of(2, 0)] += 1.0
    z2 = np.zeros(cx1.basis.dim)
    z2[cx1.basis.index_of(2, 0)] = 1.0
    assert abs(_kernel_cosine(cx1, u) - cx1.gram.norm(z2) / cx1.gram.norm(u)) < 1e-12


def relative_error(coeffs: np.ndarray, exact: np.ndarray) -> float:
    return float(np.max(np.abs(coeffs - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("s", range(MAX_S + 1))
def test_galerkin_solutions_match_exact_oracle(s, rng):
    # the float solves apply exact operators rounded once, so they stay at
    # rounding level where the Gram's float64 factorization has broken down
    for d in (12, 16, 20, 24):
        cx = DiscreteComplex.build(d, s)
        f = rng.standard_normal(cx.form_basis.dim) + 1j * rng.standard_normal(cx.form_basis.dim)
        canonical, neumann = exact_galerkin_solutions(f, d, s)
        assert relative_error(canonical_solve_dbar(f, cx=cx).coeffs, canonical) <= 1e-15
        assert relative_error(neumann_solve(f, cx=cx).coeffs, neumann) <= 1e-15
        g = rng.standard_normal(cx.basis.dim) + 1j * rng.standard_normal(cx.basis.dim)
        for part, exact in zip(hodge_decompose(g, cx=cx), exact_hodge_split(g, d, s)):
            assert relative_error(part, exact) <= 1e-15
        a_star = adjoint(cx.dbar_matrix, cx.gram, cx.form_gram).toarray()
        assert relative_error(a_star, exact_adjoint(d, s)) <= 1e-15


def exact_form(vec: np.ndarray, basis: MonomialBasis) -> FormPoly:
    """The (0,1)-form whose coefficients are exactly the floats of vec."""
    return FormPoly(1, 1, {(1,): CPolynomial(1, {
        ((a,), (b,)): CRational(Fraction(c.real), Fraction(c.imag))
        for (a, b), c in zip(basis.exponents, vec)})})


def test_float_solves_at_the_degree_cap_match_the_exact_path(rng):
    # the Gram's float64 factorization fails here; the float solves agree with
    # the exact per-charge solves of the same (dyadic) coefficients
    cx = DiscreteComplex.build(40, 1)
    f = rng.standard_normal(cx.form_basis.dim) + 1j * rng.standard_normal(cx.form_basis.dim)
    exact = neumann_exact(exact_form(f, cx.form_basis), s=1, d=40).coeffs
    assert relative_error(neumann_solve(f, cx=cx).coeffs, exact) <= 1e-15
    exact = canonical_exact(exact_form(f, cx.form_basis), s=1, d=40).coeffs
    assert relative_error(canonical_solve_dbar(f, cx=cx).coeffs, exact) <= 1e-15
    g = rng.standard_normal(cx.basis.dim) + 1j * rng.standard_normal(cx.basis.dim)
    split = hodge_split(exact_form(g, cx.basis), s=1, d=40)
    for part, exact in zip(hodge_decompose(g, cx=cx), (split.range_part, split.orthogonal_part)):
        assert relative_error(part, exact) <= 1e-15
    assert np.all(np.isfinite(adjoint(cx.dbar_matrix, cx.gram, cx.form_gram).data))


# -- the Neumann solve ----------------------------------------------------------------


def test_neumann_zero(cx1):
    sol = neumann_solve(np.zeros(cx1.form_basis.dim), cx=cx1)
    assert not sol.coeffs.any()


@pytest.mark.parametrize("s", range(MAX_S + 1))
def test_neumann_reconstruction(s, rng):
    cx = DiscreteComplex.build(12, s)
    for _ in range(20):
        f = (rng.standard_normal(cx.form_basis.dim)
             + 1j * rng.standard_normal(cx.form_basis.dim))
        sol = neumann_solve(f, cx=cx)
        assert sol.residual < 1e-8
        assert sol.canonical_match < 1e-8


def test_neumann_proxy_stable_across_degrees():
    # the criterion-9 grid, at every s
    for s in range(MAX_S + 1):
        vals = [neumann_operator_norm_proxy_exact(d, s) for d in (10, 20, 40)]
        assert max(vals) / min(vals) < 2.0


def test_exact_positive_definiteness():
    assert verify_gram_positive_definite_exact(12, 0)
    assert verify_gram_positive_definite_exact(8, 2)
    assert verify_gram_positive_definite_exact(40, 2)


# -- the exact store of a (d, s) ---------------------------------------------------------


@pytest.fixture
def cold_store():
    """An empty Gram cache, emptied again afterwards (a test may corrupt a store)."""
    sobolev._GRAM_CACHE.clear()
    yield
    sobolev._GRAM_CACHE.clear()


@pytest.mark.parametrize("s", range(MAX_S + 1))
@pytest.mark.parametrize("d", [1, 2, 12, 40])
def test_store_positive_definiteness_matches_the_standalone_oracle(d, s):
    assert verify_gram_positive_definite_exact(d, s) == gram_positive_definite_exact(d, s)
    assert verify_gram_positive_definite_exact(d, s)


@pytest.mark.parametrize("d", [10, 12, 20, 30])
def test_store_minors_are_the_cauchy_determinants(d):
    # the block rows are den G, so the k-th pivot of a block's factor is den^k times
    # G's k-th leading minor, on every block, the 1 x 1 blocks of charge +-d included
    gram = cached_gram(d, 0)
    for charge in range(-d, d + 1):
        bs = [b for _, b in charge_exponents(charge, d)]
        minors = [row[k] for k, row in enumerate(_factor(gram, charge))]
        assert len(minors) == len(bs)
        for k, m in enumerate(minors, start=1):
            assert Fraction(m, gram.block(charge)[1]**k) == cauchy_minor(bs[:k], charge), \
                (charge, k)


def test_a_block_made_indefinite_fails_the_pivot_reader(cold_store):
    # charge 2 at degree 12: a 6 x 6 block past its 5 x 5 form block
    gram = cached_gram(12, 1)
    block, den = gram.block(2)
    assert (len(block), _setup(gram, 2).nf) == (6, 5)
    assert verify_gram_positive_definite_exact(12, 1)
    corner = [row[:] for row in block]
    corner[-1][-1] = 0  # the last pivot, det(form) times -b^T F^-1 b, is negative
    form = [row[:] for row in block]
    form[1][1] = 0  # the second pivot is -block[0][1]^2
    singular = [row[:] for row in block]
    singular[0][0] = 0  # a zero first pivot stops the elimination
    for broken in (corner, form, singular):
        gram._blocks[2] = (broken, den)
        del gram.factors[2]
        assert not verify_gram_positive_definite_exact(12, 1), broken


@pytest.fixture
def factor_calls(monkeypatch):
    """The rows of every block ``_lu`` factors, in call order."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return _lu(rows)

    monkeypatch.setattr("dbarn.exact._lu", counted)
    return calls


@pytest.fixture
def substitute_calls(monkeypatch):
    """The number of right-hand-side rows of every ``_substitute``, in call order."""
    calls = []

    def counted(lu, rhs):
        calls.append(len(rhs))
        return _substitute(lu, rhs)

    monkeypatch.setattr("dbarn.exact._substitute", counted)
    return calls


def test_a_repeated_certificate_runs_no_elimination(cold_store, factor_calls):
    proxy = neumann_operator_norm_proxy_exact(20, 0)
    assert len(factor_calls) == 39  # one per form charge
    assert verify_gram_positive_definite_exact(20, 0)  # reads the proxy's factors
    assert len(factor_calls) == 41  # and the 1 x 1 blocks of charge +-20
    assert neumann_operator_norm_proxy_exact(20, 0) == proxy
    assert len(factor_calls) == 41
    assert verify_gram_positive_definite_exact(10, 2)
    assert len(factor_calls) == 41 + 21
    neumann_operator_norm_proxy_exact(10, 2)
    assert verify_gram_positive_definite_exact(10, 2)
    assert len(factor_calls) == 41 + 21


def test_clearing_the_gram_cache_drops_the_store(cold_store, factor_calls):
    neumann_operator_norm_proxy_exact(10, 1)
    store = sobolev._GRAM_CACHE[(10, 1)]
    assert sorted(store.setups) == sorted(store.factors) == list(range(-9, 10))
    sobolev._GRAM_CACHE.clear()
    assert cached_gram(10, 1) is not store
    neumann_operator_norm_proxy_exact(10, 1)
    assert len(factor_calls) == 2 * 19


def test_each_block_is_factored_at_most_once(cold_store, factor_calls, rng):
    phi = FormPoly.from_components(1, 1, {(1,): random_cpolynomial(rng, 1, 5)})
    cx = DiscreteComplex.build(12, 1)
    for _ in range(2):
        neumann_exact(phi, s=1, d=12)
        hodge_split(phi, s=1, d=12)
        neumann_operator_norm_proxy_exact(12, 1)
        verify_gram_positive_definite_exact(12, 1)
        neumann_solve(np.ones(cx.form_basis.dim), cx=cx)  # the float operators
    blocks = [cx.gram.block(charge)[0] for charge in range(-12, 13)]
    assert sorted(map(id, factor_calls)) == sorted(map(id, blocks))


def test_a_repeated_exact_solve_runs_no_factorization(cold_store, factor_calls):
    z_dzbar = FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)})
    first = neumann_exact(z_dzbar, s=2, d=40)
    assert len(factor_calls) == 2  # the blocks of charges 1 and 0
    assert np.array_equal(neumann_exact(z_dzbar, s=2, d=40).coeffs, first.coeffs)
    assert len(factor_calls) == 2
    split = hodge_split(z_dzbar, s=2, d=40)
    assert len(factor_calls) == 2  # charge 1's factor again
    phi = FormPoly(1, 1, {(1,): CPolynomial.monomial(1, (3,), (1,))})  # charge 2
    hodge_split(phi, s=2, d=40)
    assert len(factor_calls) == 3
    assert np.array_equal(hodge_split(z_dzbar, s=2, d=40).range_part, split.range_part)
    hodge_split(phi, s=2, d=40)
    assert len(factor_calls) == 3


def test_a_cold_certificate_runs_no_substitution(cold_store, substitute_calls):
    assert verify_gram_positive_definite_exact(20, 2)
    assert substitute_calls == []
    neumann_operator_norm_proxy_exact(20, 2)
    assert len(substitute_calls) == 39  # one W per form charge
    neumann_operator_norm_proxy_exact(20, 2)
    assert len(substitute_calls) == 39


def test_exact_entry_points_build_no_dense_matrix(cold_store, rng):
    phi = FormPoly.from_components(1, 1, {(1,): random_cpolynomial(rng, 1, 5)})
    neumann_operator_norm_proxy_exact(12, 1)
    verify_gram_positive_definite_exact(12, 1)
    canonical_exact(phi, s=1, d=12)
    neumann_exact(phi, s=1, d=12)
    hodge_split(phi, s=1, d=12)
    assert list(sobolev._GRAM_CACHE) == [(12, 1)]
    assert "matrix" not in vars(sobolev._GRAM_CACHE[(12, 1)])


def test_a_one_charge_form_builds_only_its_charges(cold_store):
    # z dzbar has charge 1: its set-up reads the blocks of charges 1 and 0
    neumann_exact(FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)}), s=2, d=40)
    store = sobolev._GRAM_CACHE[(40, 2)]
    assert list(store.setups) == [1]
    assert sorted(store._blocks) == sorted(store.factors) == [0, 1]


# -- the exact backend against Fraction Gauss-Jordan ------------------------------------


def three_solve_proxy_exact(d: int, s: int) -> float:
    """Reference proxy: X = G_func^-1 A^T, M = A X, Y = M^-1, W = G_form^-1 Y."""
    best = Fraction(0)
    for charge in range(-(d - 1), d):
        form_exps = charge_exponents(charge, d - 1)
        func_exps = charge_exponents(charge - 1, d)
        form_index = {e: i for i, e in enumerate(form_exps)}
        nf, nu = len(form_exps), len(func_exps)
        a_mat = [[Fraction(0)] * nu for _ in range(nf)]
        for j, (a, b) in enumerate(func_exps):
            if b:
                a_mat[form_index[(a, b - 1)]][j] = Fraction(b)
        g_func = gram_block(func_exps, s)
        g_form = gram_block(form_exps, s)
        a_t = [list(col) for col in zip(*a_mat)]
        x = fraction_solve(g_func, a_t)
        m = [[sum(a_mat[i][t] * x[t][j] for t in range(nu)) for j in range(nf)]
             for i in range(nf)]
        eye = [[Fraction(int(i == j)) for j in range(nf)] for i in range(nf)]
        y = fraction_solve(m, eye)
        w = fraction_solve(g_form, y)
        for k in range(nf):
            num = sum(y[t][k] * w[t][k] for t in range(nf))
            best = max(best, num / g_form[k][k])
    return float(best) ** 0.5


@pytest.mark.parametrize("s", range(MAX_S + 1))
def test_proxy_equals_three_solve_reference(s):
    for d in range(1, 15):
        assert neumann_operator_norm_proxy_exact(d, s) == three_solve_proxy_exact(d, s)


@pytest.mark.parametrize("d,s", [(5, 0), (12, 1), (20, 2)])
def test_store_substitutions_match_the_gauss_jordan_oracle(d, s, cold_store):
    # W = det G_form^-1 Y and the Neumann u = G_form^-1 Y f, integer for integer
    gram = cached_gram(d, s)
    for charge in range(1 - d, d):
        cs = _setup(gram, charge)
        y, y_den = cs.normal_inverse()
        work = [g + r for g, r in zip(cs.form, y)]
        det = bareiss_gauss_jordan(work)[-1]
        assert _normal_solution(gram, charge) == ([row[cs.nf:] for row in work], det, y_den)
        f = _Scaled(list(range(1, cs.nf + 1)), [(-1) ** k for k in range(cs.nf)], 3)
        rhs = f.times(y, y_den)
        work = [g + [a, b] for g, a, b in zip(cs.form, rhs.re, rhs.im)]
        det = bareiss_gauss_jordan(work)[-1]
        u = rhs.solved(_factor(gram, charge), cs.den)
        assert (u.re, u.im, u.den) == ([cs.den * row[-2] for row in work],
                                       [cs.den * row[-1] for row in work], det * rhs.den)


def random_rational_spd(rng, n: int, m: int
                        ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """B^T B + I with small rational B, and an n x m rational right-hand side."""
    def draw(rows, cols):
        return [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                 for _ in range(cols)] for _ in range(rows)]
    b = draw(n, n)
    mat = [[sum(b[t][i] * b[t][j] for t in range(n)) + (i == j) for j in range(n)]
           for i in range(n)]
    return mat, draw(n, m)


def gauss_jordan_solve(mat: list[list[Fraction]], rhs: list[list[Fraction]]
                       ) -> list[list[Fraction]]:
    """mat^-1 rhs through the oracle's fraction-free Gauss-Jordan elimination."""
    n = len(mat)
    mi, m_den = _integer_rows(mat)
    ri, r_den = _integer_rows(rhs)
    rows = [a + b for a, b in zip(mi, ri)]
    det = bareiss_gauss_jordan(rows)[-1]
    assert all(rows[i][j] == det * (i == j) for i in range(n) for j in range(n))
    return [[Fraction(x * m_den, det * r_den) for x in row[n:]] for row in rows]


def lu_solve(mat: list[list[Fraction]], rhs: list[list[Fraction]]
             ) -> list[list[Fraction]]:
    """A^-1 rhs for the leading len(rhs) x len(rhs) part A of mat, by substitution
    against the library's LU of the whole of mat."""
    mi, m_den = _integer_rows(mat)
    ri, r_den = _integer_rows(rhs)
    x, det = _substitute(_lu(mi), ri)
    return [[Fraction(v * m_den, det * r_den) for v in row] for row in x]


def test_integer_solve_matches_fraction_gauss_jordan(rng):
    for n, m in [(1, 1), (2, 3), (5, 4), (9, 9), (12, 2)]:
        mat, rhs = random_rational_spd(rng, n, m)
        for solve in (gauss_jordan_solve, lu_solve):
            assert solve(mat, rhs) == fraction_solve(mat, rhs), solve
        # leading parts: the factor of the whole block serves each of them
        for k in range(1, n):
            lead = [row[:k] for row in mat[:k]]
            assert lu_solve(mat, rhs[:k]) == fraction_solve(lead, rhs[:k]), k


def laplace_det(mat: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum((-1) ** j * x * laplace_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, x in enumerate(mat[0]))


def test_bareiss_minors_are_the_leading_principal_minors(rng):
    mat, _ = random_rational_spd(rng, 6, 0)
    rows, _ = _integer_rows(mat)
    minors = bareiss_gauss_jordan([row[:] for row in rows])
    assert minors == [laplace_det([row[:k] for row in rows[:k]]) for k in range(1, 7)]
    assert [row[k] for k, row in enumerate(_lu(rows))] == minors
    assert positive_definite_exact(rows)


def test_singular_system_raises():
    b = [[Fraction(1, 2), Fraction(1, 3), Fraction(0)],
         [Fraction(2), Fraction(-1), Fraction(1, 5)]]
    mat = [[sum(b[t][i] * b[t][j] for t in range(2)) for j in range(3)] for i in range(3)]
    for solve in (gauss_jordan_solve, lu_solve):
        with pytest.raises(ValueError, match="zero leading principal minor"):
            solve(mat, [[Fraction(1)], [Fraction(2)], [Fraction(3)]])


def test_minors_route_rejects_non_positive_definite():
    def positive_definite(mat):
        return positive_definite_exact(_integer_rows(mat)[0])

    assert positive_definite([[Fraction(1), Fraction(1, 2)],
                              [Fraction(1, 2), Fraction(1, 3)]])
    # indefinite: leading minors 1 and -3
    assert not positive_definite([[Fraction(1), Fraction(2)],
                                  [Fraction(2), Fraction(1)]])
    # singular symmetric rational: second minor is 1/9 - 1/9 = 0
    assert not positive_definite([[Fraction(1, 2), Fraction(1, 3)],
                                  [Fraction(1, 3), Fraction(2, 9)]])


# -- Hodge splitting ------------------------------------------------------------------


def test_hodge_explicit_range(cx1):
    # f = dbar(zbar^2) = 2 zbar dzbar lies in the range
    f = FormPoly(1, 1, {(1,): CPolynomial.zbar(1, 1).scale(2)})
    split = hodge_split(f, s=1, d=12)
    assert cx1.gram.norm(split.orthogonal_part) < 1e-10
    assert cx1.gram.norm(split.range_part) > 0


def test_hodge_dzbar(cx1):
    assert cx1.gram.norm(hodge_split(DZBAR, s=1, d=12).orthogonal_part) < 1e-10


def test_hodge_orthogonality_and_top_degree_artifact(cx1, rng):
    for _ in range(10):
        f = (rng.standard_normal(cx1.basis.dim)
             + 1j * rng.standard_normal(cx1.basis.dim))
        f1, f2 = hodge_decompose(f, cx=cx1)
        n1, n2 = cx1.gram.norm(f1), cx1.gram.norm(f2)
        assert np.allclose(f1 + f2, f)
        if n1 > 0 and n2 > 0:
            assert abs(cx1.gram.inner(f1, f2)) <= 1e-10 * n1 * n2
        # f2 is W^s-orthogonal to the whole range subspace, not just to f1
        pair = cx1.gram.matrix @ f2
        assert np.max(np.abs(pair[: cx1.form_basis.dim])) < 1e-8 * max(n2, 1.0)


@pytest.mark.parametrize("s", [0, 2])
@pytest.mark.parametrize("d", [12, 40])
def test_hodge_split_certificate_matches_the_fraction_oracle(d, s):
    # dyadic coefficients, so the oracle splits the same vector; z^d and zbar^d
    # are the 1 x 1 blocks of charge +-d, where the range part is zero
    terms = {((d,), (0,)): CRational(Fraction(3, 4), Fraction(-1, 2)),
             ((0,), (d,)): CRational(Fraction(-5, 8), Fraction(1)),
             ((d - 3,), (3,)): CRational(Fraction(1, 2), Fraction(7, 4)),
             ((2,), (d - 2,)): CRational(Fraction(-3), Fraction(1, 8)),
             ((4,), (1,)): CRational(Fraction(9, 16), Fraction(0)),
             ((1,), (1,)): CRational(Fraction(0), Fraction(-1, 4))}
    phi = FormPoly(1, 1, {(1,): CPolynomial(1, terms)})
    split = hodge_split(phi, s=s, d=d)
    fvec = MonomialBasis(d).coefficients_of(phi.component((1,)))
    for part, exact in zip((split.range_part, split.orthogonal_part),
                           exact_hodge_split(fvec, d, s)):
        assert np.array_equal(part, exact)
    assert split.orthogonal_part[MonomialBasis(d).index_of(d, 0)] == complex(0.75, -0.5)
    assert (split.range_norm, split.orthogonal_norm, split.orthogonality_defect) == \
        exact_hodge_certificate(split.range_part, split.orthogonal_part, d, s)
    assert split.orthogonality_defect <= 1e-12


def test_hodge_of_an_integer_vector_is_not_truncated(cx1):
    f = np.zeros(cx1.basis.dim, dtype=int)
    f[cx1.basis.index_of(6, 6)] = 1
    for part, expect in zip(hodge_decompose(f, cx=cx1), hodge_decompose(f.astype(float), cx=cx1)):
        assert np.array_equal(part, expect)


# -- Green identity -------------------------------------------------------------------


def test_greens_simple_example():
    res = greens_identity_check(CPolynomial.const(1, 1), CPolynomial.const(1, 1), 0)
    assert res.residual < 1e-12
    assert abs(res.lhs) < 1e-12  # dbar of a constant vanishes
    assert abs(res.boundary) < 1e-12  # circle integral of z/2


def test_greens_random(rng):
    for _ in range(20):
        phi = random_cpolynomial(rng, 1, 4)
        psi = random_cpolynomial(rng, 1, 4)
        for s in range(MAX_S + 1):
            assert greens_identity_check(phi, psi, s).residual < 1e-10


def test_greens_boundary_vanishes_for_flat_traces(rng):
    # phi = (1 - z zbar)^(s+1) * poly has a zero of order s+1 at the circle,
    # so every boundary term of order <= s dies.
    for s in range(MAX_S + 1):
        flat = CPolynomial.const(1, 1) - CPolynomial.z(1, 1) * CPolynomial.zbar(1, 1)
        phi = random_cpolynomial(rng, 1, 2)
        for _ in range(s + 1):
            phi = phi * flat
        psi = random_cpolynomial(rng, 1, 3)
        res = greens_identity_check(phi, psi, s)
        assert abs(res.boundary) < 1e-10
        assert res.residual < 1e-10


def test_greens_s_cap():
    with pytest.raises(ValueError, match=f"0..{MAX_S}"):
        greens_identity_check(CPolynomial.const(1, 1), CPolynomial.const(1, 1), MAX_S + 1)


# -- domain condition and projection ---------------------------------------------------


def test_domain_condition_flat_form(geom):
    # (1 - r)^(s+1)-flat component: trace and s derivatives vanish
    for s in (1, 2):
        psi = SampledField.from_polar(
            geom, lambda r, t: (1 - r) ** (s + 1) * np.exp(1j * t))
        assert check_domain_condition(psi, s) < 1e-6


def test_domain_condition_dzbar(geom):
    # contraction of dzbar is the r-independent phase: all normal derivatives 0
    for s in (1, 2):
        psi = SampledField.from_polynomial(geom, DZBAR.component((1,)))
        assert check_domain_condition(psi, s) < 1e-8


def test_domain_condition_nonzero(geom):
    # psi = z dzbar has contraction r/2: N(r/2) = 1/2
    psi = SampledField.from_polynomial(geom, CPolynomial.z(1, 1))
    val = check_domain_condition(psi, 1)
    assert abs(val - 0.5) < 1e-8


def test_domain_projection_zero_contraction(geom):
    phi = FormPoly.zero(1, 1)
    psi = domain_projection(phi, 1, 0.1, geom)
    assert np.max(np.abs(psi.values)) == 0.0


@pytest.mark.parametrize("s", [1, 2])
def test_domain_projection_fixes_condition(geom, rng, s):
    eps = 0.1
    for _ in range(5):
        comp = random_cpolynomial(rng, 1, 4)
        phi = FormPoly.from_components(1, 1, {(1,): comp})
        psi = domain_projection(phi, s, eps, geom)
        phi_field = SampledField.from_polynomial(geom, comp)
        resid = check_domain_condition(phi_field - psi, s, spacing=eps / 16)
        assert resid < 1e-5


def test_domain_projection_norm_decreases_with_eps(geom):
    phi = FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)})
    norms = [ws_norm_sampled(domain_projection(phi, 1, eps, geom), 1)
             for eps in (0.2, 0.1, 0.05)]
    assert norms[0] > norms[1] > norms[2]


def test_domain_projection_validation(geom):
    phi = FormPoly(1, 1, {(1,): CPolynomial.z(1, 1)})
    with pytest.raises(ValueError):
        domain_projection(phi, 1, 0.7, geom)
    with pytest.raises(ValueError):
        domain_projection(phi, 0, 0.1, geom)


# -- blow-up experiment -----------------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2])
def test_blowup_windows(s):
    rep = blowup_experiment(s)
    assert -0.35 <= rep.slope <= -0.15
    assert rep.norm_ratio <= 1.5
    assert rep.pairing_monotone


def test_blowup_validation():
    with pytest.raises(ValueError, match="supports s"):
        blowup_experiment(3)
    with pytest.raises(ValueError, match="2\\^-12"):
        blowup_experiment(1, [0.5])
    for delta in (0.0, -0.5, float("nan"), float("inf"), 1e300, 1e-300):
        with pytest.raises(ValueError, match="delta"):
            blowup_experiment(1, delta=delta)
    coarse = default_geometry(radial_nodes=64, angular_nodes=32, refine_depth=2)
    with pytest.raises(ValueError, match="resolve"):
        blowup_experiment(1, [2.0**-8], geom=coarse)
    with pytest.raises(ValueError, match="more than"):
        blowup_experiment(1, [0.125, 2.0**-8] * MAX_BLOWUP_POINTS)
    for eps_list in ([0.125] * 8, [2.0**-8], []):  # no slope to fit
        with pytest.raises(ValueError, match="two distinct"):
            blowup_experiment(1, eps_list)
