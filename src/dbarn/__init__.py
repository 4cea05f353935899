"""dbarn: the dbar-Neumann problem in weighted Sobolev topologies, at desk scale.

The package combines three layers:

  * exact symbolic calculus: multi-index combinatorics, (0,q)-forms with
    complex-rational polynomial coefficients, the operators dbar / theta /
    box, and weighted Sobolev inner products whose disc integrals are exact
    rational multiples of pi;
  * a spectral Galerkin solver on the unit disc for least-norm solutions of
    dbar u = f and the inverse of the weighted form Laplacian, plus the
    boundary machinery (domain condition, cutoff projection, blow-up
    experiment) that explains the adjoint's domain;
  * certification of the elliptic boundary value problem behind the adjoint
    correction: boundary symbols, the half-line model ODE, the uniform
    nonsingularity sweep, and a concrete disc solver for the lowest order.
"""

from .multiindex import (
    MultiIndex,
    binomial_double_sum,
    count_multiindices,
    enumerate_multiindices,
    gamma,
    multinomial_power_identity_check,
)
from .forms import (
    CPolynomial,
    CRational,
    FormPoly,
    box,
    dbar,
    epsilon,
    form_from_text,
    form_to_text,
    laplacian,
    random_cpolynomial,
    random_form,
    theta,
)
from .sobolev import (
    MonomialBasis,
    SobolevGram,
    assemble_gram,
    inner_s_direct,
    inner_s_exact,
    inner_s_recursive,
)
from .geometry import (
    DiscGeometry,
    RadialFourierSum,
    SampledField,
    default_geometry,
    normal_derivative,
    plateau_bump,
    ws_inner_sampled,
    ws_norm_sampled,
)
from .ellipticity import (
    LopatinskiReport,
    certify_trivial_kernel,
    lopatinski_matrix,
    quadratic_form,
    reduce_double_sum,
    symbol_closed_form,
    symbol_closed_form_exact,
    symbol_double_sum,
)
from .bvp import (
    DiscKOperator,
    Interval1DProblem,
    bessel_i_series,
    characteristic_roots,
    manufactured_interval_problem,
    solve_interval,
    solve_interval_fd,
)
from .neumann import (
    DiscreteComplex,
    adjoint,
    blowup_experiment,
    canonical_solve_dbar,
    check_domain_condition,
    domain_projection,
    greens_identity_check,
    hodge_decompose,
    hodge_split,
    neumann_operator_norm_proxy_exact,
    neumann_solve,
    verify_gram_positive_definite_exact,
)

__version__ = "0.1.0"
