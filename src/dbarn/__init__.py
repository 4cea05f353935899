"""dbarn: the dbar-Neumann problem in weighted Sobolev topologies, at desk scale.

The package combines three layers:

  * exact symbolic calculus: multi-index combinatorics (``multiindex``),
    (0,q)-forms with complex-rational polynomial coefficients and the
    operators dbar / theta / box (``forms``), and weighted Sobolev inner
    products whose disc integrals are exact rational multiples of pi
    (``sobolev``);
  * a spectral Galerkin solver on the unit disc for least-norm solutions of
    dbar u = f and the inverse of the weighted form Laplacian: exact, one
    charge block at a time, for forms (``exact``), and through operators
    rounded once for float vectors, plus the boundary machinery (domain
    condition, cutoff projection, blow-up experiment) that explains the
    adjoint's domain (``neumann``);
  * certification of the elliptic boundary value problem behind the adjoint
    correction: boundary symbols, the half-line model ODE, the uniform
    nonsingularity sweep (``ellipticity``), and a concrete disc solver for
    the lowest order (``bvp``, on the grids of ``geometry``).

``acceptance`` runs the 14 exit criteria at the pinned ``tolerances``, and
``cli`` is the ``dbarn`` command.  Importing the package imports none of its
modules: each command loads only what it runs, so the exact Galerkin
commands load neither numpy nor scipy.
"""

__version__ = "0.1.0"
