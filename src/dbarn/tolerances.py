"""The pinned tolerances and the default seed, defined once for the acceptance
criteria and the CLI records that report the same checks.  This module imports
nothing, so a CLI run reads them without loading the acceptance suite."""

DEFAULT_SEED = 20260314

# Pinned tolerances: these do not move.
INNER_REL_TOL = 1e-12          # criterion 6
GREENS_TOL = 1e-10             # criterion 7, greens record
ADJOINT_TOL = 1e-12            # criterion 8
NEUMANN_TOL = 1e-8             # criteria 9 and 10, neumann record
PROXY_VARIATION = 2.0          # criterion 9: max / min norm proxy over d = 10, 20, 40
CANONICAL_TOL = 1e-10          # canonical record
HODGE_TOL = 1e-10              # hodge record
BLOWUP_SLOPE = (-0.35, -0.15)  # criterion 11, blowup record
BLOWUP_NORM_RATIO = 1.5        # criterion 11, blowup record
DOMAIN_TOL = 1e-5              # criterion 12
K_INTERIOR_TOL = 1e-10         # criterion 13: K of an interior bump
BESSEL_TOL = 1e-6              # criterion 13, kop record
K_RATIO_SPREAD = 4.0           # criterion 13
INTERVAL_TOL = 1e-10           # criterion 14, bvp1d record
FD_RATIO = (3.5, 4.5)          # criterion 14, bvp1d record
