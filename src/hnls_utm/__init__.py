"""Unified-transform solver for the higher-order Schrodinger equation on a
finite interval, with a Picard solver for the power nonlinearity, a
finite-difference oracle, norm tools, and seeded verification suites."""

from .dispersion import (BranchData, BranchKind, DispersionParams,
                         branch_points, branch_sqrt, mu_factors, omega,
                         omega_prime, symmetry_roots)
from .errors import (BranchCutPoint, ConfigInvalid, ExponentialOverflow,
                     GridTooCoarse, InhomogeneousBoundary, InvalidTruncation,
                     MissingProxy, NoConvergence, QuadratureDiverged,
                     SolverError, StepDiverged)
from .fields import Field
from .linear import (ProblemData, QuadratureBudget, SolvePlan, evaluate_traces,
                     global_relation_residual, make_plan, solve_full,
                     solve_reduced, zero_data)
from .nonlinear import (DissipationAudit, LifespanIndicator, PicardReport,
                        Regime, apply_nonlinearity, check_compatibility,
                        data_norm_sum, default_proxies, dissipation_audit,
                        lifespan_indicator, mvt_gap, picard_solve)
from .norms import (NormSpec, bessel_norm, check_admissible_pair,
                    ct_l2_distance, ct_l2_norm, mixed_norm, sobolev_norm)
from .oracle import OracleConfig, oracle_solve
from .regions import RegionLabel, im_omega, r_delta, scaled_delta
from .transforms import SpatialProfile, TimeSeries, laplace_transform
from .verify import run_suite

__version__ = "0.1.0"
