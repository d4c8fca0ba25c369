"""Unified-transform solver for the higher-order Schrodinger equation on a
finite interval, with a Picard solver for the power nonlinearity, a
finite-difference oracle, norm tools, and seeded verification suites."""

from .dispersion import (BranchData, BranchKind, DispersionParams, MuFactors,
                         SymmetryTriple, branch_points, branch_sqrt,
                         mu_factors, omega, omega_prime, symmetries)
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
from .norms import (NormKind, NormSpec, bessel_norm, check_admissible_pair,
                    ct_l2_distance, ct_l2_norm, mixed_norm, sobolev_norm)
from .oracle import BcMode, OracleConfig, oracle_solve
from .regions import (RegionLabel, SegmentKind, classify_region, delta_fn,
                      im_omega, m_delta, r_delta)
from .transforms import GridKind, SpatialProfile, TimeSeries, laplace_transform
from .verify import run_suite

__version__ = "0.1.0"
