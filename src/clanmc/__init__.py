"""Exact fractional-linear formulas and Monte Carlo estimators for clan
survival in critical branching processes with immigration in a random
environment."""

__version__ = "0.1.0"

from .env_model import (EnvironmentPath, EnvironmentSpec, ValidationReport,
                        offspring_params, pgf_eval, sample_path, validate_spec)
from .assoc_walk import (WalkFunctionals, build_walk, estimate_u, estimate_u_table,
                         estimate_v, estimate_v_table, harmonicity_residual, reflect)
from .exact_fl import (compose_pgf_bruteforce, cond_event_prob, extinction_step,
                       h_functional, survival_bruteforce, survival_closed, v_functional,
                       yaglom_integrand)
from .clan_sim import (ClanOutcome, PopulationState, initial_state, simulate,
                       simulate_ensemble, step)
from .estimators import (DualityResult, EventProbResult, LambdaResult, MCEstimate,
                         RegimeRule, ScalingFit, StrataReport, ThetaResult,
                         duality_check, estimate_event_prob, estimate_lambda,
                         estimate_theta, h_moment_scan, scaling_study,
                         strata_decomposition)
from .logdomain import LogValue
from .streams import RngStream
from .errors import (AssumptionViolationError, ClanMCError, ConfigurationError,
                     DomainError, NumericalFailureError, UnreliableRatioError)
