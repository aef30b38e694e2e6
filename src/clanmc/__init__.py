"""Exact fractional-linear formulas and Monte Carlo estimators for clan
survival in critical branching processes with immigration in a random
environment."""

__version__ = "0.1.0"

from .env_model import (EnvironmentPath, EnvironmentSpec, ValidationReport,
                        offspring_params, pgf_eval, validate_spec)
from .assoc_walk import build_walk, estimate_table, harmonicity_residual
from .exact_fl import (compose_pgf_bruteforce, cond_event_prob, extinction_step,
                       h_functional, survival_bruteforce, survival_closed, v_functional,
                       yaglom_integrand)
from .clan_sim import final_clans_ensemble
from .estimators import (DualityResult, EventProbResult, MCEstimate, RegimeRule,
                         ScalingFit, StrataReport, TransformResult, duality_check,
                         estimate_event_prob_grid, estimate_lambda, estimate_theta,
                         scaling_study, strata_decomposition)
from .logdomain import LogValue
from .streams import RngStream
from .errors import (AssumptionViolationError, ClanMCError, ConfigurationError,
                     DomainError, NumericalFailureError, UnreliableRatioError)
