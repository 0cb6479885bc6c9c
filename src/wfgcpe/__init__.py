"""Weighted fractional cumulative past entropy toolkit.

A numerics library for the entropy family

    (1 / Gamma(gamma + 1)) * int psi(x) K(x) (-ln K(x))^gamma dx

covering closed forms for parametric families, the normalized / dynamic /
residual variants, proportional reversed hazard identities, stochastic
ordering and bound verifiers, the empirical plug-in estimator with exact
sampling moments, and a reproducible Monte Carlo harness.
"""

from .analysis import (CheckReport, CltReport, OrderVerdict,
                       SimulationConfig, SimulationSummary, bound_suite,
                       check_order, clt_diagnostic, consistency_profile,
                       dispersive_implies_wfgcpe_order,
                       find_st_counterexample, hr_dfr_implies_wfgcpe_order,
                       is_dfr, mean_value_identity, prh_bound_check,
                       simulate_estimator, sum_bound_check)
from .distributions import (DistributionModel, PrhExpectationTerms,
                            PrhParameter, make_custom, make_exponential,
                            make_frechet, make_power, make_uniform_shifted,
                            make_weibull_square, mean_inactivity_time,
                            prh_expectation_terms, prh_n_step,
                            prh_recurrence_step, prh_transform, prh_wfgcpe)
from .empirical import (BLOOD_CANCER_43_LITERAL, EmpiricalSample,
                        SpacingSummary, as_sample, empirical_cdf,
                        empirical_wfgcpe, exact_moments_power_square,
                        exact_moments_self_weight, exact_moments_weibull,
                        export_dataset, load_dataset, spacing_summary)
from .errors import (ConstraintError, DegenerateNormalizer, DomainError,
                     MonotonicityError, NonConvergence, ParseError,
                     PreconditionUnmet, UnboundedSupport, ValidationError,
                     WeightAntiderivativeUnavailable, WfgcpeError)
from .measures import (MeasureReport, affine_wfgcpe, discrete_wfe,
                       dynamic_wfgcpe, normalized_wfgcpe,
                       rl_fractional_integral, tau, weighted_cpe, wfgcpe,
                       wfgcpe_gamma_zero_limit, wfgcpe_via_fractional_bridge,
                       wfgcre)
from .quadrature import Integrand, QuadratureResult, integrate
from .weights import (WeightFunction, custom_weight, piecewise_linear_weight,
                      power_weight, self_density_weight, weight_exp_neg,
                      weight_one, weight_sqrt_x, weight_x, weight_x_squared)

__version__ = "0.1.0"
